#!/usr/bin/env python3
"""Run every experiment listed in the suite manifest and write one JSON
report per experiment.

Reports are deterministic given the config seeds: two runs with the same
manifest produce byte-identical files.

Usage:
    python scripts/run_suite.py --out-dir reports [--seed 5] [--only NAME ...]

A --seed value overrides the per-config seeds (useful for reproducibility
sweeps).  Every config is checked before the first experiment runs.  Exit
status 0 iff every experiment's checks passed, 2 when --only names an
experiment the manifest does not list or a config is missing or malformed (no
report is written then).
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# run from a clean checkout without installing the package
sys.path.insert(0, str(HERE.parent / "src"))

from divflow.runner import ExperimentConfig, report_to_json, run  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--manifest", default=str(HERE / "suite_manifest.json"))
    ap.add_argument("--config-dir", default=str(HERE / "configs"))
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=None,
                    help="override every config's seed")
    ap.add_argument("--only", action="append", default=[],
                    help="run only these experiment names")
    args = ap.parse_args()

    with open(args.manifest) as fh:
        names = json.load(fh)["experiments"]
    unknown = sorted(set(args.only) - set(names))
    if unknown:
        ap.error(f"--only names experiments not in the manifest: {', '.join(unknown)}")
    if args.only:
        names = [n for n in names if n in set(args.only)]

    configs = {}
    for name in names:
        try:
            with open(Path(args.config_dir) / f"{name}.json") as fh:
                raw = json.load(fh)
            if args.seed is not None:
                raw["seed"] = args.seed
            configs[name] = ExperimentConfig.from_dict(raw)
        except (OSError, ValueError) as exc:   # ConfigError, bad JSON included
            ap.error(f"{name}: {exc}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    all_passed = True
    summary = []
    for name, cfg in configs.items():
        report = run(cfg)
        (out_dir / f"{name}.json").write_text(report_to_json(report))
        status = "pass" if report["passed"] else "FAIL"
        print(f"{status:4s}  {name}")
        summary.append({"name": name, "passed": report["passed"]})
        all_passed &= report["passed"]

    (out_dir / "summary.json").write_text(
        json.dumps({"experiments": summary, "passed": all_passed},
                   indent=2, sort_keys=True) + "\n")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
