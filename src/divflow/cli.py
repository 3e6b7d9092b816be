"""Command-line entry point.

Subcommands mirror the experiment kinds:

    divflow zoo list
    divflow verify fiber-lemma|path-integral|fubini ...
    divflow integrate volume|divergence ...
    divflow diagnose karp|cutoff|fx-ladder|decay|recurrence|hopf ...
    divflow potential monotone|laplacian ...

Exit status: 0 all checks passed, 1 a check failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import (
    KINDS,
    ConfigError,
    ExperimentConfig,
    list_zoo,
    report_to_csv,
    report_to_json,
    run,
)

_SUBCOMMAND_KINDS = {(spec.group, spec.action): kind for kind, spec in KINDS.items()}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; command-line flags override it")
    p.add_argument("--manifold", help="zoo manifold id")
    p.add_argument("--field", help="zoo field id")
    p.add_argument("--seed", type=int, help="RNG seed (recorded in the report)")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--param", action="append", default=[], metavar="KEY=JSON",
                   help="set a params entry, e.g. --param T=10 --param radii=[2,5]")
    p.add_argument("--tolerance", action="append", default=[], metavar="KEY=VALUE",
                   help="set a tolerances entry")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="divflow",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    top = ap.add_subparsers(dest="group", required=True)

    zoo_p = top.add_parser("zoo", help="catalog commands")
    zoo_sub = zoo_p.add_subparsers(dest="action", required=True)
    zoo_sub.add_parser("list", help="list manifold and field ids")

    groups = {}
    for group, action in _SUBCOMMAND_KINDS:
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="action",
                                                                 required=True)
        _add_common(groups[group].add_parser(action))
    return ap


def _parse_kv(pairs, what):
    out = {}
    for it in pairs:
        if "=" not in it:
            raise ConfigError(f"bad {what} entry {it!r}, expected KEY=VALUE")
        k, v = it.split("=", 1)
        try:
            out[k] = json.loads(v)
        except json.JSONDecodeError:
            out[k] = v
    return out


def _build_config(args) -> ExperimentConfig:
    kind = _SUBCOMMAND_KINDS[(args.group, args.action)]
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        if raw.get("kind", kind) != kind:
            raise ConfigError(
                f"config kind {raw.get('kind')!r} does not match subcommand {kind!r}")
    raw["kind"] = kind
    if args.manifold:
        raw["manifold"] = args.manifold
    if args.field:
        raw["field"] = args.field
        raw.pop("fields", None)
    if args.seed is not None:
        raw["seed"] = args.seed
    params = dict(raw.get("params", {}))
    params.update(_parse_kv(args.param, "param"))
    raw["params"] = params
    tols = dict(raw.get("tolerances", {}))
    tols.update(_parse_kv(args.tolerance, "tolerance"))
    raw["tolerances"] = tols
    return ExperimentConfig.from_dict(raw)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    if args.group == "zoo":
        _emit(json.dumps(list_zoo(), indent=2, sort_keys=True) + "\n", None)
        return 0

    try:
        cfg = _build_config(args)
        report = run(cfg)
    except ConfigError as exc:
        print(f"divflow: config error: {exc}", file=sys.stderr)
        return 2

    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _emit(text, args.out)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
