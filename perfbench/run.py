#!/usr/bin/env python3
"""divflow benchmark: one workload's suite experiments, run one after
another through ``divflow.runner.run`` in a single process, with every
report checked.

Usage:
    python3 perfbench/run.py --workload quadrature --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a separate traced run (see spans.py).  One line per
metric goes to stdout, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An experiment run
fails if it raises, if any of its checks fails, or if its report bytes
differ from the first pass of the same run.  Workload seed s gives each
experiment the seed ``suite seed + 1000 * s``, so seed 0 is the committed
suite.  Run it from the repository root.

Times are reported in reference seconds: each timed interval (one
experiment, one set-up probe) is scaled by the machine's speed at that
moment, measured by a fixed calibration kernel run just before and just
after it (see ``calibration_s``).  On a shared
machine whose speed swings by a fifth over minutes, raw pass times spread
more than any bound a regression check can use; the scaled times do not.
The raw medians are printed alongside.
"""

import os

# one BLAS thread, set before numpy loads: the load is this one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = json.loads((HERE / "workloads.json").read_text())
SEED_STRIDE = 1000
SETUP_PROBES = 3
# calibration kernel length, and its time on the reference machine (2-core
# Xeon, Python 3.11.7, numpy 2.4.6) that reference seconds are scaled to
CAL_ITERS = 10_000
CAL_REF_S = 0.05

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _names(prefix, functions, stats):
    return [f"{prefix}.{f}.{s}" for f in functions for s in stats]


PER_LAYER = [
    *_names("geometry", ("metric_at", "christoffel", "orthonormal_frame",
                         "volume_density", "divergence", "field_norm",
                         "pairing_rate_form"), ("calls", "self_s")),
    *_names("integrals", ("fiber_integral", "base_integral"),
            ("calls", "self_s", "nodes")),
    "integrals.sm_integral.self_s",
    "integrals.fubini_consistency.self_s",
    "integrals.fubini_consistency.nodes",
    "integrals.sample_states.self_s",
    *_names("integrals", ("sample_liouville",), ("calls", "states", "self_s")),
    *_names("flow", ("integrate_geodesic",),
            ("calls", "self_s", "nfev", "steps_accepted", "steps_rejected",
             "reject_ratio", "truncated")),
    "flow.max_speed_drift",
    *_names("flow", ("birkhoff_integral", "first_return",
                     "path_integral_identity_residual"), ("calls", "self_s")),
    *_names("diagnostics", ("karp_sequence", "cutoff_estimate",
                            "rate_integrability_ladder", "x_decay_at_infinity",
                            "recurrence_fraction"), ("self_s",)),
    *_names("diagnostics", ("hopf_probe",), ("calls", "self_s")),
    *_names("potential", ("phi_laplacian", "laplace_beltrami", "monotone_form"),
            ("self_s",)),
    "zoo.build_s",
    *_names("runner", ("run",), ("calls", "self_s")),
    "trace.wall_s",
    "trace.overhead_s",
]


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("reject_ratio", "drift")):
        return "ratio"
    return "count"


def workload_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's experiments as (name, config) with derived seeds."""
    return [(name, dict(raw, seed=raw["seed"] + SEED_STRIDE * seed))
            for name, raw in WORKLOADS[workload].items()]


def zoo_ids(configs) -> list[str]:
    """Every zoo manifold and field the configs name, in first-use order."""
    ids = []
    for _, raw in configs:
        if "manifold" in raw:
            ids.append(f"manifold:{raw['manifold']}")
        if "field" in raw:
            ids.append(f"field:{raw['field']}")
    return list(dict.fromkeys(ids))


def resolve(ids) -> None:
    from divflow import zoo
    for ident in ids:
        kind, zoo_id = ident.split(":", 1)
        (zoo.manifold if kind == "manifold" else zoo.vector_field)(zoo_id)


def calibration_s() -> float:
    """Time of a fixed kernel with the workload's mix of interpreter work
    and small numpy operations.  It never calls divflow, so no change to the
    program moves it; CAL_REF_S over this time is the machine's speed."""
    v = np.arange(3.0)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        acc += math.fsum([i * 0.5, float((np.outer(v, v) @ v)[1]), 1.0])
    return time.perf_counter() - t0


class Speed:
    """Machine speed around one timed interval: calibrate on entry and on
    exit, and scale by CAL_REF_S over the mean of the two."""

    def __enter__(self):
        self._before = calibration_s()
        return self

    def __exit__(self, *exc):
        self.factor = 2.0 * CAL_REF_S / (self._before + calibration_s())


def setup_seconds(ids) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, in reference and in raw
    seconds."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        with Speed() as speed:
            out = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), *ids],
                check=True, capture_output=True, text=True, timeout=60)
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * speed.factor)
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """One pass over a workload: report texts, failures, and wall and CPU
    time in raw (``raw_wall``, ``raw_cpu``) and reference seconds.  Each
    experiment is scaled by the calibrations just before and after it."""

    def __init__(self, configs, reference=None):
        from divflow import runner
        self.reports: list = []
        self.failed = 0
        self.raw_wall = self.raw_cpu = self.wall = self.cpu = 0.0
        cal = calibration_s()
        for i, (name, raw) in enumerate(configs):
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                report = runner.run(runner.ExperimentConfig.from_dict(raw), workers=1)
                text, ok = runner.report_to_json(report), report["passed"]
            except Exception:  # a failed run is counted, not fatal
                print(f"{name}: raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                text, ok = None, False
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            after = calibration_s()
            speed = 2.0 * CAL_REF_S / (cal + after)
            cal = after
            self.raw_wall += wall
            self.raw_cpu += cpu
            self.wall += wall * speed
            self.cpu += cpu * speed
            if reference is not None and text != reference[i]:
                ok = False
            if not ok:
                print(f"{name}: failed", file=sys.stderr)
            self.failed += not ok
            self.reports.append(text)
        self.speed = self.wall / self.raw_wall
        self.attempted = len(configs)


def end_to_end(configs, seconds: float) -> tuple[list[Pass], dict, dict]:
    """Set-up probes, one cold pass (also the memory figure), then warm
    passes until ``seconds`` have gone.  Returns the passes, the metrics and
    the raw medians of the timed ones, for display."""
    setup, raw_setup = setup_seconds(zoo_ids(configs))
    resolve(zoo_ids(configs))
    cold = Pass(configs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm = []
    stop = time.perf_counter() + seconds
    while not warm or time.perf_counter() < stop:
        warm.append(Pass(configs, reference=cold.reports))
    metrics = {
        "wall_s": statistics.median(p.wall for p in warm),
        "cpu_s": statistics.median(p.cpu for p in warm),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "wall_s raw": statistics.median(p.raw_wall for p in warm),
        "cpu_s raw": statistics.median(p.raw_cpu for p in warm),
        "setup_s raw": raw_setup,
    }
    return [cold, *warm], metrics, raw


def per_layer(configs, seconds: float, spans_out) -> tuple[list[Pass], dict, dict, bool]:
    """A cold untraced pass, then untraced and traced passes in turn until
    ``seconds`` have gone.  Counts come from the first traced pass and must
    repeat in every later one; times are medians over the traced passes."""
    import divflow.runner  # noqa: F401  (build_s times the zoo alone)
    from spans import COUNTERS, Tracer

    with Speed() as speed:
        t0 = time.perf_counter()
        resolve(zoo_ids(configs))
        raw_build = time.perf_counter() - t0
    cold = Pass(configs)
    plain, traced, layers = [], [], []
    stop = time.perf_counter() + seconds
    while not traced or time.perf_counter() < stop:
        plain.append(Pass(configs, reference=cold.reports))
        tracer = Tracer()
        with tracer.installed():
            traced.append(Pass(configs, reference=cold.reports))
        layers.append(tracer.metrics())
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(spans_out, **tracer.spans())

    count_keys = [k for k in layers[0] if k.endswith(".calls") or k in COUNTERS]
    repeats = all(m[k] == layers[0][k] for m in layers for k in count_keys)
    metrics = {name: statistics.median(m[name] * p.speed
                                       for m, p in zip(layers, traced))
               if name.endswith(".self_s") else layers[0][name]
               for name in PER_LAYER if name in layers[0]}
    metrics["zoo.build_s"] = raw_build * speed.factor
    traced_wall = statistics.median(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    raw = {"trace.wall_s raw": statistics.median(p.raw_wall for p in traced),
           "untraced wall_s": plain_wall,
           "untraced wall_s raw": statistics.median(p.raw_wall for p in plain)}
    return [cold, *plain, *traced], metrics, raw, repeats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "divflow" / "__init__.py").is_file():
        print(f"no divflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    configs = workload_configs(args.workload, args.seed)
    correct = True
    if args.trace:
        spans_out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.npz"
        passes, metrics, raw, correct = per_layer(configs, args.seconds, spans_out)
        if not correct:
            print("work counts differ between traced passes", file=sys.stderr)
    else:
        passes, metrics, raw = end_to_end(configs, args.seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = correct and failed == 0

    for name, value in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit(name)}")
    for name, value in raw.items():
        print(f"{name:48s} {value:>14.6g} s")
    print(f"{'machine speed (median over passes)':48s} "
          f"{statistics.median(p.speed for p in passes):>14.6g} x reference")
    print(f"{'error_rate':48s} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} runs over {len(passes)} passes failed)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
