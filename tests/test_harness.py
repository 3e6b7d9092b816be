"""The benchmark harness in ``perfbench/`` drives divflow from outside the
package: it calls ``runner.run(cfg, workers=1)``, and its tracer wraps every
function that ``perfbench/spans.py`` names in ``LAYERS``.  Dropping that
keyword or one of those names makes every benchmark run raise, so this test
runs four experiments the way the harness does: among them a hyperbolic
recurrence run, whose return search stops each orbit through its escape
monitor, and one on the surface of revolution, whose orbits neither return
nor escape in the first RETURN_CHUNK and so take a second chunk from
t_start = RETURN_CHUNK.  The ``orbits`` workload's configs run traced too,
to bound the speed drift the harness records."""

import json
import types
from pathlib import Path

from divflow import runner
from divflow.flow import MAX_SPEED_DRIFT
from divflow.runner import ExperimentConfig, report_to_json, run

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = [
    json.loads((ROOT / "scripts" / "configs" / "fiber-ex1.json").read_text()),
    {"kind": "path-integral", "manifold": "warp:ex4", "field": "warp:ex4:Z",
     "params": {"T": 1.0, "n_orbits": 1}, "seed": 30},
    {"kind": "recurrence", "manifold": "hyperbolic", "params": {"n": 3, "t_max": 101.0},
     "seed": 25},
    {"kind": "recurrence", "manifold": "revolution:1/(1+x^2)",
     "params": {"n": 2, "t_max": 101.0}, "seed": 24},
]


def _load_spans():
    # compiled from its source, so nothing is written next to it
    path = ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_harness_calls_give_the_untraced_reports():
    configs = [ExperimentConfig.from_dict(raw) for raw in CONFIGS]
    untraced = [report_to_json(run(cfg)) for cfg in configs]
    tracer = _load_spans().Tracer()
    with tracer.installed():
        traced = [report_to_json(runner.run(cfg, workers=1)) for cfg in configs]
    assert traced == untraced
    metrics = tracer.metrics()
    assert metrics["runner.run.calls"] == len(configs)
    # one path run, one chunk of the hyperbolic search and two of the other
    assert metrics["flow.integrate_geodesic.calls"] == 4
    assert metrics["flow.first_return.calls"] == 2
    assert metrics["integrals.fiber_integral.calls"] > 0


def test_benchmark_orbits_keep_unit_speed_to_round_off():
    # the orbits workload at its config seeds, traced as the harness does:
    # the largest speed drift stays two decades inside the truncation bound
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    tracer = _load_spans().Tracer()
    with tracer.installed():
        for raw in workloads["orbits"].values():
            runner.run(ExperimentConfig.from_dict(raw), workers=1)
    assert 0.0 < tracer.max_speed_drift <= MAX_SPEED_DRIFT / 100


def test_benchmark_quadrature_calls_each_fiber_integrand_once_per_experiment():
    # a rate ladder stacks every rung, patch and pass into one fiber
    # integral, as the fiber lemma stacks its points: two ladders and two
    # fiber-lemma runs
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    tracer = _load_spans().Tracer()
    with tracer.installed():
        for raw in workloads["quadrature"].values():
            runner.run(ExperimentConfig.from_dict(raw), workers=1)
    metrics = tracer.metrics()
    assert metrics["integrals.fiber_integral.calls"] == 4
    assert metrics["geometry.pairing_rate_form.calls"] == 4
