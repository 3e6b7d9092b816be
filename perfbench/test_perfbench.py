"""Checks of the benchmark itself: tracing changes no report, work counts
repeat exactly, the workloads separate their layers, and BENCHMARK.json
names what run.py prints.

Run from the repository root: python3 -m pytest -q perfbench
(about a minute on 2 cores).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import COUNTERS, Tracer

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def passes(request):
    """One untraced and two traced passes at the default workload seed."""
    configs = run.workload_configs(request.param, 0)
    plain = run.Pass(configs)
    traced = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            traced.append((run.Pass(configs, reference=plain.reports),
                           tracer.metrics()))
    return request.param, plain, traced


def test_traced_reports_match_untraced(passes):
    _, plain, traced = passes
    assert plain.failed == 0
    for p, _ in traced:
        assert p.reports == plain.reports
        assert p.failed == 0


def test_counts_repeat_across_traced_passes(passes):
    _, _, [(_, first), (_, second)] = passes
    keys = [k for k in first if k.endswith(".calls") or k in COUNTERS]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


def test_workloads_separate_layers(passes):
    workload, _, [(_, m), _] = passes
    if workload == "orbits":
        assert m["integrals.base_integral.nodes"] == 0
        assert m["flow.integrate_geodesic.calls"] > 0
    else:
        assert m["flow.integrate_geodesic.calls"] == 0
    if workload == "quadrature":
        assert m["integrals.base_integral.nodes"] > 0
        assert m["integrals.fiber_integral.nodes"] > 0


def test_tracer_patches_every_binding_and_restores():
    import divflow
    from divflow import flow, geometry, integrals, runner

    original = geometry.metric_at
    tracer = Tracer()
    with tracer.installed():
        wrapped = geometry.metric_at
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert integrals.metric_at is wrapped and divflow.metric_at is wrapped
        assert flow.pairing_rate_form is geometry.pairing_rate_form
        assert runner.divergence is geometry.divergence
    assert geometry.metric_at is original and integrals.metric_at is original


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit(m["name"]) for m in BENCHMARK["per_layer"])
    assert len(set(run.PER_LAYER)) == len(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(BENCHMARK["command"] + ["--workload", "orbits", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
