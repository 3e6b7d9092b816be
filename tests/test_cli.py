import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from divflow import cli, integrals, runner
from divflow.runner import KINDS, ConfigError, ExperimentConfig, report_to_json, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parser_subcommands_match_kind_table():
    groups = _subparsers(cli.build_parser())
    pairs = [(group, action) for group, sub in groups.items() if group != "zoo"
             for action in _subparsers(sub)]
    assert pairs == [(spec.group, spec.action) for spec in KINDS.values()]
    kinds = [cli._SUBCOMMAND_KINDS[pair] for pair in pairs]
    assert sorted(kinds) == sorted(KINDS)
    assert len(set(kinds)) == len(kinds)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_suite_configs_fit_their_schema(path):
    ExperimentConfig.from_dict(json.loads(path.read_text()))


def test_main_writes_the_runner_report(tmp_path):
    config = CONFIGS / "volume-ex4.json"
    out = tmp_path / "report.json"
    status = cli.main(["integrate", "volume", "--config", str(config), "--out", str(out)])
    assert status == 0
    expected = report_to_json(run(ExperimentConfig.from_dict(json.loads(config.read_text()))))
    assert out.read_text() == expected


@pytest.mark.parametrize("argv", [
    ["verify", "fiber-lemma", "--manifold", "torus", "--field", "torus:wave",
     "--param", "n_point=5"],
    ["verify", "fiber-lemma", "--manifold", "torus", "--field", "torus:wave",
     "--tolerance", "resid=1e-3"],
    ["diagnose", "cutoff", "--config", str(CONFIGS / "cutoff-ex3.json"),
     "--param", "radii=[]"],
    ["diagnose", "karp", "--config", str(CONFIGS / "karp-ex1.json"),
     "--param", "radii=[10.0]"],
    ["diagnose", "decay", "--config", str(CONFIGS / "decay-ex3.json"),
     "--param", "radii=[2.0]"],
    ["diagnose", "karp", "--config", str(CONFIGS / "karp-ex1.json"),
     "--param", "radii=[-1.0, 10.0]"],
    # a repeated value would pass the checks vacuously: one distinct horizon
    # leaves the hopf fit nothing to fit, one distinct radius nothing to decrease
    ["diagnose", "hopf", "--manifold", "torus", "--param", "horizons=[1,1,1,1]",
     "--param", "n=2"],
    ["diagnose", "karp", "--config", str(CONFIGS / "karp-ex1.json"),
     "--param", "radii=[5,5,10]"],
    ["integrate", "volume", "--manifold", "warp:ex4", "--field", "warp:ex4:Z"],
    ["verify", "fiber-lemma", "--manifold", "hyperbolic", "--field", "warp:ex4:Z"],
    # volume and divergence-integral use the ladder on a manifold with
    # shells and the chart box on one without
    ["integrate", "volume", "--manifold", "warp:ex4", "--param", "box=[[0,1],[0,1],[0,1]]"],
    ["integrate", "volume", "--manifold", "torus", "--param", "r0=5", "--param", "rungs=3"],
    ["diagnose", "karp", "--config", str(CONFIGS / "karp-ex1.json"), "--param", "expect=[1]"],
    ["potential", "monotone", "--param", "profile=[1]"],
    ["potential", "laplacian", "--manifold", "torus", "--param", "u=height"],
    ["potential", "laplacian", "--manifold", "torus", "--param", "u=[1]"],
], ids=["unknown-param", "unknown-tolerance", "empty-radii", "karp-one-radius",
        "decay-one-radius", "negative-radius", "repeated-horizons", "repeated-radii",
        "field-to-volume", "field-on-other-manifold", "box-on-ladder",
        "ladder-without-shell", "list-expect", "list-profile", "u-of-other-manifold",
        "list-u"])
def test_config_errors_exit_2_without_traceback(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divflow: config error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key,value", [
    ("seed", '"abc"'), ("seed", "null"), ("seed", "[1]"), ("seed", "1.7"), ("seed", "true"),
    ("params", "[1, 2]"), ("params", '"x"'), ("tolerances", "[1]"),
    ("tolerances", '{"rel_error": true}'), ("tolerances", '{"rel_error": 1e400}'),
], ids=["text-seed", "null-seed", "list-seed", "fractional-seed", "bool-seed",
        "list-params", "text-params", "list-tolerances", "bool-tolerance",
        "overflowing-tolerance"])
def test_malformed_config_file_values_exit_2(key, value, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(f'{{"manifold": "warp:ex4", "{key}": {value}}}')
    assert cli.main(["integrate", "volume", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divflow: config error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name,content", [
    ("", None), ("latin1.json", b'{"manifold": "torus\xe9"}'), ("missing.json", None),
], ids=["directory", "not-utf8", "missing"])
def test_unreadable_config_files_exit_2(name, content, tmp_path, capsys):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert cli.main(["verify", "fiber-lemma", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"divflow: config error: cannot read config file {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("out,writable", [
    ("missing/report.json", True), (".", True), ("report.json", False),
], ids=["missing-directory", "directory", "read-only-directory"])
def test_an_out_path_that_cannot_be_written_exits_2_before_any_work(
        out, writable, tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise AssertionError("the experiment ran")
    monkeypatch.setattr(cli, "run", fail)
    # a directory mode does not stop a superuser, so the read-only case
    # answers the access query itself
    monkeypatch.setattr(cli.os, "access", lambda path, mode: writable)
    path = tmp_path / out
    argv = ["verify", "fiber-lemma", "--manifold", "torus", "--field", "torus:wave",
            "--out", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divflow: config error: ")
    assert str(path) in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("raw", [
    {"kind": "recurrence", "manifold": "hyperbolic", "field": "hyperbolic:rotation"},
    {"kind": "fiber-lemma", "manifold": "hyperbolic",
     "fields": ["hyperbolic:conformal", "hyperbolic:rotation"]},
    {"kind": "potential-monotone", "manifold": "torus"},
    {"kind": "fiber-lemma", "manifold": "hyperbolic", "field": "hyperbolic:rotation",
     "fields": ["hyperbolic:conformal"]},
], ids=["field-to-fieldless-kind", "second-field", "manifold-to-monotone", "field-and-fields"])
def test_zoo_ids_the_kind_does_not_read_are_config_errors(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_an_empty_field_beside_fields_is_not_a_config_error():
    cfg = ExperimentConfig.from_dict({"kind": "fiber-lemma", "manifold": "hyperbolic",
                                      "field": None, "fields": ["hyperbolic:conformal"]})
    assert cfg.fields == ("hyperbolic:conformal",)


def test_a_config_is_validated_once_per_run(monkeypatch):
    calls = []
    check = ExperimentConfig.validate

    def counted(self):
        calls.append(self.kind)
        check(self)
    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    raw = json.loads((CONFIGS / "fiber-ex1.json").read_text())
    run(ExperimentConfig.from_dict(raw))
    assert calls == [raw["kind"]]


def test_a_config_built_directly_is_validated():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig(kind="nope")


def test_single_radius_is_rejected_only_with_expect():
    cfg = ExperimentConfig.from_dict({"kind": "cutoff", "manifold": "warp:ex3",
                                      "field": "warp:ex3:Ubar",
                                      "params": {"radii": [2.0]}})
    assert cfg.params["radii"] == [2.0]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "decay", "manifold": "warp:ex3",
                                    "field": "warp:ex3:Ubar",
                                    "params": {"radii": [2.0], "expect": "to-zero"}})


def test_hopf_defaults_to_the_manifold_radius_cap():
    report = run(ExperimentConfig(kind="hopf", manifold="hyperbolic",
                                  params={"n": 1, "horizons": [1.0, 2.0]}))
    assert report["results"]["radius_cap"] == 2.0


@pytest.mark.parametrize("argv", [
    ["verify", "fiber-lemma", "--manifold", "torus", "--field", "torus:wave",
     "--param", "n_points=0"],
    ["verify", "fiber-lemma", "--manifold", "torus", "--field", "torus:wave",
     "--param", "n_points=2.5"],
    ["verify", "fiber-lemma", "--manifold", "torus", "--field", "torus:wave",
     "--param", "n_points=true"],
    ["verify", "path-integral", "--config", str(CONFIGS / "path-ex4.json"),
     "--param", "n_orbits=-1"],
    ["verify", "fubini", "--config", str(CONFIGS / "fubini-ex1.json"), "--param", "n_mc=0"],
    ["integrate", "volume", "--config", str(CONFIGS / "volume-ex4.json"),
     "--param", "rungs=0"],
    ["integrate", "volume", "--config", str(CONFIGS / "volume-ex4.json"),
     "--param", "order=1"],
    ["diagnose", "decay", "--config", str(CONFIGS / "decay-ex3.json"),
     "--param", "n_samples=0"],
    ["diagnose", "recurrence", "--config", str(CONFIGS / "recurrence-torus.json"),
     "--param", "n=0"],
    ["potential", "monotone", "--config", str(CONFIGS / "monotone-mean-curvature.json"),
     "--param", "n_pairs=0"],
], ids=["zero-points", "fractional-points", "bool-points", "negative-orbits",
        "zero-mc", "zero-rungs", "order-one", "zero-samples", "zero-n", "zero-pairs"])
def test_bad_counts_exit_2_without_traceback(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divflow: config error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name,param", [
    ("karp-ex1", "expect=decy"),
    ("decay-ex3", "expect=shrink"),
    ("ladder-ex1", "expect=converges"),
    ("hopf-torus", "expect_label=recurrent"),
])
def test_unknown_expectation_is_rejected_before_any_work(name, param, capsys, monkeypatch):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    key, value = param.split("=")
    with pytest.raises(ConfigError, match=value):
        ExperimentConfig.from_dict(dict(raw, params={**raw["params"], key: value}))
    spec = KINDS[raw["kind"]]
    monkeypatch.setitem(KINDS, raw["kind"], spec._replace(run=_never_run))
    assert cli.main([spec.group, spec.action, "--config", str(CONFIGS / f"{name}.json"),
                     "--param", param]) == 2
    assert capsys.readouterr().err.startswith("divflow: config error: ")


def _never_run(*args, **kwargs):
    raise AssertionError("the experiment ran")


def test_expectation_tables_match_the_params():
    for kind, spec in KINDS.items():
        for value in spec.expect:
            key = "expect_label" if kind == "hopf" else "expect"
            assert key in spec.params
            if isinstance(spec.expect, dict):
                assert callable(spec.expect[value])


def test_domain_exit_becomes_a_failed_report(capsys):
    argv = ["verify", "fubini", "--manifold", "warp:ex2", "--field", "warp:ex2:Zbar",
            "--param", "box=[[-1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]", "--param", "n_mc=10"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert report["error"]["type"] == "DomainError"
    assert "outside chart domain" in report["error"]["message"]
    assert report["checks"] == [{"name": "completed", "value": "error", "threshold": "none",
                                 "comparator": "==", "passed": False}]


def test_karp_error_report_writes_the_checks_csv(capsys):
    # sinh(400)^2 overflows the hyperboloid metric at r = 200: a MetricError
    argv = ["diagnose", "karp", "--manifold", "hyperbolic", "--field", "hyperbolic:conformal",
            "--param", "radii=[200]", "--format", "csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("check,value,threshold,comparator,passed\n"
                            "completed,'error','none',==,False\n")


@pytest.mark.parametrize("error", ["TruncatedTrajectoryError", "DomainError",
                                   "MetricError", "DegenerateGradientError"])
def test_numerical_errors_become_failed_reports(error, monkeypatch, capsys):
    exc_type = next(e for e in runner.NUMERICAL_ERRORS if e.__name__ == error)

    def fail(cfg):
        raise exc_type("orbit truncated at t = 15.8 (step_limit)")

    monkeypatch.setitem(KINDS, "path-integral", KINDS["path-integral"]._replace(run=fail))
    assert cli.main(["verify", "path-integral", "--config",
                     str(CONFIGS / "path-hyperbolic.json")]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["error"] == {"type": error,
                               "message": "orbit truncated at t = 15.8 (step_limit)"}
    assert report["passed"] is False


@pytest.mark.parametrize("manifold,cap", [("warp:ex2", 8), ("warp:ex2", 20),
                                         ("warp:ex4", 20), ("warp:ex4", 400)])
@pytest.mark.parametrize("action", ["hopf", "recurrence"])
def test_liouville_draws_reach_every_cap(action, manifold, cap, capsys):
    # caps where a rejection envelope from a probe grid fell below the density
    argv = ["diagnose", action, "--manifold", manifold, "--param", f"radius_cap={cap}",
            "--param", "n=2"] + (["--param", "t_max=5"] if action == "recurrence" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert "error" not in report
    assert report["passed"] is True


def test_path_integral_on_the_flat_torus_bounds_the_carried_integral(capsys):
    # Gamma = 0, so the spray's own error estimate vanishes: only the
    # carried rate in the error norm keeps the steps from growing tenfold
    argv = ["verify", "path-integral", "--manifold", "torus", "--field", "torus:wave",
            "--param", "T=1", "--param", "n_orbits=2"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["results"]["max_residual"] < 1e-9


@pytest.mark.parametrize("cap", [400, 800])
def test_ex4_balls_past_the_cosh_overflow_keep_their_volume(cap, capsys):
    # sinh r / cosh(r)^2 overflows past r = 355 and is NaN past r = 710,
    # where the ball's volume is still 4 pi^2
    argv = ["diagnose", "hopf", "--manifold", "warp:ex4", "--param", f"radius_cap={cap}",
            "--param", "n=2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 0
    assert "error" not in json.loads(capsys.readouterr().out)


def test_a_ball_of_infinite_volume_becomes_a_failed_report(capsys):
    # sinh overflows long before r = 1000: the ball's volume is not finite
    argv = ["diagnose", "hopf", "--manifold", "hyperbolic", "--param", "radius_cap=1000",
            "--param", "n=2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["error"]["type"] == "DomainError"
    assert "cap 1000" in report["error"]["message"]
    assert report["passed"] is False


def test_a_frame_lost_to_round_off_becomes_a_failed_report(capsys):
    # the ball's mass sits at its rim: the Liouville draws land past
    # r = 19, where the hyperboloid chart's round-off leaves the
    # Gram-Schmidt frame that seeds their velocities off orthonormal
    argv = ["diagnose", "hopf", "--manifold", "hyperbolic", "--param", "radius_cap=40",
            "--param", "n=3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["error"]["type"] == "MetricError"
    assert "orthonormal frame lost to round-off" in report["error"]["message"]
    assert report["checks"] == [{"name": "completed", "value": "error", "threshold": "none",
                                 "comparator": "==", "passed": False}]
    assert report["passed"] is False


@pytest.mark.parametrize("argv, error", [
    (["diagnose", "fx-ladder", "--manifold", "warp:ex4", "--field", "warp:ex4:Z",
      "--param", "rungs=7"],
     {"type": "MetricError",
      "message": "warp:ex4: orthonormal frame lost to round-off at "
                 "array([ 1.70631569e+08, -5.18015902e+07,  2.94744707e-01])"}),
    (["diagnose", "karp", "--manifold", "hyperbolic", "--field", "hyperbolic:rotation",
      "--param", "radii=[200]"],
     {"type": "MetricError",
      "message": "hyperbolic: g(X, X) not finite at "
                 "array([4.59478187e+86, 5.76205592e+85])"}),
    (["diagnose", "karp", "--manifold", "revolution:1/(1+x^2)", "--field", "revolution:W",
      "--param", "radii=[1e200]"],
     {"type": "MetricError",
      "message": "revolution:1/(1+x^2): g(X, X) not finite at "
                 "array([1.00000000e+200, 1.24753095e-001])"}),
])
def test_a_far_field_failure_names_the_first_point_of_the_first_pass(argv, error, capsys):
    # every rung or annulus goes to the integrand in one stack, in the order
    # of one call per rung, patch and pass, so the report names the point
    # that one call per pass meets first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["error"] == error


def test_an_observable_underflow_becomes_a_failed_report(capsys):
    # e^(-3r) underflows to 0 past r = 248.4
    argv = ["diagnose", "hopf", "--manifold", "warp:ex3", "--param", "radius_cap=300",
            "--param", "n=3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["error"]["type"] == "DomainError"
    assert report["error"]["message"].startswith(
        "observable must be strictly positive; it is 0.0 at state 0")
    assert report["checks"] == [{"name": "completed", "value": "error", "threshold": "none",
                                 "comparator": "==", "passed": False}]
    assert report["passed"] is False


@pytest.mark.parametrize("argv", [
    ["diagnose", "hopf", "--manifold", "revolution:1/(1+x^2)", "--param", "radius_cap=5000",
     "--param", "n=2"],
    ["diagnose", "karp", "--manifold", "revolution:1/(1+x^2)", "--field", "revolution:W",
     "--param", "radii=[3000]"],
    ["integrate", "volume", "--manifold", "revolution:1/(1+x^2)", "--param", "rungs=14"],
], ids=["hopf", "karp", "volume"])
def test_far_revolution_runs_complete(argv, capsys):
    # radii past |x| = 4200, where a tabulated surrogate would have ended
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert "error" not in report and report["results"]


@pytest.mark.parametrize("argv, message", [
    (["integrate", "volume", "--manifold", "warp:ex4", "--param", "rungs=600"],
     "rungs 600 and order 16: warp:ex4: "),
    (["integrate", "volume", "--manifold", "revolution:1/(1+x^2)", "--param", "rungs=600"],
     "rungs 600 and order 16: revolution:1/(1+x^2): "),
    # the rungs past the largest float are inf
    (["diagnose", "fx-ladder", "--manifold", "hyperbolic", "--field", "hyperbolic:rotation",
      "--param", "r0=1e300", "--param", "rungs=40", "--param", "order=2"],
     "rungs 40 and order 2: hyperbolic: "),
    (["diagnose", "fx-ladder", "--manifold", "hyperbolic", "--field", "hyperbolic:rotation",
      "--param", "rungs=2000", "--param", "order=2"], "rungs 2000 and order 2: hyperbolic: "),
    (["integrate", "volume", "--manifold", "torus", "--param", "order=2000"],
     "box and order 2000: torus(L=1): "),
    # karp's annuli are one call, at its default order 16
    (["diagnose", "karp", "--manifold", "warp:ex2", "--field", "warp:ex2:Zbar",
      "--param", "radii=[1e200]"], "radii and order 16: warp:ex2: "),
    (["diagnose", "karp", "--manifold", "warp:ex2", "--field", "warp:ex2:Zbar",
      "--param", "order=2000"], "radii and order 2000: warp:ex2: "),
    # cutoff's B(2r) and annulus are two calls per radius, at default order 12
    (["diagnose", "cutoff", "--manifold", "warp:ex3", "--field", "warp:ex3:Ubar",
      "--param", "radii=[1e200]"], "radii and order 12: warp:ex3: "),
    (["diagnose", "cutoff", "--manifold", "warp:ex3", "--field", "warp:ex3:Ubar",
      "--param", "order=2000"], "radii and order 2000: warp:ex3: "),
    # fubini's iterated side is sm_integral's, at order 12
    (["verify", "fubini", "--manifold", "torus", "--field", "torus:wave",
      "--param", "box=[[0,1e300],[0,1e300]]"], "box and order 12: torus(L=1): "),
])
def test_a_quadrature_past_the_node_budget_exits_2_before_any_node(argv, message, capsys,
                                                                  monkeypatch):
    def fail(patch, order):
        raise AssertionError("a node array was built")

    monkeypatch.setattr(integrals, "_tensor_nodes", fail)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"divflow: config error: {message}the tensor quadrature "
                            f"builds more than {integrals.MAX_TENSOR_NODES:,} nodes\n")


def test_reports_write_booleans_as_booleans():
    assert json.dumps(runner._jsonable(
        {"a": True, "b": [False, 1, np.int64(2)], "c": (False, 0.5)})) == (
        '{"a": true, "b": [false, 1, 2], "c": [false, 0.5]}')
    report = run(ExperimentConfig.from_dict(
        json.loads((CONFIGS / "ladder-ex1.json").read_text())))
    assert report["results"]["ladder"]["converged"] is True
    (check,) = report["checks"]
    assert (check["name"], check["value"], check["threshold"]) == ("ladder_converged",
                                                                    True, True)
    assert '"converged": true' in report_to_json(report)


def test_other_exceptions_still_propagate(monkeypatch):
    def fail(cfg):
        raise ZeroDivisionError("a program fault, not a numerical verdict")

    monkeypatch.setitem(KINDS, "path-integral", KINDS["path-integral"]._replace(run=fail))
    with pytest.raises(ZeroDivisionError):
        run(ExperimentConfig.from_dict(json.loads((CONFIGS / "path-hyperbolic.json").read_text())))


def _suite_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_whole_manifest_passes_with_equal_reports_on_a_second_run(tmp_path):
    texts = []
    for attempt in (1, 2):
        out = tmp_path / f"run-{attempt}"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_suite.py"), "--out-dir", str(out)],
            capture_output=True, text=True, env=_suite_env(), timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        names = json.loads((ROOT / "scripts" / "suite_manifest.json").read_text())["experiments"]
        assert [e["name"] for e in summary["experiments"]] == names
        reports = {name: (out / f"{name}.json").read_text() for name in names}
        for text in reports.values():
            assert all(c["passed"] for c in json.loads(text)["checks"])
        texts.append(reports)
    assert texts[0] == texts[1]


def test_suite_only_with_an_unknown_name_exits_2_and_names_it(tmp_path):
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suite.py"), "--out-dir", str(out),
         "--only", "fiber-ex1", "--only", "ladder-ex5"],
        capture_output=True, text=True, env=_suite_env(), timeout=60)
    assert proc.returncode == 2
    assert "ladder-ex5" in proc.stderr and "fiber-ex1" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_suite_runs_from_a_clean_checkout(tmp_path):
    # no PYTHONPATH and no installed package: the script finds src itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suite.py"), "--only", "fiber-ex1",
         "--out-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads((out / "fiber-ex1.json").read_text())["passed"] is True


def test_suite_checks_every_config_before_its_first_report(tmp_path):
    configs = tmp_path / "configs"
    shutil.copytree(CONFIGS, configs)
    path = configs / "path-hyperbolic.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), field="warp:ex4:Z")))
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suite.py"), "--out-dir", str(out),
         "--config-dir", str(configs)],
        capture_output=True, text=True, env=_suite_env(), timeout=600)
    assert proc.returncode == 2
    last = proc.stderr.splitlines()[-1]
    assert "error: path-hyperbolic: " in last and "warp:ex4:Z" in last
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--seed", "-1"], "seed must be nonnegative"),
    (["--config-dir", "no-such-dir"], "No such file or directory"),
], ids=["negative-seed", "missing-config"])
def test_suite_config_error_exits_2_before_any_report(args, message, tmp_path):
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_suite.py"), "--out-dir", str(out)] + args,
        capture_output=True, text=True, env=_suite_env(), timeout=60, cwd=tmp_path)
    assert proc.returncode == 2
    first = json.loads((ROOT / "scripts" / "suite_manifest.json").read_text())["experiments"][0]
    last = proc.stderr.splitlines()[-1]
    assert f"error: {first}: " in last and message in last
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "path-integral", "--config", str(CONFIGS / "path-ex4.json"), "--param", "T=0"],
    ["verify", "path-integral", "--config", str(CONFIGS / "path-ex4.json"), "--param", "T=abc"],
    ["diagnose", "recurrence", "--manifold", "torus", "--param", "eps=-1"],
    ["diagnose", "recurrence", "--manifold", "torus", "--param", "t_min=5",
     "--param", "t_max=2"],
    ["diagnose", "recurrence", "--manifold", "torus", "--param", "radius_cap=2"],
    ["diagnose", "hopf", "--config", str(CONFIGS / "hopf-torus.json"), "--param", "horizons=[]"],
    ["diagnose", "hopf", "--config", str(CONFIGS / "hopf-torus.json"), "--param", "horizons=5"],
    ["diagnose", "cutoff", "--config", str(CONFIGS / "cutoff-ex3.json"), "--param", "sigma=abc"],
    ["diagnose", "fx-ladder", "--config", str(CONFIGS / "ladder-ex1.json"), "--param", "r0=-1"],
    ["verify", "fubini", "--config", str(CONFIGS / "fubini-ex1.json"), "--param", "box=[[0,1]]"],
    ["verify", "fubini", "--config", str(CONFIGS / "fubini-ex1.json"), "--param", "box=abc"],
    ["potential", "monotone", "--param", "dim=0"],
    ["diagnose", "karp", "--manifold", "torus", "--field", "torus:wave"],
    ["diagnose", "cutoff", "--manifold", "torus", "--field", "torus:wave"],
    ["diagnose", "fx-ladder", "--manifold", "torus", "--field", "torus:wave"],
    ["diagnose", "decay", "--manifold", "torus", "--field", "torus:wave"],
], ids=["zero-T", "text-T", "negative-eps", "t_min-above-t_max", "cap-without-shell",
        "empty-horizons", "scalar-horizons", "text-sigma", "negative-r0", "short-box",
        "text-box", "zero-dim", "karp-without-shell", "cutoff-without-shell",
        "fx-ladder-without-shell", "decay-without-shell"])
def test_bad_reals_exit_2_without_traceback(argv, capsys, monkeypatch):
    for work in ("sample_states", "sample_liouville", "recurrence_fraction",
                 "fubini_consistency", "cutoff_estimate", "rate_integrability_ladder",
                 "monotone_form", "karp_sequence", "x_decay_at_infinity"):
        monkeypatch.setattr(runner, work, _never_run)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divflow: config error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1e-7", "1e-300"])
def test_recurrence_past_the_return_grid_budget_exits_2(eps):
    # eps 1e-7 would scan 4e9 return-grid points per chunk, and at 1e-300
    # the point count overflows an int64; both are config errors: one line
    # on stderr naming eps and t_max, in a fresh process so that a numpy
    # warning would show there too
    proc = subprocess.run(
        [sys.executable, "-m", "divflow.cli", "diagnose", "recurrence", "--manifold", "torus",
         "--param", "n=2", "--param", f"eps={eps}"],
        capture_output=True, text=True, env=_suite_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"divflow: config error: eps {float(eps)!r} and t_max 1000.0 ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_benchmark_workloads_fit_their_schema():
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    for configs in workloads.values():
        for raw in configs.values():
            ExperimentConfig.from_dict(raw)


def test_runaway_orbit_reports_its_speed_drift(capsys):
    # along these orbits the hyperboloid graph chart's coordinates grow like
    # e^t until the spray's round-off drifts the speed off 1, long before a
    # step fails; the drift check stops them early
    argv = ["verify", "path-integral", "--manifold", "hyperbolic",
            "--field", "hyperbolic:conformal", "--param", "T=40", "--param", "n_orbits=3"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["error"]["type"] == "TruncatedTrajectoryError"
    assert report["error"]["message"].endswith("(speed_drift)")


def test_the_program_imports_no_scipy():
    code = ("import sys, divflow.runner, divflow.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_suite_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
