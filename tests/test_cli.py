import argparse
import json
from pathlib import Path

import pytest

from divflow import cli
from divflow.runner import KINDS, ConfigError, ExperimentConfig, report_to_json, run

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


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
], ids=["unknown-param", "unknown-tolerance", "empty-radii", "karp-one-radius",
        "decay-one-radius", "negative-radius"])
def test_config_errors_exit_2_without_traceback(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("divflow: config error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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
