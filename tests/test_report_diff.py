"""``scripts/report_diff.py`` is the tool behind every byte-identity check
of the suite reports, so its verdicts are pinned here on small report
directories."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "report_diff.py"

REPORT = {
    "kind": "volume",
    "passed": True,
    "checks": [{"name": "volume_rel_err", "value": 1e-4, "threshold": 1e-3,
                "comparator": "<=", "passed": True}],
    "result": {"value": 39.47841760435743, "nodes": 4096, "label": "finite"},
}


def _write(directory: Path, reports: dict) -> Path:
    directory.mkdir()
    for name, report in reports.items():
        (directory / f"{name}.json").write_text(json.dumps(report, indent=2))
    return directory


def _diff(tmp_path, old: dict, new: dict):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(_write(tmp_path / "old", old)),
         str(_write(tmp_path / "new", new))],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def _changed(**result) -> dict:
    return dict(REPORT, result=dict(REPORT["result"], **result))


def test_identical_directories_exit_0(tmp_path):
    status, out = _diff(tmp_path, {"a": REPORT, "b": REPORT}, {"a": REPORT, "b": REPORT})
    assert status == 0
    assert out.splitlines() == ["a.json: no numeric change", "b.json: no numeric change"]


def test_changed_float_prints_path_and_relative_change(tmp_path):
    old = REPORT["result"]["value"]
    new = old * (1.0 + 2e-12)
    status, out = _diff(tmp_path, {"a": REPORT}, {"a": _changed(value=new)})
    assert status == 0
    line, = out.splitlines()
    assert line.startswith("a.json: rel ") and line.endswith(" at result.value")
    rel = float(line.split()[2])
    assert rel == float(f"{abs(new - old) / new:.3g}")


def test_largest_absolute_change_printed_beside_largest_relative(tmp_path):
    # a round-off residual near zero against a value that really moved
    old = REPORT["result"]["value"]
    new = old * (1.0 + 1e-10)
    before = dict(REPORT, checks=[dict(REPORT["checks"][0], value=1.0e-16)])
    after = dict(_changed(value=new), checks=[dict(REPORT["checks"][0], value=1.2e-16)])
    status, out = _diff(tmp_path, {"a": before}, {"a": after})
    assert status == 0
    line, = out.splitlines()
    first, second = line.split("; ")
    assert first.startswith("a.json: rel 0.167 ") and first.endswith(" at checks[0].value")
    assert second.startswith("abs ") and second.endswith(" at result.value")
    fields = second.split()
    assert float(fields[1]) == float(f"{new - old:.3g}")
    assert float(fields[3]) == float(f"{(new - old) / new:.3g}")


def test_flipped_check_exits_1(tmp_path):
    flipped = dict(REPORT, passed=False,
                   checks=[dict(REPORT["checks"][0], passed=False)])
    status, out = _diff(tmp_path, {"a": REPORT}, {"a": flipped})
    assert status == 1
    assert "a.json: FLIPPED passed: True -> False" in out
    assert "a.json: FLIPPED check volume_rel_err: True -> False" in out


def test_changed_string_exits_1(tmp_path):
    status, out = _diff(tmp_path, {"a": REPORT}, {"a": _changed(label="infinite")})
    assert status == 1
    assert "a.json: DIFFERS result.label: 'finite' -> 'infinite'" in out


def test_report_on_one_side_only_exits_1(tmp_path):
    status, out = _diff(tmp_path, {"a": REPORT, "b": REPORT}, {"a": REPORT})
    assert status == 1
    assert "b.json: only in old" in out.splitlines()


def test_closed_pipe_ends_quietly(tmp_path):
    # report_diff.py OLD NEW | head: the reader takes one line and closes the
    # pipe while some 250 kB of lines are still to come
    labels = [f"label {i}" for i in range(5000)]
    old = _write(tmp_path / "old", {"a": dict(REPORT, labels=labels)})
    new = _write(tmp_path / "new", {"a": dict(REPORT, labels=labels[::-1])})
    proc = subprocess.Popen([sys.executable, str(SCRIPT), str(old), str(new)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert first == "a.json: no numeric change\n"
    assert err == ""
