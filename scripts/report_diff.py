#!/usr/bin/env python3
"""Compare two directories of divflow JSON reports, file by file.

For each report present in both directories it prints the largest relative
change among the numeric fields, with the field's path and its absolute
change; then, when another field holds it, the largest absolute change, with
its path and relative change (a round-off residual near zero has the largest
relative change, a moved value the largest absolute one); and then every
non-numeric difference (strings, booleans, nulls, keys, list lengths) and
every flipped check verdict.  A report present in only one directory is a
non-numeric difference.

Usage:
    python scripts/report_diff.py OLD_DIR NEW_DIR

The relative change of two numbers a, b is |a - b| / max(|a|, |b|), so a
field that moves off zero reads 1.  Exit status 0 when only numeric values
changed, 1 on a non-numeric difference or a flipped check, 2 on bad usage.
A reader that closes the pipe early (``report_diff.py OLD NEW | head``) ends
it quietly, with status 141, as a shell reports a filter ended by SIGPIPE.
"""

import argparse
import json
import os
import sys
from pathlib import Path


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(old, new, path="") -> tuple[list, list]:
    """(numeric changes as (rel, abs, path), non-numeric differences)."""
    if _is_number(old) and _is_number(new):
        if old == new:
            return [], []
        diff = abs(new - old)
        return [(diff / max(abs(old), abs(new)), diff, path)], []
    if isinstance(old, dict) and isinstance(new, dict):
        numeric, other = [], []
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in old or key not in new:
                other.append(f"{sub}: only in {'new' if key in new else 'old'}")
                continue
            n, o = compare(old[key], new[key], sub)
            numeric += n
            other += o
        return numeric, other
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [], [f"{path}: length {len(old)} -> {len(new)}"]
        numeric, other = [], []
        for i, (a, b) in enumerate(zip(old, new)):
            n, o = compare(a, b, f"{path}[{i}]")
            numeric += n
            other += o
        return numeric, other
    if type(old) is type(new) and old == new:
        return [], []
    return [], [f"{path}: {old!r} -> {new!r}"]


def verdict_flips(old: dict, new: dict) -> list[str]:
    flips = []
    if old.get("passed") != new.get("passed"):
        flips.append(f"passed: {old.get('passed')!r} -> {new.get('passed')!r}")
    before = {c["name"]: c["passed"] for c in old.get("checks", [])}
    for c in new.get("checks", []):
        if c["name"] in before and before[c["name"]] != c["passed"]:
            flips.append(f"check {c['name']}: {before[c['name']]!r} -> {c['passed']!r}")
    return flips


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    for d in (args.old, args.new):
        if not d.is_dir():
            ap.error(f"not a directory: {d}")

    names = sorted({p.name for p in args.old.glob("*.json")}
                   | {p.name for p in args.new.glob("*.json")})
    bad = False
    for name in names:
        a, b = args.old / name, args.new / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {'new' if b.is_file() else 'old'}")
            bad = True
            continue
        old, new = json.loads(a.read_text()), json.loads(b.read_text())
        numeric, other = compare(old, new)
        flips = verdict_flips(old, new) if isinstance(old, dict) and isinstance(new, dict) else []
        if numeric:
            rel, diff, path = min(numeric, key=lambda t: (-t[0], t[2]))
            line = f"{name}: rel {rel:.3g} abs {diff:.3g} at {path}"
            rel2, diff2, path2 = min(numeric, key=lambda t: (-t[1], t[2]))
            if path2 != path:
                line += f"; abs {diff2:.3g} rel {rel2:.3g} at {path2}"
            print(line)
        else:
            print(f"{name}: no numeric change")
        for line in other:
            print(f"{name}: DIFFERS {line}")
        for line in flips:
            print(f"{name}: FLIPPED {line}")
        bad |= bool(other or flips)
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # nothing more can be written; point stdout at devnull so that the
        # interpreter's own flush at exit does not complain either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
