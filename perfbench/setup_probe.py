"""Set-up time of one fresh interpreter: import divflow and resolve every
zoo manifold and field a workload names, which is what must happen before
its first experiment can start.

Usage: python3 perfbench/setup_probe.py ID [ID ...]
where each ID is "manifold:<zoo id>" or "field:<zoo id>".  Prints the
elapsed seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import divflow.runner  # noqa: E402,F401
from divflow import zoo  # noqa: E402

for ident in sys.argv[1:]:
    kind, zoo_id = ident.split(":", 1)
    (zoo.manifold if kind == "manifold" else zoo.vector_field)(zoo_id)
print(repr(time.perf_counter() - T0))
