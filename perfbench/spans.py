"""Spans and work counts at the boundaries of divflow's layers, recorded
from outside the package.

``Tracer.installed()`` wraps each public function listed in ``LAYERS`` in
every ``divflow`` module namespace that binds it: ``integrals``, ``flow``,
``diagnostics`` and ``runner`` import geometry functions by name, so
patching only the defining module would miss their calls.  Spans are kept in
flat in-memory arrays (name, parent, start, end) and turned into per-layer
metrics only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# layer module -> public functions whose calls are spans
LAYERS = {
    "geometry": ("metric_at", "christoffel", "orthonormal_frame",
                 "volume_density", "divergence", "field_norm",
                 "pairing_rate_form"),
    "integrals": ("fiber_integral", "base_integral", "sm_integral",
                  "fubini_consistency", "sample_states", "sample_liouville"),
    "flow": ("integrate_geodesic", "birkhoff_integral", "first_return",
             "path_integral_identity_residual"),
    "diagnostics": ("karp_sequence", "cutoff_estimate",
                    "rate_integrability_ladder", "x_decay_at_infinity",
                    "recurrence_fraction", "hopf_probe"),
    "potential": ("phi_laplacian", "laplace_beltrami", "monotone_form"),
    "runner": ("run",),
}

# counters recorded by STATS below; each must repeat exactly for a given
# (workload, seed), as must every ".calls"
COUNTERS = ("integrals.fiber_integral.nodes", "integrals.base_integral.nodes",
            "integrals.fubini_consistency.nodes",
            "integrals.sample_liouville.states",
            "flow.integrate_geodesic.nfev",
            "flow.integrate_geodesic.steps_accepted",
            "flow.integrate_geodesic.steps_rejected",
            "flow.integrate_geodesic.truncated")


def _fiber_nodes(tracer, args, kwargs, out):
    from divflow import integrals
    rule = kwargs.get("rule", args[3] if len(args) > 3 else None)
    if rule is None:
        rule = integrals.fiber_rule(args[0].dim)
    tracer.add("integrals.fiber_integral.nodes", len(rule.weights))


def _base_nodes(tracer, args, kwargs, out):
    tracer.add("integrals.base_integral.nodes", out.nodes)


def _fubini_nodes(tracer, args, kwargs, out):
    tracer.add("integrals.fubini_consistency.nodes", out["nodes"])


def _liouville_states(tracer, args, kwargs, out):
    tracer.add("integrals.sample_liouville.states", len(out))


def _geodesic_stats(tracer, args, kwargs, out):
    pre = "flow.integrate_geodesic."
    tracer.add(pre + "nfev", out.stats.nfev)
    tracer.add(pre + "steps_accepted", out.stats.n_accepted)
    tracer.add(pre + "steps_rejected", out.stats.n_rejected_est)
    tracer.add(pre + "truncated", int(out.truncated))
    tracer.max_speed_drift = max(tracer.max_speed_drift, out.max_speed_drift)


# work counts read from a call's arguments and result; their cost is kept
# out of every span by pausing the trace clock
STATS = {
    "integrals.fiber_integral": _fiber_nodes,
    "integrals.base_integral": _base_nodes,
    "integrals.fubini_consistency": _fubini_nodes,
    "integrals.sample_liouville": _liouville_states,
    "flow.integrate_geodesic": _geodesic_stats,
}


class Tracer:
    """One traced pass's spans and counters."""

    def __init__(self):
        self.names: list[str] = [f"{mod}.{fn}" for mod, fns in LAYERS.items()
                                 for fn in fns]
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._paused = 0.0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.max_speed_drift = 0.0

    def _clock(self) -> float:
        return time.perf_counter() - self._paused

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def _wrap(self, name_id: int, fn):
        stat = STATS.get(self.names[name_id])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._start)
            self._name.append(name_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._start.append(self._clock())
            self._end.append(0.0)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end[idx] = self._clock()
                self._stack.pop()
            if stat is not None:
                t0 = time.perf_counter()
                stat(self, args, kwargs, out)
                self._paused += time.perf_counter() - t0
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every divflow namespace that binds a traced function, and
        restore the originals on exit."""
        for mod_name in LAYERS:
            importlib.import_module(f"divflow.{mod_name}")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "divflow" or k.startswith("divflow."))]
        patched = []
        try:
            for name_id, qual in enumerate(self.names):
                mod_name, fn_name = qual.split(".")
                original = getattr(sys.modules[f"divflow.{mod_name}"], fn_name)
                wrapper = self._wrap(name_id, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        patched.append((mod, fn_name, original))
            yield self
        finally:
            for mod, fn_name, original in reversed(patched):
                setattr(mod, fn_name, original)

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, plus the recorded counters.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        names = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        out = {}
        for i, qual in enumerate(self.names):
            out[f"{qual}.calls"] = int(calls[i])
            out[f"{qual}.self_s"] = float(self_s[i])
        out.update(self.counts)
        steps = (self.counts["flow.integrate_geodesic.steps_accepted"]
                 + self.counts["flow.integrate_geodesic.steps_rejected"])
        out["flow.integrate_geodesic.reject_ratio"] = (
            self.counts["flow.integrate_geodesic.steps_rejected"] / steps
            if steps else 0.0)
        out["flow.max_speed_drift"] = self.max_speed_drift
        return out

    def spans(self) -> dict[str, np.ndarray]:
        """The raw spans, one row each: name id, parent index, start, end."""
        return {"names": np.array(self.names),
                "name": np.frombuffer(self._name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self._start).copy(),
                "end": np.frombuffer(self._end).copy()}
