"""Configuration-driven experiment harness.

One experiment per invocation: a config selects zoo objects, parameters and
tolerances; ``run`` produces a deterministic report document given
(config, seed).  A numerical failure inside an experiment (a truncated
orbit, a point outside the chart, a bad metric, a degenerate gradient, a
sampler envelope below the density) becomes a report with a failed
``completed`` check and an ``error`` entry.  Exit-status policy is the
caller's job (the CLI maps check failure to 1 and config errors to 2).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .geometry import (
    DomainError,
    MetricError,
    divergence,
    pairing_rates,
)
from .integrals import (
    ChartBox,
    SamplingError,
    base_integral,
    fiber_integral,
    fiber_rule,
    fubini_consistency,
    ladder_integral,
    omega,
    sample_box_points,
    sample_liouville,
    sample_states,
)
from .flow import TruncatedTrajectoryError, path_integral_identity_residual
from .diagnostics import (
    HOPF_LABELS,
    cutoff_estimate,
    hopf_probe,
    karp_sequence,
    rate_integrability_ladder,
    recurrence_fraction,
    x_decay_at_infinity,
)
from .potential import (
    DegenerateGradientError,
    laplace_beltrami,
    monotone_form,
    phi_laplacian,
    shipped_profiles,
    scalar_test_functions,
)
from . import zoo


class ConfigError(ValueError):
    """Malformed configuration or unresolvable ids."""


# numerical failures that end an experiment with an error report
NUMERICAL_ERRORS = (TruncatedTrajectoryError, DomainError, MetricError,
                    DegenerateGradientError, SamplingError)

# params that count something, with their least valid value
COUNTS = {"n_points": 1, "n_orbits": 1, "n_mc": 1, "rungs": 1, "n": 1,
          "n_samples": 1, "n_pairs": 1, "order": 2, "dim": 1}

# real params, each with what its finite value must be and the test for it
_POSITIVE = ("a finite number > 0", lambda v: v > 0)
_NONNEGATIVE = ("a finite number >= 0", lambda v: v >= 0)
_FRACTION = ("a number in [0, 1]", lambda v: 0 <= v <= 1)
REALS = {"T": _POSITIVE, "r0": _POSITIVE, "eps": _POSITIVE, "t_max": _POSITIVE,
         "radius_cap": _POSITIVE, "t_min": _NONNEGATIVE, "sigma": _NONNEGATIVE,
         "min_fraction": _FRACTION, "max_fraction": _FRACTION,
         "min_label_fraction": _FRACTION,
         "expected": ("a finite number", lambda v: True)}


def _is_finite(value) -> bool:
    """A number (not a bool) that converts to a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass
class ExperimentConfig:
    kind: str
    manifold: Optional[str] = None
    fields: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(d) - {"kind", "manifold", "field", "fields", "params",
                            "tolerances", "seed"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        fields_ = d.get("fields")
        if fields_ is None:
            fields_ = [d["field"]] if d.get("field") else []
        cfg = cls(kind=d.get("kind"), manifold=d.get("manifold"),
                  fields=tuple(fields_), params=dict(d.get("params", {})),
                  tolerances=dict(d.get("tolerances", {})),
                  seed=int(d.get("seed", 0)))
        cfg.validate()
        return cfg

    def validate(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        spec = KINDS[self.kind]
        for what, given, known in (("params", self.params, spec.params),
                                   ("tolerances", self.tolerances, spec.tolerances)):
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ConfigError(f"unknown {what} for {self.kind}: {unknown}; "
                                  f"known: {sorted(known)}")
        for key, least in COUNTS.items():
            value = self.params.get(key, least)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
        for key, (what, ok) in REALS.items():
            value = self.params.get(key)
            if key in self.params and not (_is_finite(value) and ok(value)):
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        for key in ("expect", "expect_label"):
            value = self.params.get(key)
            if value is not None and value not in spec.expect:
                raise ConfigError(f"unknown {self.kind} {key} {value!r}; "
                                  f"known: {list(spec.expect)}")
        for key in ("radii", "horizons"):
            values = self.params.get(key)
            if key in self.params and not (
                    isinstance(values, (list, tuple)) and values
                    and all(_is_finite(v) and v > 0 for v in values)):
                raise ConfigError(
                    f"{key} must be a nonempty list of positive numbers, got {values!r}")
            if key in self.params and len(set(values)) < len(values):
                raise ConfigError(f"{key} must be distinct, got {values!r}")
        if ("radii" in self.params and len(self.params["radii"]) < 2
                and self.params.get("expect") is not None):
            raise ConfigError(f"{self.kind} with an expect needs at least two radii")
        if self.manifold is not None and self.manifold not in zoo.MANIFOLD_IDS:
            raise ConfigError(f"unknown manifold id {self.manifold!r}")
        for fid in self.fields:
            if fid not in zoo.FIELD_IDS:
                raise ConfigError(f"unknown field id {fid!r}")
        for name, value in self.tolerances.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"tolerance {name!r} must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "manifold": self.manifold,
            "fields": list(self.fields),
            "params": _jsonable(self.params),
            "tolerances": _jsonable(self.tolerances),
            "seed": self.seed,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    raise ConfigError(f"value {obj!r} is not JSON-serializable")


def _check(name: str, value, threshold, comparator: str) -> dict:
    ops = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
           "==": lambda a, b: a == b}
    passed = bool(ops[comparator](value, threshold)) if value is not None else False
    return {"name": name, "value": _jsonable(value),
            "threshold": _jsonable(threshold), "comparator": comparator,
            "passed": passed}


def _manifold(cfg: ExperimentConfig):
    if cfg.manifold is None:
        raise ConfigError(f"kind {cfg.kind!r} needs a manifold id")
    return zoo.manifold(cfg.manifold)


def _resolve_pair(cfg: ExperimentConfig):
    m = _manifold(cfg)
    if not cfg.fields:
        raise ConfigError(f"kind {cfg.kind!r} needs a field id")
    f = zoo.vector_field(cfg.fields[0])
    if zoo.field_manifold_id(cfg.fields[0]) != cfg.manifold:
        raise ConfigError(
            f"field {cfg.fields[0]!r} lives on {zoo.field_manifold_id(cfg.fields[0])!r}, "
            f"not on {cfg.manifold!r}")
    return m, f


def _box(cfg: ExperimentConfig, m) -> ChartBox:
    """The config's chart box, or else the manifold's sample box."""
    box = cfg.params.get("box")
    if box is None:
        return ChartBox(m.sample_box)
    if not (isinstance(box, (list, tuple)) and len(box) == m.dim and all(
            isinstance(b, (list, tuple)) and len(b) == 2
            and all(_is_finite(v) for v in b) and b[0] < b[1]
            for b in box)):
        raise ConfigError(f"box must be {m.dim} [lo, hi] pairs of finite numbers "
                          f"with lo < hi, got {box!r}")
    return ChartBox(tuple(tuple(b) for b in box))


def _need_shells(cfg: ExperimentConfig, m, what: str):
    """Refuse, before any work, a manifold without the shells ``what`` needs."""
    if m.shell is None:
        raise ConfigError(f"{what} needs radial shells, which {cfg.manifold!r} lacks")


def _radius_cap(cfg: ExperimentConfig, m):
    """The config's radius cap, or else the manifold's."""
    cap = cfg.params.get("radius_cap", m.radius_cap)
    if cap is not None:
        _need_shells(cfg, m, "radius_cap")
    return cap


# ---------------------------------------------------------------------------
# experiment kinds


def _run_fiber_lemma(cfg):
    m, f = _resolve_pair(cfg)
    n_points = int(cfg.params.get("n_points", 200))
    tol = float(cfg.tolerances.get("residual", 1e-8 if m.dim == 2 else 1e-6))
    w = omega(m.dim) / m.dim
    pts = sample_box_points(m, n_points, np.random.default_rng(cfg.seed))
    fib = fiber_integral(m, partial(pairing_rates, f, m), pts, fiber_rule(m.dim))
    worst = float(np.max(np.abs(fib - w * divergence(f, m, pts))))
    return {"results": {"max_residual": worst, "n_points": n_points},
            "checks": [_check("fiber_average_matches_divergence", worst, tol, "<=")]}


def _run_path_integral(cfg):
    m, f = _resolve_pair(cfg)
    n_orbits = int(cfg.params.get("n_orbits", 20))
    T = float(cfg.params.get("T", 10.0))
    tol = float(cfg.tolerances.get("residual", 1e-6 * (1.0 + T)))
    states = sample_states(m, n_orbits, np.random.default_rng(cfg.seed))
    worst = float(np.max(path_integral_identity_residual(f, m, states, T)))
    return {"results": {"max_residual": worst, "n_orbits": n_orbits, "T": T},
            "checks": [_check("path_integral_identity", worst, tol, "<=")]}


def _run_fubini(cfg):
    m, f = _resolve_pair(cfg)
    n_mc = int(cfg.params.get("n_mc", 20000))
    out = fubini_consistency(m, partial(pairing_rates, f, m), _box(cfg, m), n_mc=n_mc,
                             seed=cfg.seed)
    return {"results": out,
            "checks": [_check("iterated_matches_direct", out["discrepancy"],
                              max(out["bound"], 1e-12), "<=")]}


def _integral_report(cfg, m, h, key: str, rtol: float) -> dict:
    """Integral of h over the config's region (the radius ladder when the
    manifold has shells, else a chart box), checked against ``expected``."""
    params = cfg.params
    order = int(params.get("order", 16))
    if m.shell is not None:
        est = ladder_integral(m, h, r0=float(params.get("r0", 1.0)),
                              rungs=int(params.get("rungs", 5)), order=order)
    else:
        est = base_integral(m, h, _box(cfg, m), order=order)
    results = {key: est.to_json()}
    checks = []
    if "expected" in params:
        expected = float(params["expected"])
        rel = abs(est.value - expected) / max(abs(expected), 1e-30)
        results["expected"] = expected
        checks.append(_check(f"{key}_matches_expected", rel,
                             float(cfg.tolerances.get("rel_error", rtol)), "<="))
    return {"results": results, "checks": checks}


def _run_volume(cfg):
    return _integral_report(cfg, _manifold(cfg), lambda x: 1.0, "volume", 1e-3)


def _run_divergence_integral(cfg):
    m, f = _resolve_pair(cfg)
    return _integral_report(cfg, m, lambda x: divergence(f, m, x),
                            "divergence_integral", 5e-3)


def _run_karp(cfg):
    m, f = _resolve_pair(cfg)
    _need_shells(cfg, m, cfg.kind)
    radii = [float(r) for r in cfg.params.get("radii", [5.0, 10.0, 20.0])]
    reports = karp_sequence(m, f, radii, order=int(cfg.params.get("order", 16)))
    results = {"annuli": [r.to_json() for r in reports]}
    return {"results": results,
            "checks": _expected(cfg, [r.normalized for r in reports],
                                [r.stderr for r in reports])}


def _karp_decay(cfg, values, errs):
    thr = float(cfg.tolerances.get("final_normalized", 0.1))
    return [_check("normalized_sequence_decreasing", float(max(np.diff(values))), 0.0, "<="),
            _check("final_normalized_small", values[-1], thr, "<=")]


def _karp_bounded_below(cfg, values, errs):
    thr = float(cfg.tolerances.get("lower_bound", 1.0))
    slack = min(values[i + 1] - values[i] + 3.0 * (errs[i + 1] + errs[i])
                for i in range(len(values) - 1))
    return [_check("normalized_bounded_below", min(values), thr, ">="),
            _check("normalized_nondecreasing_within_error", float(slack), 0.0, ">=")]


def _expected(cfg, *args) -> list:
    """The checks its kind's ``expect`` table builds for the config's expectation."""
    expect = cfg.params.get("expect")
    return [] if expect is None else KINDS[cfg.kind].expect[expect](cfg, *args)


def _run_cutoff(cfg):
    m, f = _resolve_pair(cfg)
    _need_shells(cfg, m, cfg.kind)
    radii = [float(r) for r in cfg.params.get("radii", [2.0, 5.0, 10.0])]
    sigma = float(cfg.params.get("sigma", 3.0))
    reports = [cutoff_estimate(m, f, r, order=int(cfg.params.get("order", 12)))
               for r in radii]
    checks = [_check(f"cutoff_bound_r_{rep.r:g}",
                     rep.lhs, rep.rhs + sigma * (rep.lhs_stderr + rep.rhs_stderr),
                     "<=") for rep in reports]
    return {"results": {"reports": [rep.to_json() for rep in reports]},
            "checks": checks}


def _run_fx_ladder(cfg):
    m, f = _resolve_pair(cfg)
    _need_shells(cfg, m, cfg.kind)
    est = rate_integrability_ladder(
        m, f, r0=float(cfg.params.get("r0", 1.0)),
        rungs=int(cfg.params.get("rungs", 5)),
        order=int(cfg.params.get("order", 10)),
        rel_tol=float(cfg.tolerances.get("ladder_rel_tol", 5e-3)))
    return {"results": {"ladder": est.to_json()}, "checks": _expected(cfg, est)}


def _run_decay(cfg):
    m, f = _resolve_pair(cfg)
    _need_shells(cfg, m, cfg.kind)
    radii = [float(r) for r in cfg.params.get("radii", [2.0, 5.0, 10.0, 20.0])]
    sups = x_decay_at_infinity(m, f, radii,
                               n_samples=int(cfg.params.get("n_samples", 400)),
                               seed=cfg.seed)
    return {"results": {"suprema": sups},
            "checks": _expected(cfg, [s["sup"] for s in sups])}


def _decay_to_zero(cfg, values):
    thr = float(cfg.tolerances.get("final_sup", 0.2))
    return [_check("annulus_sup_decreasing", float(max(np.diff(values))), 0.0, "<="),
            _check("final_sup_small", values[-1], thr, "<=")]


def _run_recurrence(cfg):
    m = _manifold(cfg)
    p = cfg.params
    cap = _radius_cap(cfg, m)
    t_min, t_max = float(p.get("t_min", 1.0)), float(p.get("t_max", 1000.0))
    if t_min >= t_max:
        raise ConfigError(f"t_min must be below t_max, got {t_min!r} and {t_max!r}")
    stats = recurrence_fraction(m, int(p.get("n", 100)), eps=float(p.get("eps", 0.05)),
                                t_min=t_min, t_max=t_max, seed=cfg.seed, radius_cap=cap)
    results = {"stats": stats.to_json()}
    checks = []
    if "min_fraction" in p:
        checks.append(_check("fraction_at_least", stats.fraction,
                             float(p["min_fraction"]), ">="))
    if "max_fraction" in p:
        checks.append(_check("fraction_at_most", stats.fraction,
                             float(p["max_fraction"]), "<="))
    return {"results": results, "checks": checks}


def _run_hopf(cfg):
    m = _manifold(cfg)
    p = cfg.params
    n = int(p.get("n", 20))
    cap = _radius_cap(cfg, m)
    if cap is not None:
        cap = float(cap)
    probes = hopf_probe(m, sample_liouville(m, n, np.random.default_rng(cfg.seed),
                                            radius_cap=cap),
                        horizons=p.get("horizons"))
    counts = {}
    for pr in probes:
        counts[pr.label] = counts.get(pr.label, 0) + 1
    results = {"label_counts": counts, "radius_cap": cap,
               "probes": [pr.to_json() for pr in probes[:5]]}
    checks = []
    if "expect_label" in p:
        frac = counts.get(p["expect_label"], 0) / n
        checks.append(_check(f"fraction_{p['expect_label']}", frac,
                             float(p.get("min_label_fraction", 0.95)), ">="))
    return {"results": results, "checks": checks}


def _run_potential_monotone(cfg):
    p = cfg.params
    profiles = shipped_profiles()
    pid = p.get("profile", "p:2")
    if pid not in profiles:
        raise ConfigError(f"unknown profile {pid!r}; have {sorted(profiles)}")
    prof = profiles[pid]
    n = int(p.get("n_pairs", 100000))
    d = int(p.get("dim", 3))
    rng = np.random.default_rng(cfg.seed)
    xi = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=(n, 1))
    eta = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=(n, 1))
    vals = monotone_form(xi, eta, prof)
    floor = float(cfg.tolerances.get("negativity_floor", 1e-12))
    near_tol = float(cfg.tolerances.get("near_zero", 1e-10))
    small = np.asarray(vals) < near_tol
    seps = np.linalg.norm(xi - eta, axis=1)
    worst_sep = float(seps[small].max()) if small.any() else 0.0
    return {"results": {"min_value": float(np.min(vals)), "n_pairs": n,
                        "profile": pid,
                        "max_separation_among_near_zero": worst_sep},
            "checks": [
                _check("monotone_form_nonnegative", float(np.min(vals)),
                       -floor, ">="),
                _check("near_zero_only_near_diagonal", worst_sep, 1e-6, "<="),
            ]}


def _run_potential_laplacian(cfg):
    m = _manifold(cfg)
    p = cfg.params
    registry = scalar_test_functions(cfg.manifold)
    uid = p.get("u", next(iter(registry)))
    if uid not in registry:
        raise ConfigError(f"unknown test function {uid!r}; have {sorted(registry)}")
    u, closed = registry[uid]
    prof = shipped_profiles()["p:2"]
    n_points = int(p.get("n_points", 25))
    tol = float(cfg.tolerances.get("residual", 1e-6))
    pts = sample_box_points(m, n_points, np.random.default_rng(cfg.seed))
    lb = laplace_beltrami(u, m, pts)
    worst = float(np.max(np.abs(phi_laplacian(u, prof, m, pts) - lb)))
    results = {"max_diff_vs_beltrami": worst, "u": uid, "n_points": n_points}
    checks = [_check("flux_divergence_matches_beltrami", worst, tol, "<=")]
    if closed is not None:
        worst_closed = float(np.max(np.abs(lb - closed(pts))))
        results["max_diff_vs_closed_form"] = worst_closed
        checks.append(_check("beltrami_matches_closed_form", worst_closed,
                             max(tol, 1e-6), "<="))
    return {"results": results, "checks": checks}


class Kind(NamedTuple):
    """One experiment kind: CLI subcommand, runner, the params and tolerances
    keys it reads (others are config errors), and the values ``expect`` (hopf:
    ``expect_label``) may take, for ``expect`` each mapped to its checks."""

    group: str
    action: str
    run: Callable[[ExperimentConfig], dict]
    params: tuple[str, ...]
    tolerances: tuple[str, ...] = ()
    expect: dict | tuple = ()


_REGION = ("r0", "rungs", "box", "order", "expected")

# in CLI order: groups appear in the order of their first kind
KINDS: dict[str, Kind] = {
    "fiber-lemma": Kind("verify", "fiber-lemma", _run_fiber_lemma,
                        ("n_points",), ("residual",)),
    "path-integral": Kind("verify", "path-integral", _run_path_integral,
                          ("n_orbits", "T"), ("residual",)),
    "fubini": Kind("verify", "fubini", _run_fubini, ("n_mc", "box")),
    "volume": Kind("integrate", "volume", _run_volume, _REGION, ("rel_error",)),
    "divergence-integral": Kind("integrate", "divergence", _run_divergence_integral,
                                _REGION, ("rel_error",)),
    "karp": Kind("diagnose", "karp", _run_karp, ("radii", "order", "expect"),
                 ("final_normalized", "lower_bound"),
                 {"decay": _karp_decay, "bounded-below": _karp_bounded_below}),
    "cutoff": Kind("diagnose", "cutoff", _run_cutoff, ("radii", "sigma", "order")),
    "fx-ladder": Kind("diagnose", "fx-ladder", _run_fx_ladder,
                      ("r0", "rungs", "order", "expect"), ("ladder_rel_tol",),
                      {"converge": lambda cfg, est: [
                          _check("ladder_converged", est.converged, True, "==")],
                       "diverge": lambda cfg, est: [
                          _check("ladder_diverged", est.converged, False, "==")]}),
    "decay": Kind("diagnose", "decay", _run_decay, ("radii", "n_samples", "expect"),
                  ("final_sup",),
                  {"to-zero": _decay_to_zero, "grow": lambda cfg, values: [
                      _check("annulus_sup_growing", values[-1], values[0], ">=")]}),
    "recurrence": Kind("diagnose", "recurrence", _run_recurrence,
                       ("radius_cap", "n", "eps", "t_min", "t_max",
                        "min_fraction", "max_fraction")),
    "hopf": Kind("diagnose", "hopf", _run_hopf,
                 ("n", "radius_cap", "horizons", "expect_label",
                  "min_label_fraction"), (), HOPF_LABELS),
    "potential-monotone": Kind("potential", "monotone", _run_potential_monotone,
                               ("profile", "n_pairs", "dim"),
                               ("negativity_floor", "near_zero")),
    "potential-laplacian": Kind("potential", "laplacian", _run_potential_laplacian,
                                ("u", "n_points"), ("residual",)),
}


def run(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Execute one experiment; the report is deterministic given
    (config, seed).  ``workers`` is accepted and ignored, for callers
    written when orbits could run on threads."""
    cfg.validate()
    canonical = cfg.canonical()
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    try:
        out = KINDS[cfg.kind].run(cfg)
    except NUMERICAL_ERRORS as exc:
        out = {"checks": [_check("completed", "error", "none", "==")],
               "error": {"type": type(exc).__name__, "message": str(exc)}}
    checks = out.get("checks", [])
    report = {
        "tool": {"name": "divflow", "version": __version__},
        "experiment": cfg.kind,
        "config": canonical,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": cfg.seed,
        "tolerances": canonical["tolerances"],
        "results": _jsonable(out.get("results", {})),
        "checks": checks,
        "passed": all(c["passed"] for c in checks) if checks else True,
    }
    if "error" in out:
        report["error"] = out["error"]
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    """Flat CSV: a completed karp run emits its fixed (r, mass, normalized,
    stderr) table, everything else the checks table."""
    lines = []
    if report["experiment"] == "karp" and "error" not in report:
        lines.append("r,mass,normalized,stderr")
        for a in report["results"]["annuli"]:
            lines.append(f"{a['radius']!r},{a['mass']!r},{a['normalized']!r},{a['stderr']!r}")
    else:
        lines.append("check,value,threshold,comparator,passed")
        for c in report["checks"]:
            lines.append(f"{c['name']},{c['value']!r},{c['threshold']!r},"
                         f"{c['comparator']},{c['passed']}")
    return "\n".join(lines) + "\n"
