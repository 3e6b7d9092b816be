"""Configuration-driven experiment harness.

One experiment per invocation: a config selects zoo objects, parameters and
tolerances; ``run`` produces a deterministic report document given
(config, seed).  ``ExperimentConfig.validate`` is the one place a config is
judged: it runs once, as the config is built, and raises every
``ConfigError`` before any work; the experiments trust what it passed.  A
numerical failure inside an experiment (a truncated orbit, a point outside
the chart, a radius ball of infinite volume, a bad metric, a degenerate
gradient) becomes a report with a failed ``completed`` check and an
``error`` entry.  Results, dataclasses included, become JSON through
``_jsonable`` alone.  Exit-status policy is the caller's job (the CLI maps
check failure to 1 and config errors to 2).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .geometry import (
    DomainError,
    MetricError,
    covariant_derivative,
    divergence,
    pairing_rate_form,
)
from .integrals import (
    SM_ORDER,
    ChartBox,
    QuadraticIntegrand,
    base_integral,
    fiber_integral,
    fubini_consistency,
    ladder_integral,
    ladder_shells,
    omega,
    sample_box_points,
    sample_liouville,
    sample_states,
    tensor_node_count,
)
from .flow import TruncatedTrajectoryError, path_integral_identity_residual, return_grid_step
from .diagnostics import (
    HOPF_LABELS,
    annulus,
    cutoff_estimate,
    cutoff_regions,
    hopf_probe,
    karp_sequence,
    rate_integrability_ladder,
    recurrence_fraction,
    x_decay_at_infinity,
)
from .potential import (
    TEST_FUNCTIONS,
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
                    DegenerateGradientError)

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

# the recurrence ball and return window when the config leaves them out
EPS, T_MIN, T_MAX = 0.05, 1.0, 1000.0


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
        if d.get("field") and d.get("fields") is not None:
            raise ConfigError("give either field or fields, not both")
        fields_ = d.get("fields")
        if fields_ is None:
            fields_ = [d["field"]] if d.get("field") else []
        if not isinstance(fields_, list):
            raise ConfigError(f"fields must be a list of field ids, got {fields_!r}")
        params, tolerances = d.get("params", {}), d.get("tolerances", {})
        return cls(kind=d.get("kind"), manifold=d.get("manifold"), fields=tuple(fields_),
                   params=dict(params) if isinstance(params, dict) else params,
                   tolerances=dict(tolerances) if isinstance(tolerances, dict) else tolerances,
                   seed=d.get("seed", 0))

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise ConfigError unless the config can run: every check on a
        config happens here, before any work."""
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        spec = KINDS[self.kind]
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be nonnegative (an integer >= 0), got {self.seed!r}")
        for what, given, known in (("params", self.params, spec.params),
                                   ("tolerances", self.tolerances, spec.tolerances)):
            if not isinstance(given, dict):
                raise ConfigError(f"{what} must be a JSON object, got {given!r}")
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ConfigError(f"unknown {what} for {self.kind}: {unknown}; "
                                  f"known: {sorted(known)}")
        for name, value in self.tolerances.items():
            if not (_is_finite(value) and value > 0):
                raise ConfigError(f"tolerance {name!r} must be a finite number > 0, "
                                  f"got {value!r}")
        for key, least in COUNTS.items():
            value = self.params.get(key, least)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
        for key, (what, ok) in REALS.items():
            value = self.params.get(key)
            if key in self.params and not (_is_finite(value) and ok(value)):
                raise ConfigError(f"{key} must be {what}, got {value!r}")
        t_min, t_max = self.params.get("t_min", T_MIN), self.params.get("t_max", T_MAX)
        if t_min >= t_max:
            raise ConfigError(f"t_min must be below t_max, got {t_min!r} and {t_max!r}")
        if self.kind == "recurrence":
            try:
                return_grid_step(self.params.get("eps", EPS), t_max)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        for key in ("expect", "expect_label"):
            value = self.params.get(key)
            if value is not None and not (isinstance(value, str) and value in spec.expect):
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
        pid = self.params.get("profile")
        if "profile" in self.params and not (isinstance(pid, str)
                                             and pid in shipped_profiles()):
            raise ConfigError(f"unknown profile {pid!r}; have {sorted(shipped_profiles())}")
        if self.manifold is not None and self.manifold not in zoo.MANIFOLD_IDS:
            raise ConfigError(f"unknown manifold id {self.manifold!r}")
        if spec.needs and self.manifold is None:
            raise ConfigError(f"kind {self.kind!r} needs a manifold id")
        if not spec.needs and self.manifold is not None:
            raise ConfigError(f"kind {self.kind!r} takes no manifold, got {self.manifold!r}")
        reads = 1 if spec.needs in ("field", "shells") else 0
        if len(self.fields) != reads:
            raise ConfigError(f"kind {self.kind!r} takes {reads} field id(s), "
                              f"got {list(self.fields)}")
        for fid in self.fields:
            if fid not in zoo.FIELD_IDS:
                raise ConfigError(f"unknown field id {fid!r}")
            if zoo.field_manifold_id(fid) != self.manifold:
                raise ConfigError(f"field {fid!r} lives on {zoo.field_manifold_id(fid)!r}, "
                                  f"not on {self.manifold!r}")
        if self.manifold is None:
            return
        m = zoo.manifold(self.manifold)
        radial = [key for key in ("radius_cap", "r0", "rungs") if key in self.params]
        if m.shell is None and (spec.needs == "shells" or radial):
            what = f"{self.kind} with {', '.join(radial)}" if radial else self.kind
            raise ConfigError(f"{what} needs radial shells, which {self.manifold!r} lacks")
        box = self.params.get("box")
        # a kind that reads a box and a ladder integrates over the ladder
        # when the manifold has shells
        if box is not None and m.shell is not None and "rungs" in spec.params:
            raise ConfigError(f"box is unused on {self.manifold!r}, where {self.kind} "
                              f"integrates over the radius ladder")
        if box is not None and not (
                isinstance(box, (list, tuple)) and len(box) == m.dim
                and all(isinstance(b, (list, tuple)) and len(b) == 2
                        and all(_is_finite(v) for v in b) and b[0] < b[1] for b in box)):
            raise ConfigError(f"box must be {m.dim} [lo, hi] pairs of finite numbers "
                              f"with lo < hi, got {box!r}")
        for what, regions, order in _quadratures(self, m):
            try:
                tensor_node_count(m, regions, order)
            except ValueError as exc:
                raise ConfigError(f"{what} and order {order}: {exc}") from None
        uid = self.params.get("u")
        if "u" in self.params and not (isinstance(uid, str)
                                       and uid in TEST_FUNCTIONS[self.manifold]):
            raise ConfigError(f"unknown test function {uid!r}; "
                              f"have {sorted(TEST_FUNCTIONS[self.manifold])}")

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
    """The one serialization of report values: a dataclass by its fields."""
    if is_dataclass(obj):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # before the numbers: a bool is an int, and would be written 0 or 1
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"value {obj!r} is not JSON-serializable")


def _check(name: str, value, threshold, comparator: str) -> dict:
    ops = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
           "==": lambda a, b: a == b}
    passed = bool(ops[comparator](value, threshold)) if value is not None else False
    return {"name": name, "value": _jsonable(value),
            "threshold": _jsonable(threshold), "comparator": comparator,
            "passed": passed}


def _box(cfg: ExperimentConfig, m) -> ChartBox:
    """The config's chart box, or else the manifold's sample box."""
    box = cfg.params.get("box")
    return ChartBox(m.sample_box if box is None else tuple(tuple(b) for b in box))


# each kind's default quadrature order, where it is not 16, and radii
ORDERS = {"fx-ladder": 10, "cutoff": 12, "fubini": SM_ORDER}
RADII = {"karp": [5.0, 10.0, 20.0], "cutoff": [2.0, 5.0, 10.0], "decay": [2.0, 5.0, 10.0, 20.0]}


def _sizes(cfg: ExperimentConfig) -> tuple[float, int, int, list[float]]:
    """The config's ladder (r0, rungs), order and radii, or its kind's defaults."""
    p = cfg.params
    return (float(p.get("r0", 1.0)), int(p.get("rungs", 5)),
            int(p.get("order", ORDERS.get(cfg.kind, 16))),
            [float(r) for r in p.get("radii", RADII.get(cfg.kind, ()))])


def _quadratures(cfg: ExperimentConfig, m) -> list[tuple[str, object, int]]:
    """(the params that size it, its regions, its order) of each
    ``base_integrals`` call of the config's run: what ``validate`` counts."""
    r0, rungs, order, radii = _sizes(cfg)
    if cfg.kind == "karp":
        return [("radii", [annulus(r) for r in radii], order)]
    if cfg.kind == "cutoff":
        return [("radii", [region], order) for r in radii for region in cutoff_regions(r)]
    if "rungs" in KINDS[cfg.kind].params and m.shell is not None:
        return [(f"rungs {rungs}", ladder_shells(r0, rungs), order)]
    if "box" in KINDS[cfg.kind].params:   # fubini, or a ladder kind without shells
        return [("box", [_box(cfg, m)], order)]
    return []


def _pair(cfg: ExperimentConfig):
    """The config's manifold and its one field, as validate matched them."""
    return zoo.manifold(cfg.manifold), zoo.vector_field(cfg.fields[0])


# ---------------------------------------------------------------------------
# experiment kinds


def _run_fiber_lemma(cfg):
    m, f = _pair(cfg)
    n_points = int(cfg.params.get("n_points", 200))
    tol = float(cfg.tolerances.get("residual", 1e-8 if m.dim == 2 else 1e-6))
    w = omega(m.dim) / m.dim
    pts = sample_box_points(m, n_points, np.random.default_rng(cfg.seed))
    # nabla X once: the rate form's, and its trace is the divergence
    A = covariant_derivative(f, m, pts)
    fib = fiber_integral(m, QuadraticIntegrand(partial(pairing_rate_form, f, m, A=A)), pts)
    worst = float(np.max(np.abs(fib - w * np.trace(A, axis1=-2, axis2=-1))))
    return {"results": {"max_residual": worst, "n_points": n_points},
            "checks": [_check("fiber_average_matches_divergence", worst, tol, "<=")]}


def _run_path_integral(cfg):
    m, f = _pair(cfg)
    n_orbits = int(cfg.params.get("n_orbits", 20))
    T = float(cfg.params.get("T", 10.0))
    tol = float(cfg.tolerances.get("residual", 1e-6 * (1.0 + T)))
    states = sample_states(m, n_orbits, np.random.default_rng(cfg.seed))
    worst = float(np.max(path_integral_identity_residual(f, m, states, T)))
    return {"results": {"max_residual": worst, "n_orbits": n_orbits, "T": T},
            "checks": [_check("path_integral_identity", worst, tol, "<=")]}


def _run_fubini(cfg):
    m, f = _pair(cfg)
    n_mc = int(cfg.params.get("n_mc", 20000))
    out = fubini_consistency(m, QuadraticIntegrand(partial(pairing_rate_form, f, m)),
                             _box(cfg, m), n_mc=n_mc, seed=cfg.seed)
    return {"results": out,
            "checks": [_check("iterated_matches_direct", out["discrepancy"],
                              max(out["bound"], 1e-12), "<=")]}


def _integral_report(cfg, m, h, key: str, rtol: float) -> dict:
    """Integral of h over the config's region (the radius ladder when the
    manifold has shells, else a chart box), checked against ``expected``."""
    params = cfg.params
    r0, rungs, order, _ = _sizes(cfg)
    if m.shell is not None:
        est = ladder_integral(m, h, r0=r0, rungs=rungs, order=order)
    else:
        est = base_integral(m, h, _box(cfg, m), order=order)
    results = {key: est}
    checks = []
    if "expected" in params:
        expected = float(params["expected"])
        rel = abs(est.value - expected) / max(abs(expected), 1e-30)
        results["expected"] = expected
        checks.append(_check(f"{key}_matches_expected", rel,
                             float(cfg.tolerances.get("rel_error", rtol)), "<="))
    return {"results": results, "checks": checks}


def _run_volume(cfg):
    return _integral_report(cfg, zoo.manifold(cfg.manifold), lambda x: 1.0, "volume",
                            1e-3)


def _run_divergence_integral(cfg):
    m, f = _pair(cfg)
    return _integral_report(cfg, m, lambda x: divergence(f, m, x),
                            "divergence_integral", 5e-3)


def _run_karp(cfg):
    m, f = _pair(cfg)
    _, _, order, radii = _sizes(cfg)
    reports = karp_sequence(m, f, radii, order=order)
    return {"results": {"annuli": reports},
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
    m, f = _pair(cfg)
    _, _, order, radii = _sizes(cfg)
    sigma = float(cfg.params.get("sigma", 3.0))
    reports = [cutoff_estimate(m, f, r, order=order) for r in radii]
    return {"results": {"reports": reports},
            "checks": [_check(f"cutoff_bound_r_{rep.r:g}", rep.lhs, rep.bound(sigma), "<=")
                       for rep in reports]}


def _run_fx_ladder(cfg):
    m, f = _pair(cfg)
    r0, rungs, order, _ = _sizes(cfg)
    est = rate_integrability_ladder(
        m, f, r0=r0, rungs=rungs, order=order,
        rel_tol=float(cfg.tolerances.get("ladder_rel_tol", 5e-3)))
    return {"results": {"ladder": est}, "checks": _expected(cfg, est)}


def _run_decay(cfg):
    m, f = _pair(cfg)
    sups = x_decay_at_infinity(m, f, _sizes(cfg)[3],
                               n_samples=int(cfg.params.get("n_samples", 400)),
                               seed=cfg.seed)
    return {"results": {"suprema": sups},
            "checks": _expected(cfg, [s["sup"] for s in sups])}


def _decay_to_zero(cfg, values):
    thr = float(cfg.tolerances.get("final_sup", 0.2))
    return [_check("annulus_sup_decreasing", float(max(np.diff(values))), 0.0, "<="),
            _check("final_sup_small", values[-1], thr, "<=")]


def _run_recurrence(cfg):
    m = zoo.manifold(cfg.manifold)
    p = cfg.params
    stats = recurrence_fraction(m, int(p.get("n", 100)), eps=float(p.get("eps", EPS)),
                                t_min=float(p.get("t_min", T_MIN)),
                                t_max=float(p.get("t_max", T_MAX)), seed=cfg.seed,
                                radius_cap=p.get("radius_cap", m.radius_cap))
    results = {"stats": stats}
    checks = []
    if "min_fraction" in p:
        checks.append(_check("fraction_at_least", stats.fraction,
                             float(p["min_fraction"]), ">="))
    if "max_fraction" in p:
        checks.append(_check("fraction_at_most", stats.fraction,
                             float(p["max_fraction"]), "<="))
    return {"results": results, "checks": checks}


def _run_hopf(cfg):
    m = zoo.manifold(cfg.manifold)
    p = cfg.params
    n = int(p.get("n", 20))
    cap = p.get("radius_cap", m.radius_cap)
    if cap is not None:
        cap = float(cap)
    probes = hopf_probe(m, sample_liouville(m, n, np.random.default_rng(cfg.seed),
                                            radius_cap=cap),
                        horizons=p.get("horizons"))
    counts = {}
    for pr in probes:
        counts[pr.label] = counts.get(pr.label, 0) + 1
    results = {"label_counts": counts, "radius_cap": cap, "probes": probes[:5]}
    checks = []
    if "expect_label" in p:
        frac = counts.get(p["expect_label"], 0) / n
        checks.append(_check(f"fraction_{p['expect_label']}", frac,
                             float(p.get("min_label_fraction", 0.95)), ">="))
    return {"results": results, "checks": checks}


def _run_potential_monotone(cfg):
    p = cfg.params
    pid = p.get("profile", "p:2")
    prof = shipped_profiles()[pid]
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
    m = zoo.manifold(cfg.manifold)
    p = cfg.params
    registry = scalar_test_functions(cfg.manifold)
    uid = p.get("u", next(iter(registry)))
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
    """One experiment kind: CLI subcommand, runner, what of the zoo it needs
    (``"field"``: a manifold and one field on it; ``"shells"``: that, on a
    manifold with radial shells; ``"manifold"``: a manifold and no field;
    ``""``: neither), the params and tolerances keys it reads (others are
    config errors), and the values ``expect`` (hopf: ``expect_label``) may
    take, for ``expect`` each mapped to its checks."""

    group: str
    action: str
    run: Callable[[ExperimentConfig], dict]
    needs: str
    params: tuple[str, ...]
    tolerances: tuple[str, ...] = ()
    expect: dict | tuple = ()


_REGION = ("r0", "rungs", "box", "order", "expected")

# in CLI order: groups appear in the order of their first kind
KINDS: dict[str, Kind] = {
    "fiber-lemma": Kind("verify", "fiber-lemma", _run_fiber_lemma, "field",
                        ("n_points",), ("residual",)),
    "path-integral": Kind("verify", "path-integral", _run_path_integral, "field",
                          ("n_orbits", "T"), ("residual",)),
    "fubini": Kind("verify", "fubini", _run_fubini, "field", ("n_mc", "box")),
    "volume": Kind("integrate", "volume", _run_volume, "manifold", _REGION,
                   ("rel_error",)),
    "divergence-integral": Kind("integrate", "divergence", _run_divergence_integral,
                                "field", _REGION, ("rel_error",)),
    "karp": Kind("diagnose", "karp", _run_karp, "shells", ("radii", "order", "expect"),
                 ("final_normalized", "lower_bound"),
                 {"decay": _karp_decay, "bounded-below": _karp_bounded_below}),
    "cutoff": Kind("diagnose", "cutoff", _run_cutoff, "shells",
                   ("radii", "sigma", "order")),
    "fx-ladder": Kind("diagnose", "fx-ladder", _run_fx_ladder, "shells",
                      ("r0", "rungs", "order", "expect"), ("ladder_rel_tol",),
                      {"converge": lambda cfg, est: [
                          _check("ladder_converged", est.converged, True, "==")],
                       "diverge": lambda cfg, est: [
                          _check("ladder_diverged", est.converged, False, "==")]}),
    "decay": Kind("diagnose", "decay", _run_decay, "shells",
                  ("radii", "n_samples", "expect"), ("final_sup",),
                  {"to-zero": _decay_to_zero, "grow": lambda cfg, values: [
                      _check("annulus_sup_growing", values[-1], values[0], ">=")]}),
    "recurrence": Kind("diagnose", "recurrence", _run_recurrence, "manifold",
                       ("radius_cap", "n", "eps", "t_min", "t_max",
                        "min_fraction", "max_fraction")),
    "hopf": Kind("diagnose", "hopf", _run_hopf, "manifold",
                 ("n", "radius_cap", "horizons", "expect_label",
                  "min_label_fraction"), (), HOPF_LABELS),
    "potential-monotone": Kind("potential", "monotone", _run_potential_monotone, "",
                               ("profile", "n_pairs", "dim"),
                               ("negativity_floor", "near_zero")),
    "potential-laplacian": Kind("potential", "laplacian", _run_potential_laplacian,
                                "manifold", ("u", "n_points"), ("residual",)),
}


def run(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Execute one experiment; the report is deterministic given
    (config, seed).  ``cfg`` passed ``validate`` when it was built.
    ``workers`` is accepted and ignored; it stays because perfbench/run.py
    passes it."""
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
