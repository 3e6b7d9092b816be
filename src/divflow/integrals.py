"""Quadrature and Monte Carlo over manifolds, unit-sphere fibers, and the
unit tangent bundle.

Regions are either coordinate boxes in the chart or radial shells
{r_lo <= r(p) <= r_hi} delegated to the manifold's shell parametrization.
Unbounded domains are handled by truncation ladders with recorded traces.

A base integrand h maps chart points (N, n) to values broadcastable to
(N,), so each patch's tensor grid is one call; a bundle integrand F(X, V)
maps points (N, n) and unit directions (N, k, n) to (N, k).  Fiber
integrals are ``values @ weights`` over fixed-size blocks of points;
compensated sums remain where partial sums accumulate (a patch's weighted
nodes, patches, error terms).  Reductions have fixed shapes and order, so
results are deterministic for a given numpy build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import (
    ChartedManifold,
    UnitTangentState,
    metric_at,  # noqa: F401  (perfbench's tracer test asserts integrals.metric_at)
    orthonormal_frame,
    volume_density,
)

# every panel of a pass asks for the same orders; callers only read the arrays
_leggauss = lru_cache(maxsize=64)(leggauss)

__all__ = [
    "SamplingError",
    "ChartBox",
    "RadialShell",
    "ShellPatch",
    "IntegralEstimate",
    "FiberRule",
    "omega",
    "fiber_rule",
    "fiber_integral",
    "base_integral",
    "sm_integral",
    "fubini_consistency",
    "ladder_integral",
    "sample_box_points",
    "sample_states",
    "sample_liouville",
]


class SamplingError(ValueError):
    """A sampler's rejection envelope proved too low for the density."""


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class ChartBox:
    """Axis-aligned box in chart coordinates."""

    bounds: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class RadialShell:
    """Region {r_lo <= radius(p) <= r_hi} in the manifold's radius surrogate."""

    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not (0.0 <= self.r_lo < self.r_hi):
            raise ValueError(f"bad shell radii ({self.r_lo}, {self.r_hi})")


@dataclass(frozen=True, eq=False)
class ShellPatch:
    """One parametrized piece of a region.

    ``to_chart`` maps patch coordinates u to chart coordinates and
    ``density(u)`` is the full volume density in patch coordinates (metric
    density times the parametrization Jacobian); both take u of shape (d,)
    or (N, d) and return the matching leading shape.  ``breakpoints``
    lists, per axis, loci where the integrand is only finitely
    differentiable; panels never straddle them.
    """

    bounds: tuple[tuple[float, float], ...]
    to_chart: Callable[[np.ndarray], np.ndarray]
    density: Callable[[np.ndarray], float]
    name: str = ""
    breakpoints: tuple[tuple[float, ...], ...] = ()


def _box_patch(m: ChartedManifold, box: ChartBox) -> ShellPatch:
    return ShellPatch(
        bounds=tuple((float(a), float(b)) for a, b in box.bounds),
        to_chart=lambda u: u,
        density=lambda u: volume_density(m, u),
        name="chart-box",
    )


def _uniform_in(bounds, rng, shape: tuple = ()) -> np.ndarray:
    """Uniform draws of shape ``shape + (len(bounds),)`` in the box
    ``bounds``, one (lo, hi) pair per axis."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return rng.uniform(size=shape + (len(bounds),)) * (hi - lo) + lo


def resolve_patches(m: ChartedManifold, region) -> tuple[ShellPatch, ...]:
    if isinstance(region, ChartBox):
        return (_box_patch(m, region),)
    if isinstance(region, RadialShell):
        if m.shell is None:
            raise ValueError(f"{m.name} has no radial shell parametrization")
        return tuple(m.shell(region.r_lo, region.r_hi))
    raise TypeError(f"unsupported region {region!r}")


# ---------------------------------------------------------------------------
# estimates


@dataclass
class IntegralEstimate:
    """Value with an error estimate and provenance counters.

    ``stderr`` is a deterministic quadrature residual: the distance between
    the full-order and the half-order tensor pass.
    """

    value: float
    stderr: float
    nodes: int
    truncation_radius: Optional[float] = None
    truncation_trace: Optional[list[tuple[float, float]]] = None
    converged: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "stderr": float(self.stderr),
            "nodes": int(self.nodes),
            "truncation_radius": None if self.truncation_radius is None
            else float(self.truncation_radius),
            "truncation_trace": None if self.truncation_trace is None
            else [[float(r), float(v)] for r, v in self.truncation_trace],
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# sphere measure and fiber rules


def omega(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class FiberRule:
    """Quadrature rule on the unit sphere S^{n-1}."""

    dim: int
    nodes: np.ndarray            # (k, dim) unit direction coefficients
    weights: np.ndarray          # (k,), sum = omega(dim)


def _gl(order: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    t, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


# Gauss-Legendre orders of the fiber rules in the angle and in cos(polar angle)
ANGULAR_ORDER = 64
POLAR_ORDER = 32


@lru_cache(maxsize=32)
def fiber_rule(n: int) -> FiberRule:
    """Standard fiber rules: angular Gauss-Legendre for n=2, a
    (cos phi, theta) product Gauss rule for n=3."""
    if n == 2:
        th, w = _gl(ANGULAR_ORDER, 0.0, 2.0 * math.pi)
        nodes = np.column_stack([np.cos(th), np.sin(th)])
        return FiberRule(dim=2, nodes=nodes, weights=w)
    if n == 3:
        u, wu = _gl(POLAR_ORDER, -1.0, 1.0)
        th, wt = _gl(ANGULAR_ORDER, 0.0, 2.0 * math.pi)
        s = np.sqrt(np.maximum(0.0, 1.0 - u ** 2))
        nodes = np.stack([np.outer(s, np.cos(th)).ravel(), np.outer(s, np.sin(th)).ravel(),
                          np.repeat(u, ANGULAR_ORDER)], axis=-1)
        weights = np.outer(wu, wt).ravel()
        return FiberRule(dim=3, nodes=nodes, weights=weights)
    raise NotImplementedError(f"no fiber rule shipped for dimension {n}")


# bytes of one block's (points, directions, n) array in fiber_integral
FIBER_BLOCK_BYTES = 3 << 19


def fiber_integral(m: ChartedManifold, F: Callable, x,
                   rule: Optional[FiberRule] = None):
    """Integral of F(x, v) over the unit sphere of the tangent space at x.

    ``x`` has shape (n,) (returns a float) or (N, n) (returns (N,)).
    Directions come from a g-orthonormal frame (Gram-Schmidt on the chart
    basis), so the rule's round measure matches the fiber measure of the
    unit tangent bundle.  F gets blocks of points (b, n) with directions
    (b, k, n) of at most FIBER_BLOCK_BYTES and returns values that broadcast
    to (b, k).
    """
    x = np.asarray(x, dtype=float)
    if rule is None:
        rule = fiber_rule(m.dim)
    X = x.reshape(-1, m.dim)
    out = np.empty(len(X))
    block = max(1, FIBER_BLOCK_BYTES // rule.nodes.nbytes)
    for s in range(0, len(X), block):
        Xb = X[s:s + block]
        E = orthonormal_frame(m, Xb)   # raises on non-SPD metric
        V = rule.nodes @ np.swapaxes(E, -1, -2)
        vals = np.broadcast_to(np.asarray(F(Xb, V), dtype=float), V.shape[:-1])
        out[s:s + block] = vals @ rule.weights
    return out if x.ndim > 1 else float(out[0])


# ---------------------------------------------------------------------------
# quadrature over patches


# widest quadrature panel along one axis
PANEL_WIDTH = 8.0


def _panel_edges(lo: float, hi: float,
                 breaks: tuple[float, ...] = ()) -> list[tuple[float, float]]:
    """Split [lo, hi] at declared breakpoints, then dyadically toward each
    segment's lower end when wider than PANEL_WIDTH.

    Radial integrands concentrate their variation near the inner edge, so
    panels double in width away from it.
    """
    cuts = [lo] + [b for b in sorted(breaks) if lo < b < hi] + [hi]
    out = []
    for seg_lo, seg_hi in zip(cuts[:-1], cuts[1:]):
        width = seg_hi - seg_lo
        if width <= PANEL_WIDTH:
            out.append((seg_lo, seg_hi))
            continue
        edges = [seg_hi]
        w = width / 2.0
        while w > PANEL_WIDTH:
            edges.append(seg_lo + w)
            w /= 2.0
        edges.append(seg_lo)
        edges.reverse()
        out.extend((edges[i], edges[i + 1]) for i in range(len(edges) - 1))
    return out


def _axis_nodes(lo: float, hi: float, order: int,
                breaks: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = [], []
    for a, b in _panel_edges(lo, hi, breaks=breaks):
        t, w = _gl(order, a, b)
        xs.append(t)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


def _patch_values(h, patch: ShellPatch, u: np.ndarray) -> np.ndarray:
    """h times the patch density at the patch points u, shape (N,)."""
    return np.asarray(h(patch.to_chart(u)), dtype=float) * patch.density(u)


def _tensor_pass(h, patch: ShellPatch, order: int) -> tuple[float, int]:
    breaks = patch.breakpoints or ((),) * len(patch.bounds)
    axes = [_axis_nodes(lo, hi, order, breaks=brk)
            for (lo, hi), brk in zip(patch.bounds, breaks)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = np.prod(np.stack([w.ravel() for w in wgrids], axis=-1), axis=-1)
    return math.fsum(wts * _patch_values(h, patch, pts)), pts.shape[0]


def _quad_patch(h, patch: ShellPatch, order: int) -> tuple[float, float, int]:
    coarse, _ = _tensor_pass(h, patch, max(2, order // 2))
    value, nodes = _tensor_pass(h, patch, order)
    return value, abs(value - coarse), nodes


def base_integral(m: ChartedManifold, h: Callable[[np.ndarray], np.ndarray], region,
                  order: int = 16) -> IntegralEstimate:
    """Integral of h against the volume measure over a bounded region, by
    Gauss-Legendre tensor quadrature on each patch.

    ``h`` takes a stack of chart points (N, n) and returns values that
    broadcast to (N,).  ``region`` is a ChartBox or a RadialShell.
    """
    values, errs, nodes = [], [], 0
    for patch in resolve_patches(m, region):
        v, e, k = _quad_patch(h, patch, order)
        values.append(v)
        errs.append(e)
        nodes += k
    return IntegralEstimate(value=math.fsum(values), stderr=math.fsum(errs), nodes=nodes)


def sm_integral(m: ChartedManifold, F, region, order: int = 12) -> IntegralEstimate:
    """Integral of F(p, v) over the unit tangent bundle above a base region.

    Computed as the iterated integral of the fiber integral: the projection
    onto the base is a Riemannian submersion, so the bundle measure is the
    base measure times the round fiber measure.  F follows the bundle
    integrand convention of ``fiber_integral``.
    """
    rule = fiber_rule(m.dim)

    def hbar(x):
        return fiber_integral(m, F, x, rule)

    return base_integral(m, hbar, region, order=order)


def fubini_consistency(m: ChartedManifold, F, region, n_mc: int = 20000,
                       seed: int = 0) -> dict:
    """Compare the iterated bundle integral with a direct Monte Carlo
    estimate over (point, direction) pairs.

    Returns the discrepancy together with the combined error bar; agreement
    within errors is the consistency check for the submersion structure.
    The direct estimate calls F with one direction per point, V of shape
    (N, 1, n).
    """
    iterated = sm_integral(m, F, region)

    patches = resolve_patches(m, region)
    rng = np.random.default_rng(seed)
    w_total = omega(m.dim)
    values, variances, nodes = [], [], 0
    for patch in patches:
        vol = float(np.prod([hi - lo for lo, hi in patch.bounds]))
        u = _uniform_in(patch.bounds, rng, (n_mc,))
        g = rng.normal(size=(n_mc, m.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        x = patch.to_chart(u)
        V = orthonormal_frame(m, x) @ g[:, :, None]       # (N, n, 1)
        vals = patch.density(u) * np.broadcast_to(
            np.asarray(F(x, np.swapaxes(V, 1, 2)), dtype=float), (n_mc, 1))[:, 0]
        mean = float(np.sum(vals)) / n_mc
        var = float(np.sum((vals - mean) ** 2)) / max(1, n_mc - 1)
        values.append(vol * w_total * mean)
        variances.append((vol * w_total) ** 2 * var / n_mc)
        nodes += n_mc
    direct = math.fsum(values)
    direct_err = math.sqrt(math.fsum(variances))
    discrepancy = abs(direct - iterated.value)
    bound = 3.0 * (direct_err + iterated.stderr)
    return {
        "iterated": iterated.value,
        "direct": direct,
        "discrepancy": discrepancy,
        "direct_stderr": direct_err,
        "iterated_stderr": iterated.stderr,
        "bound": bound,
        "consistent": bool(discrepancy <= max(bound, 1e-12)),
        "nodes": nodes + iterated.nodes,
    }


# ---------------------------------------------------------------------------
# truncation ladders


# a ladder has converged once its last increment, or the geometric tail
# extrapolated from its last two, is within these of its value
LADDER_REL_TOL = 1e-3
LADDER_ABS_TOL = 1e-10


def _ladder(increment, r0: float, rungs: int, rel_tol: float) -> IntegralEstimate:
    radii = [r0 * 2.0 ** k for k in range(rungs)]
    trace, values, errs, nodes = [], [], [], 0
    lo = 0.0
    total = 0.0
    for R in radii:
        est = increment(lo, R)
        total += est.value
        errs.append(est.stderr)
        nodes += est.nodes
        trace.append((R, total))
        values.append(total)
        lo = R
    converged = False
    if len(values) >= 3:
        inc1 = abs(values[-2] - values[-3])
        inc2 = abs(values[-1] - values[-2])
        scale = max(LADDER_ABS_TOL, rel_tol * abs(values[-1]))
        if inc2 <= scale:
            converged = True
        elif inc1 > 0 and inc2 < 0.9 * inc1:
            # geometric tail extrapolation of the remaining mass
            rho = inc2 / inc1
            converged = inc2 * rho / (1.0 - rho) <= scale
    return IntegralEstimate(
        value=values[-1], stderr=math.fsum(errs), nodes=nodes,
        truncation_radius=radii[-1], truncation_trace=trace, converged=converged)


def ladder_integral(m: ChartedManifold, h, r0: float = 1.0, rungs: int = 8,
                    order: int = 16) -> IntegralEstimate:
    """Integral of h over radius balls r <= R_k on the ladder R_k = r0 * 2^k.

    The trace of partial values is recorded; a non-convergent trace is the
    deliberate signal for a non-integrable integrand.
    """
    def increment(lo, hi):
        return base_integral(m, h, RadialShell(lo, hi), order=order)
    return _ladder(increment, r0, rungs, LADDER_REL_TOL)


# ---------------------------------------------------------------------------
# sampling


def sample_box_points(m: ChartedManifold, n: int, rng) -> np.ndarray:
    """Uniform chart-coordinate samples in the manifold's sample box."""
    if m.sample_box is None:
        raise ValueError(f"{m.name} has no default sample box")
    return _uniform_in(m.sample_box, rng, (n,))


def sample_states(m: ChartedManifold, n: int, rng) -> list[UnitTangentState]:
    """Uniform-in-chart points with isotropic unit velocities.

    Suitable for property sweeps; use ``sample_liouville`` when the base
    distribution must match the volume measure.
    """
    pts = sample_box_points(m, n, rng)
    c = rng.normal(size=(n, m.dim))
    # matmul norms, not np.linalg.norm(c, axis=1): the same dot product per
    # row as on one row
    c /= np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
    V = (orthonormal_frame(m, pts) @ c[..., None])[..., 0]
    return list(map(UnitTangentState, pts, V))


def sample_liouville(m: ChartedManifold, n: int, rng,
                     radius_cap: Optional[float] = None) -> list[UnitTangentState]:
    """Samples from the flow-invariant bundle measure, restricted to a
    bounded base region: the radius ball of ``radius_cap``, else the
    manifold's sample box.

    Base points follow the volume measure (rejection against the patch
    density); directions are isotropic in the fiber.  For non-compact
    manifolds pass ``radius_cap``; the cap must be recorded by callers since
    the full measure may be infinite.  The envelope of each patch is 1.5
    times the largest density on a 7-point probe grid per axis; a draw whose
    density exceeds it raises SamplingError.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    if radius_cap is not None:
        if m.shell is None:
            raise ValueError(f"{m.name} has no shell parametrization for the radius cap")
        patches = list(m.shell(0.0, radius_cap))
    else:
        if m.sample_box is None:
            raise ValueError("need radius_cap or a sample box")
        patches = [_box_patch(m, ChartBox(m.sample_box))]

    sups, masses = [], []
    for patch in patches:
        grid = [np.linspace(a, b, 7) for a, b in patch.bounds]
        mesh = np.meshgrid(*grid, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
        dens = np.asarray(patch.density(pts), dtype=float)
        sups.append(1.5 * float(dens.max()) + 1e-300)
        masses.append(float(dens.mean()) * float(np.prod([hi - lo for lo, hi in patch.bounds])))
    total = math.fsum(masses)
    probs = np.array([max(w, 1e-300) for w in masses]) / max(total, 1e-300)
    cdf = np.cumsum(probs)

    out = []
    while len(out) < n:
        j = int(np.searchsorted(cdf, rng.uniform()))
        j = min(j, len(patches) - 1)
        patch = patches[j]
        u = _uniform_in(patch.bounds, rng)
        d = patch.density(u)
        if d > sups[j]:
            raise SamplingError(
                f"{m.name}: density {float(d):.6g} at patch point {u.tolist()} exceeds "
                f"its rejection envelope {sups[j]:.6g}; the probe grid missed the peak")
        if rng.uniform() * sups[j] > d:
            continue
        x = patch.to_chart(u)
        E = orthonormal_frame(m, x)
        c = rng.normal(size=m.dim)
        c /= np.linalg.norm(c)
        out.append(UnitTangentState(x=np.asarray(x, dtype=float), v=E @ c))
    return out
