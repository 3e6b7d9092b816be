"""Quadrature and Monte Carlo over manifolds, unit-sphere fibers, and the
unit tangent bundle.

Regions are either coordinate boxes in the chart or radial shells
{r_lo <= r(p) <= r_hi} delegated to the manifold's shell parametrization.
Unbounded domains are handled by truncation ladders with recorded traces.

A base integrand h maps chart points (N, n) to values broadcastable to
(N,), so the tensor grids of every pass, patch and region of one
``base_integrals`` call (every rung of a ladder, say) are one call.  A
bundle integrand is of one of two kinds: a generic F(X, V), which maps
points (N, n) and unit directions (N, k, n) to (N, k), or a
``QuadraticIntegrand``, post(v @ Q(x) @ v), whose fiber values come from
the fiber rule's second moments without forming the directions.  Either
way a fiber integral is ``values @ weights`` over fixed-size blocks of
points; compensated sums remain where partial sums accumulate (a pass's
weighted nodes, patches, error terms).
Reductions have fixed shapes and order, so results are deterministic for a
given numpy build.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import (
    ChartedManifold,
    DomainError,
    _quadratic,
    metric_at,  # noqa: F401  (perfbench's tracer test asserts integrals.metric_at)
    orthonormal_frame,
    volume_density,
)

# every panel of a pass asks for the same orders; callers only read the arrays
_leggauss = lru_cache(maxsize=64)(leggauss)

__all__ = [
    "ChartBox",
    "RadialShell",
    "ShellPatch",
    "IntegralEstimate",
    "FiberRule",
    "QuadraticIntegrand",
    "omega",
    "fiber_rule",
    "fiber_integral",
    "base_integral",
    "base_integrals",
    "sm_integral",
    "fubini_consistency",
    "ladder_integral",
    "sample_box_points",
    "sample_states",
    "sample_liouville",
]


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


def _uniform_in(bounds, rng, shape: tuple = ()) -> np.ndarray:
    """Uniform draws of shape ``shape + (len(bounds),)`` in the box
    ``bounds``, one (lo, hi) pair per axis."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return rng.uniform(size=shape + (len(bounds),)) * (hi - lo) + lo


def resolve_patches(m: ChartedManifold, region) -> tuple[ShellPatch, ...]:
    if isinstance(region, ChartBox):
        return (ShellPatch(tuple((float(a), float(b)) for a, b in region.bounds),
                           lambda u: u, lambda u: volume_density(m, u), "chart-box"),)
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


# ---------------------------------------------------------------------------
# sphere measure and fiber rules


def omega(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere in R^n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class FiberRule:
    """Quadrature rule on the unit sphere S^{n-1}.

    ``moments[i * dim + j, l]`` is u_i u_j of node u = nodes[l]: the values
    of every quadratic form at every node are one product with it.  A
    generic integrand is evaluated on the directions built from ``nodes``, a
    quadratic one through ``moments``; both reduce with ``values @
    weights``.
    """

    dim: int
    nodes: np.ndarray            # (k, dim) unit direction coefficients
    weights: np.ndarray          # (k,), sum = omega(dim)
    moments: np.ndarray          # (dim * dim, k) second moments of the nodes


def _gl(order: int, lo: float | np.ndarray,
        hi: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
        th, weights = _gl(ANGULAR_ORDER, 0.0, 2.0 * math.pi)
        nodes = np.column_stack([np.cos(th), np.sin(th)])
    elif n == 3:
        u, wu = _gl(POLAR_ORDER, -1.0, 1.0)
        th, wt = _gl(ANGULAR_ORDER, 0.0, 2.0 * math.pi)
        s = np.sqrt(np.maximum(0.0, 1.0 - u ** 2))
        nodes = np.stack([np.outer(s, np.cos(th)).ravel(), np.outer(s, np.sin(th)).ravel(),
                          np.repeat(u, ANGULAR_ORDER)], axis=-1)
        weights = np.outer(wu, wt).ravel()
    else:
        raise NotImplementedError(f"no fiber rule shipped for dimension {n}")
    moments = np.ascontiguousarray((nodes[:, :, None] * nodes[:, None, :]).reshape(-1, n * n).T)
    return FiberRule(dim=n, nodes=nodes, weights=weights, moments=moments)


class QuadraticIntegrand:
    """The bundle integrand post(v @ Q(x) @ v) of a field of quadratic forms.

    ``form`` maps points (N, n) to matrices Q (N, n, n); ``post`` is an
    optional elementwise map of the values (np.abs, say), applied in place
    when it is a ufunc.  Called as F(X, V)
    on directions V (N, k, n) it is an ordinary bundle integrand;
    ``fiber_integral`` instead contracts Q in the orthonormal frame with the
    fiber rule's second moments and never builds the directions.
    """

    def __init__(self, form: Callable[[np.ndarray], np.ndarray],
                 post: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.form, self.post = form, post

    def _finish(self, values: np.ndarray) -> np.ndarray:
        """post of freshly formed values, which it may overwrite."""
        if self.post is None:
            return values
        if isinstance(self.post, np.ufunc):
            return self.post(values, out=values)
        return self.post(values)

    def __call__(self, X, V) -> np.ndarray:
        return self._finish(_quadratic(self.form(X), V))


# bytes of one block's (points, directions, n) node array in fiber_integral;
# the frame and the form are per point and are formed for the whole stack
FIBER_BLOCK_BYTES = 3 << 19


def fiber_integral(m: ChartedManifold, F: Callable, x):
    """Integral of F(x, v) over the unit sphere of the tangent space at x,
    by the rule ``fiber_rule(m.dim)``.

    ``x`` has shape (n,) (returns a float) or (N, n) (returns (N,)).
    Directions come from a g-orthonormal frame E (Gram-Schmidt on the chart
    basis), so the rule's round measure matches the fiber measure of the
    unit tangent bundle.  E depends only on the point, so it is formed once
    for the whole stack, as is the frame-form E^T Q E of a
    QuadraticIntegrand (F.form called once).  Only the node values go in
    blocks of b points, as many as fit a (b, k, n) array in
    FIBER_BLOCK_BYTES.  A generic F gets each block's points (b, n) and
    directions (b, k, n) and returns values that broadcast to (b, k).  For a
    QuadraticIntegrand the node values are the frame-form times the rule's
    second moments, one (b, n*n) @ (n*n, k) product into one block buffer
    per call.  Both kinds reduce with ``values @ weights``.
    """
    x = np.asarray(x, dtype=float)
    rule = fiber_rule(m.dim)
    X = x.reshape(-1, m.dim)
    out = np.empty(len(X))
    block = max(1, FIBER_BLOCK_BYTES // rule.nodes.nbytes)
    E = orthonormal_frame(m, X)   # raises where g is not SPD
    Et = np.swapaxes(E, -1, -2)
    quadratic = isinstance(F, QuadraticIntegrand)
    if quadratic:
        Q = (Et @ F.form(X) @ E).reshape(len(X), -1)
        # one buffer for every block: fresh (b, k) arrays are handed back
        # and faulted in again between blocks
        buf = np.empty((min(block, len(X)), rule.moments.shape[1]))
    for s in range(0, len(X), block):
        if quadratic:
            q = Q[s:s + block]
            vals = F._finish(np.matmul(q, rule.moments, out=buf[:len(q)]))
        else:
            V = rule.nodes @ Et[s:s + block]
            vals = np.broadcast_to(np.asarray(F(X[s:s + block], V), dtype=float), V.shape[:-1])
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


def _tensor_nodes(patch: ShellPatch, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The patch's tensor Gauss-Legendre nodes (N, d), the last axis
    varying fastest, and their weights (N,), at ``order`` per panel."""
    breaks = patch.breakpoints or ((),) * len(patch.bounds)
    axes = [_axis_nodes(lo, hi, order, breaks=brk)
            for (lo, hi), brk in zip(patch.bounds, breaks)]
    d = len(axes)
    u = np.empty(tuple(len(t) for t, _ in axes) + (d,))
    for i, (t, _) in enumerate(axes):
        u[..., i] = t.reshape((-1,) + (1,) * (d - 1 - i))
    return u.reshape(-1, d), reduce(np.multiply.outer, [w for _, w in axes]).ravel()


def base_integrals(m: ChartedManifold, h: Callable[[np.ndarray], np.ndarray], regions,
                   order: int = 16) -> list[IntegralEstimate]:
    """Integrals of h against the volume measure over each bounded region,
    by Gauss-Legendre tensor quadrature on each patch, with one call of h.

    ``h`` takes a stack of chart points (N, n) and returns values that
    broadcast to (N,); each region is a ChartBox or a RadialShell.  Each
    patch takes a pass at order // 2 (at least 2) and one at ``order``: the
    value is the full pass and the stderr its distance from the half pass,
    each summed over the patches with ``math.fsum``.  The nodes of every
    pass, region by region, patch by patch, the half pass first, go to h as
    one stack in that order, so a check that h makes point by point names
    the point that one call per pass would meet first.  Each pass is then
    reduced alone, ``math.fsum`` of weight times h times density, so for an
    h that acts point by point every estimate equals the one region's
    ``base_integral`` to the bit.
    """
    groups = [resolve_patches(m, region) for region in regions]
    passes = [(patch, *_tensor_nodes(patch, o)) for patches in groups
              for patch in patches for o in (max(2, order // 2), order)]
    if not passes:
        return []
    x = np.concatenate([patch.to_chart(u) for patch, u, _ in passes])
    hx = np.broadcast_to(np.asarray(h(x), dtype=float), x.shape[:-1])
    sums, start = [], 0
    for patch, u, w in passes:
        sums.append(math.fsum(w * (hx[start:start + len(u)] * patch.density(u))))
        start += len(u)
    # (half pass, full pass, full-pass nodes) of each patch in turn
    per_patch = iter(zip(sums[::2], sums[1::2], [len(u) for _, u, _ in passes[1::2]]))
    out = []
    for patches in groups:
        est = [next(per_patch) for _ in patches]
        out.append(IntegralEstimate(value=math.fsum(full for _, full, _ in est),
                                    stderr=math.fsum(abs(full - half) for half, full, _ in est),
                                    nodes=sum(k for _, _, k in est)))
    return out


def base_integral(m: ChartedManifold, h: Callable[[np.ndarray], np.ndarray], region,
                  order: int = 16) -> IntegralEstimate:
    """Integral of h against the volume measure over one bounded region:
    ``base_integrals`` of the one region."""
    return base_integrals(m, h, [region], order=order)[0]


def sm_integral(m: ChartedManifold, F, region, order: int = 12) -> IntegralEstimate:
    """Integral of F(p, v) over the unit tangent bundle above a base region.

    Computed as the iterated integral of the fiber integral: the projection
    onto the base is a Riemannian submersion, so the bundle measure is the
    base measure times the round fiber measure.  F follows the bundle
    integrand convention of ``fiber_integral``.
    """
    return base_integral(m, partial(fiber_integral, m, F), region, order=order)


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


def ladder_integral(m: ChartedManifold, h, r0: float = 1.0, rungs: int = 8,
                    order: int = 16, rel_tol: float = LADDER_REL_TOL) -> IntegralEstimate:
    """Integral of h over radius balls r <= R_k on the ladder R_k = r0 * 2^k,
    from the shells between rungs, all in one ``base_integrals`` call.

    The trace of partial values is recorded; a non-convergent trace is the
    deliberate signal for a non-integrable integrand.
    """
    radii = [r0 * 2.0 ** k for k in range(rungs)]
    ests = base_integrals(m, h, [RadialShell(lo, R) for lo, R in
                                 zip([0.0] + radii[:-1], radii)], order=order)
    values = list(itertools.accumulate((e.value for e in ests), initial=0.0))[1:]
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
        value=values[-1], stderr=math.fsum(e.stderr for e in ests),
        nodes=sum(e.nodes for e in ests), truncation_radius=radii[-1],
        truncation_trace=list(zip(radii, values)), converged=converged)


# ---------------------------------------------------------------------------
# sampling


# Gauss-Legendre order of the radial mass integrals behind Liouville draws,
# and the bisection steps that invert them
RADIAL_ORDER, RADIAL_HALVINGS = 48, 56


def sample_box_points(m: ChartedManifold, n: int, rng) -> np.ndarray:
    """Uniform chart-coordinate samples in the manifold's sample box."""
    if m.sample_box is None:
        raise ValueError(f"{m.name} has no default sample box")
    return _uniform_in(m.sample_box, rng, (n,))


def _with_unit_velocities(m: ChartedManifold, pts: np.ndarray, rng) -> np.ndarray:
    """Points (N, dim) and isotropic unit velocities as one state array."""
    c = rng.normal(size=(len(pts), m.dim))
    # matmul norms, not np.linalg.norm(c, axis=1): the same dot product per
    # row as on one row
    c /= np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
    return np.hstack([pts, (orthonormal_frame(m, pts) @ c[..., None])[..., 0]])


def sample_states(m: ChartedManifold, n: int, rng) -> np.ndarray:
    """Uniform-in-chart points with isotropic unit velocities, as one state
    array (n, 2 dim): positions, then velocities.

    Suitable for property sweeps; use ``sample_liouville`` when the base
    distribution must match the volume measure.
    """
    return _with_unit_velocities(m, sample_box_points(m, n, rng), rng)


def _radial_mass(patch: ShellPatch, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrals of the patch density in the radius from lo to hi (N,); the
    density ignores the other coordinates, which sit at their lower bounds."""
    r, w = _gl(RADIAL_ORDER, lo[:, None], hi[:, None])
    u = np.tile([b[0] for b in patch.bounds], (r.size, 1))
    u[:, 0] = r.ravel()
    return np.sum(patch.density(u).reshape(r.shape) * w, axis=1)


def _radial_cdf(patch: ShellPatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The patch's radial panels (lower edges, upper edges) and the radial
    mass below each lower edge, then the total."""
    breaks = patch.breakpoints[0] if patch.breakpoints else ()
    lo, hi = np.array(_panel_edges(*patch.bounds[0], breaks=breaks)).T
    return lo, hi, np.append(0.0, np.cumsum(_radial_mass(patch, lo, hi)))


def _radial_quantiles(patch: ShellPatch, cdf, q: np.ndarray) -> np.ndarray:
    """Radii at the radial mass fractions q (N,) of the patch: the panel
    that holds each mass, then bisection on the mass from its lower edge."""
    lo, hi, cum = cdf
    mass = q * cum[-1]
    k = np.minimum(np.searchsorted(cum, mass, side="right"), len(lo)) - 1
    edge, lo, hi, rest = lo[k], lo[k], hi[k], mass - cum[k]
    for _ in range(RADIAL_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = _radial_mass(patch, edge, mid) < rest
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample_liouville(m: ChartedManifold, n: int, rng,
                     radius_cap: Optional[float] = None) -> np.ndarray:
    """Exact samples from the flow-invariant bundle measure over the radius
    ball of ``radius_cap``, else the manifold's sample box: one state array
    (n, 2 dim) of positions, then velocities isotropic in the fiber.

    A ball draw picks a shell patch by mass, its radius at a uniform
    fraction of the patch's radial mass (the CDF on the radial panels of
    the tensor passes, inverted by bisection) and uniform angles: each
    patch density depends on the radius alone.  A ball whose volume is not finite and
    positive raises DomainError.  Uniform box draws are exact only for a
    constant volume density (the torus); another box raises ValueError.
    Callers must record the cap, as the full measure may be infinite.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    if radius_cap is None:
        if m.sample_box is None:
            raise ValueError("need radius_cap or a sample box")
        probe = itertools.product(*(np.linspace(lo, hi, 3) for lo, hi in m.sample_box))
        if np.ptp(volume_density(m, np.array(list(probe)))) > 0:
            raise ValueError(f"{m.name}: volume density not constant on the sample box")
        return sample_states(m, n, rng)
    if m.shell is None:
        raise ValueError(f"{m.name} has no shell parametrization for the radius cap")
    patches = m.shell(0.0, radius_cap)
    cdfs = [_radial_cdf(patch) for patch in patches]
    cum = np.cumsum([cdf[2][-1] * math.prod(hi - lo for lo, hi in patch.bounds[1:])
                     for patch, cdf in zip(patches, cdfs)])
    if not (np.isfinite(cum[-1]) and cum[-1] > 0):
        raise DomainError(f"{m.name}: the radius ball of cap {radius_cap} has volume "
                          f"{cum[-1]}, not a finite positive number")
    pick = np.searchsorted(cum / cum[-1], rng.uniform(size=n), side="right")
    U = rng.uniform(size=(n, m.dim))
    X = np.empty((n, m.dim))
    for j, (patch, cdf) in enumerate(zip(patches, cdfs)):
        lo, hi = np.array(patch.bounds).T
        u = lo + U[pick == j] * (hi - lo)
        u[:, 0] = _radial_quantiles(patch, cdf, U[pick == j, 0])
        X[pick == j] = patch.to_chart(u)
    return _with_unit_velocities(m, X, rng)
