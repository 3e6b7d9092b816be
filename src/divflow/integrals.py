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
``QuadraticIntegrand``, v @ Q(x) @ v or its absolute value, whose fiber
integrals never form the directions.  Fiber integrals take one of three
routes.  The plain form's is the contraction of its frame-form with the
fiber rule's second-moment matrix, sum_l w_l u_l u_l^T.  The absolute value
has kinks where the form changes sign, on which the rule converges only
algebraically, so its fiber integral is exact instead: a closed form in
2-D, and in 3-D a closed part beside one KINK_ORDER-node Gauss piece per
point.  A generic F goes to the rule's nodes, as ``values @ weights`` over
fixed-size blocks of points.  Where partial sums accumulate (a pass's
weighted nodes, patches, error terms) the sums are math.fsum's correctly
rounded ones.  Reductions have fixed shapes and order, so results are
deterministic for a given numpy build.
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
    _check_finite,
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
                           lambda u: u, lambda u: volume_density(m, u)),)
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

    A generic integrand is evaluated on the directions built from ``nodes``
    and reduced with ``values @ weights``.  The rule's integral of a plain
    quadratic form u @ Q @ u is sum_ij Q_ij M_ij, M = ``second_moments``,
    so it evaluates no node.
    """

    nodes: np.ndarray            # (k, n) unit direction coefficients
    weights: np.ndarray          # (k,), sum = omega(n)
    second_moments: np.ndarray   # (n, n), sum_l w_l u_l u_l^T


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
    return FiberRule(nodes=nodes, weights=weights,
                     second_moments=(nodes.T * weights) @ nodes)


class QuadraticIntegrand:
    """The bundle integrand v @ Q(x) @ v, or its absolute value, of a field
    of quadratic forms.

    ``form`` maps points (N, n) to matrices Q (N, n, n); with ``absolute``
    the integrand is |v @ Q @ v|.  Called as F(X, V) on directions V
    (N, k, n) it is an ordinary bundle integrand.  ``fiber_integral``
    instead works from the frame-form E^T Q E and never builds the
    directions: the plain form through the fiber rule's second-moment
    matrix, the absolute value through its exact fiber integral
    (``_abs_form_fiber_integrals``).
    """

    def __init__(self, form: Callable[[np.ndarray], np.ndarray], absolute: bool = False):
        self.form, self.absolute = form, absolute

    def __call__(self, X, V) -> np.ndarray:
        values = _quadratic(self.form(X), V)
        return np.abs(values) if self.absolute else values


# Gauss-Legendre order of the one piece of an exact 3-D |form| integral
# that is not closed (see ``_abs_form_fiber_integrals``)
KINK_ORDER = 20


@lru_cache(maxsize=1)
def _kink_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss nodes in t on [0, 1] under u = u_k s(t), s = 1 - (1 - t)^4,
    as s^2 and sqrt(1 - s^2), and the Gauss weights times ds/dt = 4 (1 -
    t)^3 times the 8 of the two hemispheres and the ring closed form."""
    t, w = _gl(KINK_ORDER, 0.0, 1.0)
    r = (1.0 - t) ** 4
    s = 1.0 - r
    return s * s, np.sqrt(r * (1.0 + s)), 32.0 * (1.0 - t) ** 3 * w


def _eigenvalues3(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues l1 <= l2 <= l3 (N,) of symmetric 3 x 3 matrices Q (N, 3,
    3), from their lower triangles, in closed form (Smith, "Eigenvalues of a
    symmetric 3 x 3 matrix", CACM 4, 1961): with q = tr Q / 3 and p^2 = |Q
    - q I|^2 / 6, they are q + 2 p cos(phi + 2 pi j / 3), 3 phi = acos(det((Q
    - q I) / p) / 2).  Each matrix is divided by its largest entry first, so
    no square or cube leaves the float range.  Near a double eigenvalue acos
    loses half the digits of the pair's split, which moves a symmetric
    function of the spectrum, as a sphere integral is, only at second order.
    """
    a, d, b, e, f, c = (Q[:, i, j] for i, j in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)))
    top = np.max(np.abs([a, d, b, e, f, c]), axis=0)
    scale = np.where(top > 0.0, top, 1.0)
    a, d, b, e, f, c = (v / scale for v in (a, d, b, e, f, c))
    q = (a + b + c) / 3.0
    a, b, c = a - q, b - q, c - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)) / 6.0)
    det = a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e)
    ps = np.where(p > 0.0, p, 1.0)
    phi = np.arccos(np.clip(0.5 * det / (ps * ps * ps), -1.0, 1.0)) / 3.0
    l3 = q + 2.0 * p * np.cos(phi)
    l1 = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    l2 = np.clip(3.0 * q - l1 - l3, l1, l3)
    return l1 * scale, l2 * scale, l3 * scale


def _abs_form_fiber_integrals(Q: np.ndarray) -> np.ndarray:
    """Integrals of |v @ Q @ v| over the unit sphere of R^n, n = 2 or 3, for
    symmetric matrices Q (N, n, n) (their lower triangles), as (N,).

    On a ring where v @ Q @ v = A + B cos 2 theta, B >= 0, the integral is
    2 pi |A| outside (|A| >= B) and 4 (c + A asin(A / B)), c = sqrt(B^2 -
    A^2), inside; 4 (c + A atan2(A, c)), c clamped at 0, is both.  In 2-D
    that is the answer, with A = tr Q / 2 and B = hypot((Q00 - Q11) / 2,
    Q10).  In 3-D, with eigenvalues l1 <= l2 <= l3 and the pole on l2's
    eigenvector, the ring at height u has A = alpha (1 - y) + l2 y and B =
    beta (1 - y), y = u^2, alpha = (l1 + l3) / 2, beta = (l3 - l1) / 2.  It
    is outside above at most one kink ring u_k = sqrt(w), where B + A = l3
    - (l3 - l2) y (l2 <= 0) or B - A = -l1 - (l2 - l1) y (l2 > 0) turns
    sign, and inside below it; w = 0 for a definite form.  A keeps one sign
    above u_k, so that piece is 2 pi |P(1) - P(u_k)|, P(u) = alpha (u - u^3
    / 3) + l2 u^3 / 3.  Below u_k the ring value goes to KINK_ORDER Gauss
    nodes under u = u_k (1 - (1 - t)^4), which makes its (u_k - u)^{3/2}
    singularity smooth; there B^2 - A^2 is the vanishing factor, p (1 -
    s^2) with p its value at y = 0, times the other one.  The two
    hemispheres double the sum.  Everything finite gives a finite value, 0
    for the zero form, and no warning.
    """
    if Q.shape[-1] == 2:
        A = 0.5 * (Q[:, 0, 0] + Q[:, 1, 1])
        B = np.hypot(0.5 * (Q[:, 0, 0] - Q[:, 1, 1]), Q[:, 1, 0])
        a = np.abs(A)
        c = np.sqrt(np.maximum(B - a, 0.0)) * np.sqrt(B + a)
        return 4.0 * (c + A * np.arctan2(A, c))
    l1, l2, l3 = _eigenvalues3(Q)
    alpha = 0.5 * (l1 + l3)
    kink = (l1 < 0.0) & (l3 > 0.0)
    low = l2 <= 0.0
    # the vanishing factor p - slope * y and the other one q - r * y
    p = np.where(kink, np.where(low, l3, -l1), 0.0)
    slope = np.where(kink, np.where(low, l3 - l2, l2 - l1), 1.0)
    q = np.where(kink, np.where(low, -l1, l3), 0.0)
    r = np.where(kink, np.where(low, l2 - l1, l3 - l2), 0.0)
    w = p / slope
    uk = np.sqrt(w)
    outside = np.abs(alpha * (1.0 - uk) + (l2 - alpha) * (1.0 - uk * w) / 3.0)
    s2, root, weights = _kink_rule()
    y = w[:, None] * s2
    A = (l2 - alpha)[:, None] * y
    A += alpha[:, None]
    # the other factor, -l1 (1 - y) - l2 y or l3 (1 - y) + l2 y, is at least
    # q (1 - y) > 2.7e-10 q at every node, so its root needs no clamp
    c = np.multiply(r[:, None], y, out=y)
    np.subtract(q[:, None], c, out=c)
    np.sqrt(c, out=c)
    c *= root
    c *= np.sqrt(p)[:, None]
    ring = np.arctan2(A, c)
    ring *= A
    ring += c
    # einsum, not a matmul: each row's sum does not depend on the others
    return 4.0 * math.pi * outside + uk * np.einsum("ij,j->i", ring, weights)


# bytes of one block's node arrays in fiber_integral: the rule's (points,
# directions, n) array, or the exact |form| route's three (points,
# KINK_ORDER) ones; the frame and the form are per point and are formed for
# the whole stack
FIBER_BLOCK_BYTES = 3 << 19


def fiber_integral(m: ChartedManifold, F: Callable, x):
    """Integral of F(x, v) over the unit sphere of the tangent space at x.

    ``x`` has shape (..., n), one point being a stack of one, and the
    result has shape x.shape[:-1]: () for one point.  Directions come from
    a g-orthonormal frame E (Gram-Schmidt on the chart basis), so the round
    measure of the rule ``fiber_rule(m.dim)`` is the fiber measure of the
    unit tangent bundle.  E, and the frame-form E^T Q E of a
    QuadraticIntegrand (one F.form call), are formed once for the stack.
    Then one of three routes.  A plain form is the contraction sum_ij (E^T
    Q E)_ij M_ij with the rule's second-moment matrix M, and evaluates no
    node.  An absolute one is exact (``_abs_form_fiber_integrals``), in
    blocks of b points whose three (b, KINK_ORDER) arrays fit in
    FIBER_BLOCK_BYTES; a frame-form that is not finite raises MetricError.
    A generic F gets each block's points (b, n) and directions (b, k, n),
    b as many as fit a (b, k, n) array in FIBER_BLOCK_BYTES, and returns
    values that broadcast to (b, k); they reduce with ``values @ weights``.
    """
    x = np.asarray(x, dtype=float)
    rule = fiber_rule(m.dim)
    X = x.reshape(-1, m.dim)
    out = np.empty(len(X))
    E = orthonormal_frame(m, X)   # raises where g is not SPD
    Et = np.swapaxes(E, -1, -2)
    if isinstance(F, QuadraticIntegrand):
        Q = Et @ F.form(X) @ E
        if not F.absolute:
            # einsum, not a matvec: each row's sum does not depend on the others
            return np.einsum("pij,ij->p", Q, rule.second_moments).reshape(x.shape[:-1])
        _check_finite(m, X, Q, "frame-form E^T Q E")
        block = max(1, FIBER_BLOCK_BYTES // (3 * 8 * KINK_ORDER))
        for s in range(0, len(X), block):
            out[s:s + block] = _abs_form_fiber_integrals(Q[s:s + block])
        return out.reshape(x.shape[:-1])
    block = max(1, FIBER_BLOCK_BYTES // rule.nodes.nbytes)
    for s in range(0, len(X), block):
        V = rule.nodes @ Et[s:s + block]
        vals = np.broadcast_to(np.asarray(F(X[s:s + block], V), dtype=float), V.shape[:-1])
        out[s:s + block] = vals @ rule.weights
    return out.reshape(x.shape[:-1])


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


# the most tensor nodes one ``base_integrals`` call builds: each holds a
# chart point and the integrand's temporaries (the suite's largest: 23,040)
MAX_TENSOR_NODES = 1_000_000
SM_ORDER = 12   # the base order of sm_integral, so of fubini_consistency


def _pass_orders(order: int) -> tuple[int, int]:
    return max(2, order // 2), order    # the half pass, then the full pass


def tensor_node_count(m: ChartedManifold, regions, order: int = 16) -> int:
    """The tensor nodes of every pass of ``base_integrals(m, h, regions,
    order)`` from the panel edges alone; a ValueError once they pass
    MAX_TENSOR_NODES (an unbounded axis at once), so a lazy ``regions``
    is read no further."""
    total = 0
    for patch in (p for region in regions for p in resolve_patches(m, region)):
        if not all(math.isfinite(hi - lo) for lo, hi in patch.bounds):
            total = math.inf
        else:
            breaks = patch.breakpoints or ((),) * len(patch.bounds)
            panels = math.prod(len(_panel_edges(lo, hi, breaks=brk))
                               for (lo, hi), brk in zip(patch.bounds, breaks))
            total += panels * sum(o ** len(patch.bounds) for o in _pass_orders(order))
        if total > MAX_TENSOR_NODES:
            raise ValueError(f"{m.name}: the tensor quadrature builds more than "
                             f"{MAX_TENSOR_NODES:,} nodes")
    return total


def _fsums(p: np.ndarray, lengths) -> list[float]:
    """``math.fsum`` of each segment of p, the segments of the given
    lengths (each at least 1) laid end to end, bit for bit, from a few
    vectorized passes instead of fsum's loop over every element.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008): with sigma a power
    of two above 2 (n + 1) max |p| for a segment of n values, q = (sigma +
    p) - sigma and p - q are exact, and the q are multiples of one grid
    whose sums stay below sigma / 2, so ``np.add.reduceat`` adds them
    exactly in any order.  Extracting again from the remainders p - q, whose
    largest shrinks by about 2^-53 sigma each time, until all are zero
    splits every segment into a few exact parts with the segment's exact
    sum; ``math.fsum`` of those is its correctly rounded value, which is
    what fsum returns.  Where a value is not finite or a sigma would pass
    2^1023, every segment goes to ``math.fsum`` itself, which keeps its inf
    and NaN results and its errors.
    """
    lengths = np.asarray(lengths)
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    # 2 (n + 1) < 2^grow for a segment of n values
    grow = np.frexp(2.0 * (lengths + 1.0))[1]
    parts, r = [], p
    while True:
        top = np.maximum.reduceat(np.abs(r), starts)
        e = np.frexp(top)[1] + grow     # max |r| < 2^-grow sigma
        if not parts and not (np.isfinite(top).all() and e.max() <= 1023):
            return [math.fsum(p[s:s + n]) for s, n in zip(starts, lengths)]
        sigma = np.repeat(np.ldexp(1.0, e), lengths)
        q = (sigma + r) - sigma
        parts.append(np.add.reduceat(q, starts))
        r = r - q
        if not r.any():
            return [math.fsum(seg) for seg in zip(*parts)]


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
    reduced alone: its sum of weight times h times density is
    ``math.fsum``'s correctly rounded value to the bit, formed for every
    pass of the call at once by exact extraction (``_fsums``), with fsum's
    own inf, NaN and overflow behaviour.  So for an h that acts point by
    point every estimate equals the one region's ``base_integral`` to the
    bit.  A call past MAX_TENSOR_NODES builds no node.
    """
    tensor_node_count(m, regions, order)
    groups = [resolve_patches(m, region) for region in regions]
    passes = [(patch, *_tensor_nodes(patch, o)) for patches in groups
              for patch in patches for o in _pass_orders(order)]
    if not passes:
        return []
    x = np.concatenate([patch.to_chart(u) for patch, u, _ in passes])
    hx = np.broadcast_to(np.asarray(h(x), dtype=float), x.shape[:-1])
    w = np.concatenate([w for _, _, w in passes])
    density = np.concatenate([patch.density(u) for patch, u, _ in passes])
    nodes = [len(u) for _, u, _ in passes]
    sums = _fsums(w * (hx * density), nodes)
    # (half pass, full pass, full-pass nodes) of each patch in turn
    per_patch = iter(zip(sums[::2], sums[1::2], nodes[1::2]))
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


def sm_integral(m: ChartedManifold, F, region, order: int = SM_ORDER) -> IntegralEstimate:
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
    values, variances = [], []
    for patch in patches:
        vol = float(np.prod([hi - lo for lo, hi in patch.bounds]))
        u = _uniform_in(patch.bounds, rng, (n_mc,))
        S = _with_unit_velocities(m, patch.to_chart(u), rng)
        vals = patch.density(u) * np.broadcast_to(
            np.asarray(F(S[:, :m.dim], S[:, None, m.dim:]), dtype=float), (n_mc, 1))[:, 0]
        mean = float(np.sum(vals)) / n_mc
        var = float(np.sum((vals - mean) ** 2)) / max(1, n_mc - 1)
        values.append(vol * w_total * mean)
        variances.append((vol * w_total) ** 2 * var / n_mc)
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
        "nodes": n_mc * len(patches) + iterated.nodes,
    }


# ---------------------------------------------------------------------------
# truncation ladders


# a ladder has converged once its last increment, or the geometric tail
# extrapolated from its last two, is within these of its value
LADDER_REL_TOL = 1e-3
LADDER_ABS_TOL = 1e-10


def ladder_shells(r0: float, rungs: int):
    """The shells between the rungs R_k = r0 * 2^k of a ladder, from r = 0,
    one at a time; a rung past the largest float is inf."""
    lo, hi = 0.0, float(r0)
    for _ in range(rungs):
        yield RadialShell(lo, hi)
        lo, hi = hi, 2.0 * hi


def ladder_integral(m: ChartedManifold, h, r0: float = 1.0, rungs: int = 8,
                    order: int = 16, rel_tol: float = LADDER_REL_TOL) -> IntegralEstimate:
    """Integral of h over radius balls r <= R_k on the ladder R_k = r0 * 2^k,
    from the shells between rungs, all in one ``base_integrals`` call.

    The trace of partial values is recorded; a non-convergent trace is the
    deliberate signal for a non-integrable integrand.
    """
    shells = list(ladder_shells(r0, rungs))
    radii = [s.r_hi for s in shells]
    ests = base_integrals(m, h, shells, order=order)
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
    # a ball too large for float64 has infinite mass, reported below
    with np.errstate(over="ignore"):
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
