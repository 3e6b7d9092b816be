"""Riemannian primitives in one coordinate chart: metric, connection,
divergence.

Everything here is a pure function of explicit chart data.  A manifold is
one almost-everywhere chart: a coordinate domain, and the metric g(a, b)
and the Levi-Civita connection Gamma(a, b) as closed bilinear forms, its
one statement of g and the one way the package pairs vectors and
differentiates covariantly.  Optional extras (a radial distance surrogate,
shells and sampling defaults) serve the probes and the integration regions.

Stack convention: functions of a point take x of shape (n,) or (N, n), as
do the chart and field closures and the potential operators
(``phi_laplacian``, ``laplace_beltrami``, the flux fields), and return the
matching leading shape; validation covers every point and matrix and names
the first failing point.
``inner`` and ``connection`` broadcast x, a and b against each other, so
one call forms Gamma(a, b) for a stack of several b per point.
``covariant_derivative`` returns the matrix of v -> nabla_v X per point.
A stack of unit tangent states is one array of shape (N, 2n): positions in
columns :n and velocities in columns n:2n, the layout the geodesic stepper
advances.  The orbit layer takes and returns such stacks only, N >= 1;
``pairing`` takes the positions and velocities apart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ChartedManifold",
    "VectorFieldDef",
    "DomainError",
    "MetricError",
    "metric_at",
    "volume_density",
    "christoffel",
    "orthonormal_frame",
    "covariant_derivative",
    "divergence",
    "pairing",
    "pairing_rate_form",
    "field_norm",
]

# Central-difference step for first derivatives of smooth chart data:
# h ~ cbrt(machine eps) balances truncation against rounding.
FD_STEP = float(np.cbrt(np.finfo(float).eps))

METRIC_SYMMETRY_TOL = 1e-12

# Largest cross term |g(E_j, E_k)|, j != k, the frame may carry.
# Gram-Schmidt through ``inner`` holds it to 3e-11 at r = 12 and 1e-8 at
# r = 18 on the hyperboloid charts; past that the chart's round-off grows
# about e-fold per unit of r, and the frame is refused rather than returned
# silently not orthonormal.
FRAME_ORTHONORMAL_TOL = 1e-8


class DomainError(ValueError):
    """Point (or a finite-difference stencil around it) left the chart domain."""


class MetricError(ValueError):
    """g is not positive definite, or not finite, at a point, its matrix
    g(e_i, e_j) is not symmetric there (``metric_at``), or round-off there
    leaves no orthonormal frame to FRAME_ORTHONORMAL_TOL."""


def _always(x) -> np.ndarray:
    return np.ones(np.shape(x)[:-1], dtype=bool)


@dataclass(frozen=True)
class ChartedManifold:
    """A manifold given by one almost-everywhere coordinate chart.

    ``domain(x)`` is the domain predicate and ``periods[i]`` the period of
    coordinate i (None for a non-periodic coordinate).  Every callable of a
    point takes x of shape (n,) or (N, n) and returns the matching leading
    shape.

    ``inner(x, a, b)`` is g(a, b) and ``connection(x, a, b)`` is
    Gamma(a, b)^k = Gamma^k_ij a^i b^j, both in closed form: points x and
    vectors a, b of shape (..., n), broadcast against each other, to shape
    (...,) and (..., n).  ``inner`` is the manifold's one statement of g,
    written so that it keeps its digits where a metric matrix would not: on
    the hyperboloid graph chart g = I - x x^T / (1 + |x|^2) cancels to about
    |x|^2 eps, and the closed form does not.  ``inner`` must be symmetric in
    a and b to the last bit: the frame, the density, the pairings and the
    speed-drift record (see ``flow``) are built on it.  Neither closure
    validates g.  The frame does, through Gram-Schmidt on ``inner``
    (``orthonormal_frame``), and ``metric_at`` validates the matrix it forms
    from ``inner``.

    Optional fields:
      radius           radial distance surrogate r(x) >= 0 (distance from
                       a fixed point, or a quantity comparable to it)
      shell            (r_lo, r_hi) -> tuple of integration patches for the
                       region {r_lo <= radius <= r_hi} (see integrals module)
      sample_box       default bounded coordinate box for random sampling
      radius_cap       default radius of the bounded base region that
                       sampling experiments use on an unbounded manifold
      radius_escape_certificate
                       True only if (a) radius is 1-Lipschitz in the chart
                       coordinates and (b) t -> radius(gamma(t)) is convex
                       along every geodesic gamma; lets orbit probes certify
                       non-return early.
    """

    name: str
    dim: int
    inner: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    connection: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], np.ndarray] = _always
    periods: tuple[Optional[float], ...] = ()
    radius: Optional[Callable[[np.ndarray], np.ndarray]] = None
    shell: Optional[Callable[[float, float], tuple]] = None
    sample_box: Optional[tuple[tuple[float, float], ...]] = None
    radius_cap: Optional[float] = None
    radius_escape_certificate: bool = False
    description: str = ""

    def __post_init__(self):
        if not self.periods:
            object.__setattr__(self, "periods", (None,) * self.dim)
        if len(self.periods) != self.dim:
            raise ValueError("periods length must equal the manifold dimension")


@dataclass(frozen=True)
class VectorFieldDef:
    """A C1 vector field in the chart of one manifold.

    ``components(x)`` returns the chart components X^k(x).  ``jacobian``,
    when supplied, returns analytic partials J[k, i] = dX^k/dx^i; otherwise
    central differences are used.  Both take x of shape (n,) or (N, n); a
    constant may come back unbroadcast.  The computing paths read nothing
    else of a field: its divergence and pairing rate are computed from these.
    """

    name: str
    components: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None


# ---------------------------------------------------------------------------
# metric


def _first(x: np.ndarray, bad) -> np.ndarray:
    """The first point of x (shape (n,) or (N, n)) where ``bad`` is true."""
    return x if x.ndim == 1 else x[int(np.argmax(bad))]


def _check_domain(m: ChartedManifold, x: np.ndarray) -> None:
    ok = np.asarray(m.domain(x))
    if not ok.all():
        raise DomainError(f"{m.name}: point {_first(x, ~ok)!r} outside chart domain")


def _check_finite(m: ChartedManifold, x: np.ndarray, values: np.ndarray,
                  what: str) -> np.ndarray:
    """``values`` (leading shape of x) unchanged if all are finite, else a
    MetricError naming the first point with a non-finite value."""
    bad = ~np.isfinite(values)
    if bad.any():
        bad = bad.reshape(x.shape[:-1] + (-1,)).any(axis=-1)
        raise MetricError(f"{m.name}: {what} not finite at {_first(x, bad)!r}")
    return values


def metric_at(m: ChartedManifold, x) -> np.ndarray:
    """Metric matrices g_ij(x) = g(e_i, e_j) of shape x.shape[:-1] + (n, n),
    formed through ``inner``; validates the domain, symmetry and positive
    definiteness.

    Positive definiteness is enforced by an attempted Cholesky factorization
    of every matrix; failure is a hard error rather than a silent clamp.
    Nothing in the package calls it: the frame, the density, the pairings
    and the speed-drift record work through ``inner`` directly.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(m, x)
    n = m.dim
    basis = np.eye(n)
    # written into per-point arrays, so an inner that ignores x (the torus)
    # still gives one matrix per point
    g = np.empty(x.shape[:-1] + (n, n))
    for i, j in itertools.product(range(n), repeat=2):
        g[..., i, j] = m.inner(x, basis[i], basis[j])
    gs = g.reshape(-1, n, n)
    scale = METRIC_SYMMETRY_TOL * np.maximum(1.0, np.abs(gs).max(axis=(1, 2)))
    sym = (np.abs(gs - gs.transpose(0, 2, 1)) <= scale[:, None, None]).all(axis=(1, 2))
    if not sym.all():
        raise MetricError(f"{m.name}: metric not symmetric at {_first(x, ~sym)!r}")
    try:
        np.linalg.cholesky(gs)
    except np.linalg.LinAlgError:
        for xi, gi in zip(x.reshape(-1, n), gs):   # name the first failure
            try:
                np.linalg.cholesky(gi)
            except np.linalg.LinAlgError as exc:
                raise MetricError(
                    f"{m.name}: metric not positive definite at {xi!r}") from exc
    return g


def _gram_schmidt(m: ChartedManifold, x) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt on the chart basis e_0, ..., e_{n-1} through ``inner``:
    the frame E (..., n, n), column k the g-unit part of e_k orthogonal to
    the columns before it, and the norms (..., n) it divided by.

    This is where g is validated for the frame and the density: the point
    must lie in the chart domain, every norm must be finite and positive,
    and the cross terms g(E_j, E_k), formed through ``inner`` in one
    broadcast call, must vanish to FRAME_ORTHONORMAL_TOL; else a
    MetricError names the first failing point, whichever basis vector or
    pair fails there.  E is upper triangular with a positive diagonal, so
    with g = L L^T it is L^{-T}, and the norms are the diagonal of L.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(m, x)
    n = m.dim
    E = np.empty(x.shape + (n,))
    norms = np.empty(x.shape)
    basis = np.eye(n)
    # written into per-point arrays, so an inner that ignores x (the torus)
    # still gives one frame per point
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n):
            w = basis[k]
            for j in range(k):
                e = E[..., :, j]
                w = w - m.inner(x, e, w)[..., None] * e
            s = np.sqrt(m.inner(x, w, w), out=norms[..., k])
            np.divide(w, s[..., None], out=E[..., :, k])
    ok = (np.isfinite(norms) & (norms > 0.0)).all(axis=-1)
    if not ok.all():
        raise MetricError(f"{m.name}: metric not positive definite at {_first(x, ~ok)!r}")
    # g(E_j, E_k) for j < k, where Gram-Schmidt loses orthogonality; each
    # diagonal entry is 1 by the division above.  A NaN fails too.
    j, k = np.array(list(itertools.combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
    Et = np.swapaxes(E, -1, -2)
    with np.errstate(invalid="ignore", over="ignore"):
        cross = m.inner(x[..., None, :], Et[..., j, :], Et[..., k, :])
        ok = (np.abs(cross) <= FRAME_ORTHONORMAL_TOL).all(axis=-1)
    if not ok.all():
        raise MetricError(f"{m.name}: orthonormal frame lost to round-off at "
                          f"{_first(x, ~ok)!r}")
    return E, norms


def volume_density(m: ChartedManifold, x):
    """sqrt(det g) at x, the product of the Gram-Schmidt norms of the chart
    basis (``orthonormal_frame``); strictly positive on the chart domain."""
    return np.prod(_gram_schmidt(m, x)[1], axis=-1)


def orthonormal_frame(m: ChartedManifold, x) -> np.ndarray:
    """Columns form a g-orthonormal basis of the tangent space at x, so
    E^T g E = I: Gram-Schmidt on the chart basis through ``inner``, refused
    where its cross terms exceed FRAME_ORTHONORMAL_TOL."""
    return _gram_schmidt(m, x)[0]


# ---------------------------------------------------------------------------
# connection and derivatives


def christoffel(m: ChartedManifold, x) -> np.ndarray:
    """Christoffel symbols G[..., k, i, j] = Gamma(e_i, e_j)^k at x, read
    off the manifold's connection.  Nothing in the package calls it: every
    caller forms Gamma(a, b) with ``connection`` directly."""
    x = np.asarray(x, dtype=float)
    E = np.eye(m.dim)
    G = m.connection(x[..., None, None, :], E[:, None, :], E[None, :, :])
    return np.moveaxis(G, -1, -3)


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return FD_STEP * np.maximum(1.0, np.abs(x))


def _stencil(m: ChartedManifold, x: np.ndarray, h: np.ndarray, a: int):
    """Points x +- h^a e_a, with the leading shape of x; both must lie in
    the chart domain."""
    xp = x.copy()
    xm = x.copy()
    xp[..., a] += h[..., a]
    xm[..., a] -= h[..., a]
    ok = np.asarray(m.domain(xp)) & np.asarray(m.domain(xm))
    if not ok.all():
        raise DomainError(f"{m.name}: finite-difference stencil at "
                          f"{_first(x, ~ok)!r} leaves the chart domain")
    return xp, xm


def _components(field: VectorFieldDef, x: np.ndarray) -> np.ndarray:
    # a constant field may return one vector for a whole stack
    X = np.asarray(field.components(x), dtype=float)
    return X if X.shape == x.shape else np.broadcast_to(X, x.shape)


def _field_jacobian(field: VectorFieldDef, m: ChartedManifold,
                    x: np.ndarray) -> np.ndarray:
    """J[..., k, i] = dX^k/dx^i, analytic when supplied else central
    differences."""
    n = m.dim
    if field.jacobian is not None:
        J = np.asarray(field.jacobian(x), dtype=float)
        shape = x.shape[:-1] + (n, n)
        return J if J.shape == shape else np.broadcast_to(J, shape)
    h = _fd_steps(x)
    J = np.empty(x.shape[:-1] + (n, n))
    for i in range(n):
        xp, xm = _stencil(m, x, h, i)
        J[..., :, i] = (_components(field, xp) - _components(field, xm)) / (2.0 * h[..., i, None])
    return J


def covariant_derivative(field: VectorFieldDef, m: ChartedManifold,
                         x) -> np.ndarray:
    """The covariant derivative of the field at x as matrices A[..., k, i],
    with (nabla_v X)^k = A[k, i] v^i = v^i d_i X^k + Gamma(v, X)^k: the
    Jacobian J plus Gamma(e_i, X) for each basis vector e_i, from one
    broadcast ``connection`` call."""
    x = np.asarray(x, dtype=float)
    J = _field_jacobian(field, m, x)
    X = _components(field, x)
    G = m.connection(x[..., None, :], np.eye(m.dim), X[..., None, :])
    return J + np.swapaxes(G, -1, -2)


def divergence(field: VectorFieldDef, m: ChartedManifold, x,
               method: str = "trace"):
    """Divergence of the field at x.

    "trace" takes the trace of v -> nabla_v X.  "coordinate" evaluates the
    independent route (1/sqrt G) d_i (sqrt G X^i).
    """
    x = np.asarray(x, dtype=float)
    if method == "trace":
        return np.trace(covariant_derivative(field, m, x), axis1=-2, axis2=-1)
    if method == "coordinate":
        h = _fd_steps(x)
        total = 0.0
        for i in range(m.dim):
            xp, xm = _stencil(m, x, h, i)
            wp = volume_density(m, xp) * _components(field, xp)[..., i]
            wm = volume_density(m, xm) * _components(field, xm)[..., i]
            total += (wp - wm) / (2.0 * h[..., i])
        return total / volume_density(m, x)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# the unit-tangent-bundle observable


def pairing(field: VectorFieldDef, m: ChartedManifold, x, v):
    """g(X, v): the field's component along the velocities v at the points
    x, both (N, n); one value per point, through the manifold's ``inner``.
    The points must lie in the chart domain and the values be finite."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_domain(m, x)
    return _check_finite(m, x, m.inner(x, v, _components(field, x)), "g(X, v)")


def pairing_rate_form(field: VectorFieldDef, m: ChartedManifold, x) -> np.ndarray:
    """Matrices Q with pairing rate = v @ Q @ v for unit v at x.

    The rate of g(X, gamma') along the geodesic through (x, v) is the
    quadratic form g(nabla_v X, v); factoring Q out once makes fiber sweeps
    over many directions cheap.  Q is the symmetrized Q[k, i] = g(e_k, A e_i)
    of the covariant derivative A, from one broadcast ``inner`` call; the
    points must lie in the chart domain and every entry be finite.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(m, x)
    n = m.dim
    A = covariant_derivative(field, m, x)
    Q = m.inner(x[..., None, None, :], np.eye(n)[:, None, :],
                np.swapaxes(A, -1, -2)[..., None, :, :])
    _check_finite(m, x, Q, "g(e_k, nabla X)")
    return 0.5 * (Q + np.swapaxes(Q, -1, -2))


def _quadratic(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """v @ Q @ v for directions V (N, k, n) and matrices Q (N, n, n), shape
    (N, k), formed from the directions themselves (V @ Q, then the sum)."""
    P = (V @ Q) * V
    # adding the n <= 3 columns keeps .sum(axis=-1)'s order, several times faster
    return reduce(np.add, [P[..., i] for i in range(P.shape[-1])])


def field_norm(field: VectorFieldDef, m: ChartedManifold, x):
    """g-norm |X| at x through the manifold's ``inner``, as in ``pairing``."""
    x = np.asarray(x, dtype=float)
    _check_domain(m, x)
    X = _components(field, x)
    return np.sqrt(np.maximum(0.0, _check_finite(m, x, m.inner(x, X, X), "g(X, X)")))
