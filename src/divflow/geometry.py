"""Riemannian primitives in one coordinate chart: metric, connection,
divergence.

Everything here is a pure function of explicit chart data.  A manifold is
one almost-everywhere chart (a metric evaluator on a coordinate domain) plus
optional closed forms (Christoffel symbols, a radial distance surrogate, an
analytic geodesic) that downstream modules use as oracles or fast paths.

Stack convention: functions of a point take x of shape (n,) or (N, n), as
do the chart and field closures and the potential operators
(``phi_laplacian``, ``laplace_beltrami``, the flux fields), and return the
matching leading shape; validation covers every point and matrix and names
the first failing point.
``covariant_derivative`` returns the matrix of v -> nabla_v X per point, and
``pairing_rates`` takes directions (N, k, n) at points (N, n).
``unit_state`` builds one state; ``pairing`` and the orbit layer take one
state or a stack of them (see ``stack_states``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ChartedManifold",
    "VectorFieldDef",
    "UnitTangentState",
    "DomainError",
    "MetricError",
    "metric_at",
    "inverse_metric_at",
    "volume_density",
    "christoffel",
    "orthonormal_frame",
    "covariant_derivative",
    "divergence",
    "pairing",
    "pairing_rate_form",
    "pairing_rates",
    "field_norm",
    "unit_state",
    "stack_states",
]

# Central-difference step for first derivatives of smooth chart data:
# h ~ cbrt(machine eps) balances truncation against rounding.
FD_STEP = float(np.cbrt(np.finfo(float).eps))

METRIC_SYMMETRY_TOL = 1e-12
UNIT_SPEED_TOL = 1e-10


class DomainError(ValueError):
    """Point (or a finite-difference stencil around it) left the chart domain."""


class MetricError(ValueError):
    """Metric evaluation produced a non-symmetric or non-SPD matrix."""


def _always(x) -> np.ndarray:
    return np.ones(np.shape(x)[:-1], dtype=bool)


@dataclass(frozen=True)
class ChartedManifold:
    """A manifold given by one almost-everywhere coordinate chart, with
    optional closed-form extras.

    ``metric(x)`` is the metric matrix on the chart domain, ``domain(x)``
    the domain predicate, and ``periods[i]`` the period of coordinate i (None
    for a non-periodic coordinate).  Every callable of a point takes x of
    shape (n,) or (N, n) and returns the matching leading shape.

    Optional fields:
      christoffel      closed-form symbols, x -> (..., n, n, n) array G[k, i, j]
      radius           radial distance surrogate r(x) >= 0 (distance from
                       a fixed point, or a quantity comparable to it)
      geodesic         analytic flow oracle (x0, v0, t) -> (x, v)
      shell            (r_lo, r_hi) -> tuple of integration patches for the
                       region {r_lo <= radius <= r_hi} (see integrals module)
      sample_box       default bounded coordinate box for random sampling
      radius_cap       default radius of the bounded base region that
                       sampling experiments use on an unbounded manifold
      radius_escape_certificate
                       True only if (a) radius is 1-Lipschitz in the chart
                       coordinates and (b) t -> radius(geodesic(t)) is convex
                       along every geodesic; lets orbit probes certify
                       non-return early.
    """

    name: str
    dim: int
    metric: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] = _always
    periods: tuple[Optional[float], ...] = ()
    christoffel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radius: Optional[Callable[[np.ndarray], float]] = None
    geodesic: Optional[Callable[[np.ndarray, np.ndarray, float], tuple]] = None
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
    central differences are used.  All three take x of shape (n,) or (N, n);
    a constant may come back unbroadcast.  ``divergence``/``fx``
    are optional closed forms used by oracle tests, never by the computing
    paths.
    """

    name: str
    components: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    divergence: Optional[Callable[[np.ndarray], float]] = None
    fx: Optional[Callable[[np.ndarray, np.ndarray], float]] = None


@dataclass(frozen=True, eq=False)
class UnitTangentState:
    """A point of the unit tangent bundle: position and velocity."""

    x: np.ndarray
    v: np.ndarray


def unit_state(m: ChartedManifold, x, v, normalize: bool = False) -> UnitTangentState:
    """Build a unit tangent state, enforcing g(v, v) = 1 within 1e-10.

    With ``normalize=True`` the velocity is rescaled to unit g-norm first.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g = metric_at(m, x)
    speed2 = float(v @ g @ v)
    if normalize:
        if speed2 <= 0:
            raise ValueError("cannot normalize a null velocity")
        v = v / math.sqrt(speed2)
        speed2 = 1.0
    if abs(speed2 - 1.0) > UNIT_SPEED_TOL:
        raise ValueError(
            f"velocity is not unit: g(v,v) = {speed2!r} (tol {UNIT_SPEED_TOL})")
    return UnitTangentState(x=x, v=v)


def stack_states(states) -> tuple[np.ndarray, np.ndarray, bool]:
    """Positions and velocities, each (N, n), of one state, of a stack of
    states (x and v of shape (N, n)) or of a sequence of states; and whether
    ``states`` was one state (x of shape (n,))."""
    if isinstance(states, UnitTangentState):
        x = np.asarray(states.x, dtype=float)
        v = np.asarray(states.v, dtype=float)
        return np.atleast_2d(x), np.atleast_2d(v), x.ndim == 1
    states = list(states)
    if not states:
        raise ValueError("need at least one state")
    return (np.array([st.x for st in states], dtype=float),
            np.array([st.v for st in states], dtype=float), False)


# ---------------------------------------------------------------------------
# metric


def _first(x: np.ndarray, bad) -> np.ndarray:
    """The first point of x (shape (n,) or (N, n)) where ``bad`` is true."""
    return x if x.ndim == 1 else x[int(np.argmax(bad))]


def metric_at(m: ChartedManifold, x) -> np.ndarray:
    """Metric matrices g_ij(x); validates the domain, symmetry and positive
    definiteness.

    Positive definiteness is enforced by an attempted Cholesky factorization
    of every matrix; failure is a hard error rather than a silent clamp.
    """
    x = np.asarray(x, dtype=float)
    ok = np.asarray(m.domain(x))
    if not ok.all():
        raise DomainError(f"{m.name}: point {_first(x, ~ok)!r} outside chart domain")
    g = np.asarray(m.metric(x), dtype=float)
    n = m.dim
    if g.shape != x.shape[:-1] + (n, n):
        raise MetricError(f"{m.name}: metric shape {g.shape} != {x.shape[:-1] + (n, n)}")
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


def inverse_metric_at(m: ChartedManifold, x) -> np.ndarray:
    return np.linalg.inv(metric_at(m, x))


def volume_density(m: ChartedManifold, x):
    """sqrt(det g) at x; strictly positive on the chart domain."""
    L = np.linalg.cholesky(metric_at(m, x))
    return np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1)


def orthonormal_frame(m: ChartedManifold, x) -> np.ndarray:
    """Columns form a g-orthonormal basis of the tangent space at x.

    Equivalent to Gram-Schmidt on the chart basis: with g = L L^T the frame
    is E = L^{-T}, so E^T g E = I.
    """
    L = np.linalg.cholesky(metric_at(m, x))
    return np.swapaxes(np.linalg.inv(L), -1, -2)


# ---------------------------------------------------------------------------
# connection


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


def _metric_partials(m: ChartedManifold, x: np.ndarray) -> np.ndarray:
    """dg[..., a, i, j] = d g_ij / d x^a by central differences."""
    n = m.dim
    h = _fd_steps(x)
    dg = np.empty(x.shape[:-1] + (n, n, n))
    for a in range(n):
        xp, xm = _stencil(m, x, h, a)
        gp = np.asarray(m.metric(xp), dtype=float)
        gm = np.asarray(m.metric(xm), dtype=float)
        dg[..., a, :, :] = (gp - gm) / (2.0 * h[..., a, None, None])
    # exact index symmetry of the symbols below needs dg[a] symmetric
    return 0.5 * (dg + np.swapaxes(dg, -1, -2))


def christoffel(m: ChartedManifold, x, method: str = "auto") -> np.ndarray:
    """Christoffel symbols G[..., k, i, j] = Gamma^k_ij at x.

    ``method``: "auto" uses the manifold's closed form when present, "fd"
    forces the finite-difference path.
    """
    x = np.asarray(x, dtype=float)
    if method not in ("auto", "fd"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and m.christoffel is not None:
        return np.asarray(m.christoffel(x), dtype=float)
    ginv = inverse_metric_at(m, x)
    dg = _metric_partials(m, x)
    # Gamma_{l ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    first = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", ginv, first)


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
    with (nabla_v X)^k = A[k, i] v^i = v^i d_i X^k + Gamma^k_ij v^i X^j."""
    x = np.asarray(x, dtype=float)
    J = _field_jacobian(field, m, x)
    G = christoffel(m, x)
    X = _components(field, x)
    return J + np.einsum("...kij,...j->...ki", G, X)


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


def pairing(field: VectorFieldDef, m: ChartedManifold, state: UnitTangentState):
    """g(X, v): the field's component along the state's velocity; one value
    per state of a stack (x and v of shape (N, n))."""
    x = np.asarray(state.x, dtype=float)
    v = np.asarray(state.v, dtype=float)
    return (v[..., None, :] @ metric_at(m, x) @ _components(field, x)[..., None])[..., 0, 0]


def pairing_rate_form(field: VectorFieldDef, m: ChartedManifold, x) -> np.ndarray:
    """Matrices Q with pairing rate = v @ Q @ v for unit v at x.

    The rate of g(X, gamma') along the geodesic through (x, v) is the
    quadratic form g(nabla_v X, v); factoring Q out once makes fiber sweeps
    over many directions cheap.
    """
    x = np.asarray(x, dtype=float)
    g = metric_at(m, x)
    Q = g @ covariant_derivative(field, m, x)
    return 0.5 * (Q + np.swapaxes(Q, -1, -2))


def pairing_rates(field: VectorFieldDef, m: ChartedManifold, x,
                  V: np.ndarray) -> np.ndarray:
    """Pairing rates g(nabla_v X, v) = v @ Q(x) @ v of directions V (N, k, n)
    at points x (N, n), shape (N, k): the derivative of the pairing along
    the geodesic flow, and the bundle integrand F(x, V) of the fiber lemma.

    The rate vanishes for Killing fields and equals the conformal factor on
    unit vectors for conformal fields; its fiber average over unit
    directions is (omega_{n-1} / n) * div X.  It is formed from the
    directions themselves (V @ Q, then the sum).
    """
    P = (V @ pairing_rate_form(field, m, x)) * V
    # adding the n <= 3 columns keeps .sum(axis=-1)'s order, several times faster
    return reduce(np.add, [P[..., i] for i in range(P.shape[-1])])


def field_norm(field: VectorFieldDef, m: ChartedManifold, x):
    """g-norm |X| at x."""
    x = np.asarray(x, dtype=float)
    g = metric_at(m, x)
    X = _components(field, x)
    return np.sqrt(np.maximum(0.0, np.einsum("...i,...ij,...j->...", X, g, X)))
