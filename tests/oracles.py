"""Oracles and state constructors that only the tests use.

States are the package's (N, 2n) arrays: positions in columns :n,
velocities in columns n:2n.  The metric matrices g_ij of the zoo manifolds,
written out apart from their ``inner``, are references for the closed-form
g the package computes with; ``unit_states``, the finite-difference symbols
and ``tensor_rate_form`` read them.  The Christoffel tensors G[..., k, i, j]
= Gamma^k_ij, and the symbols that central differences of a metric matrix
give, are references for the closed-form connections.  The zoo fields'
divergences (``DIVERGENCE``) and pairing rates (``FX``), keyed by field id,
are references for what the package computes from a field's components and
Jacobian; the analytic hyperbolic geodesic and the revolution embedding
check the orbits and the revolution surface.  The divergences take a stack
of points; the pairing rates, the geodesic and the embedding take one point.
"""

import math

import numpy as np

from divflow import zoo
from divflow.flow import _whole, integrate_geodesic
from divflow.geometry import (
    ChartedManifold,
    _components,
    _fd_steps,
    _field_jacobian,
    _quadratic,
    _stencil,
    field_norm,
    pairing_rate_form,
)

UNIT_SPEED_TOL = 1e-10


def unit_states(m, x, v, normalize: bool = False) -> np.ndarray:
    """States (N, 2n) from positions and velocities of shape (n,) or
    (N, n), enforcing g(v, v) = 1 within UNIT_SPEED_TOL.

    With ``normalize=True`` each velocity is rescaled to unit g-norm first.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    speed2 = (v[:, None, :] @ metric_matrix(m, x) @ v[:, :, None])[:, 0, 0]
    if normalize:
        if np.any(speed2 <= 0):
            raise ValueError("cannot normalize a null velocity")
        v = v / np.sqrt(speed2)[:, None]
        speed2 = np.ones(len(v))
    if np.any(np.abs(speed2 - 1.0) > UNIT_SPEED_TOL):
        raise ValueError(
            f"velocity is not unit: g(v,v) = {speed2!r} (tol {UNIT_SPEED_TOL})")
    return np.hstack([x, v])


def flipped(m, states, rows=slice(None)) -> np.ndarray:
    """A copy of the states (N, 2n) with the velocities of ``rows`` reversed.
    phi_{-t}(x, v) is phi_t(x, -v) with its velocity reversed, so an orbit
    runs backward as the forward orbit of its flipped state."""
    S = np.array(states, dtype=float)
    S[rows, m.dim:] *= -1.0
    return S


def state_at(traj, t) -> np.ndarray:
    """Positions and velocities of every orbit of ``traj`` at time t, from
    the continuous extension: (N, 2n) for a scalar t."""
    return traj.y_at(t)[..., :2 * traj.dim]


def pairing_rates(field, m, x, V) -> np.ndarray:
    """Pairing rates g(nabla_v X, v) = v @ Q(x) @ v of directions V (N, k, n)
    at points x (N, n), shape (N, k): the derivative of the pairing along
    the geodesic flow, and the bundle integrand F(x, V) of the fiber lemma.

    The rate vanishes for Killing fields and equals the conformal factor on
    unit vectors for conformal fields; its fiber average over unit
    directions is (omega_{n-1} / n) * div X.
    """
    return _quadratic(pairing_rate_form(field, m, x), V)


def endpoint_bound_check(field, m, states, s: float):
    """Both sides of the two-sided orbit-integral bound, per orbit of the
    states (N, 2n).

    lhs = |integral over [-s, s] of the pairing rate|; rhs = |X| at the two
    orbit endpoints.  The lhs telescopes to a pairing difference, and each
    pairing is at most the field norm on unit vectors, so lhs <= rhs up to
    integration error.  Both legs run forward over [0, s] in one stack: the
    backward leg is the orbit of the flipped velocity.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    N, n = len(states), m.dim
    both = np.vstack([states, flipped(m, states)])
    end = _whole(integrate_geodesic(m, both, s, integrand=field)).y_end
    # the rate is quadratic in v, so the flipped leg carries the integral
    # over [-s, 0]; the backward leg's integral from 0 down to -s is minus it
    lhs = np.abs(end[:N, -1] + end[N:, -1])
    rhs = field_norm(field, m, end[:N, :n]) + field_norm(field, m, end[N:, :n])
    return lhs, rhs


# ---------------------------------------------------------------------------
# metric matrices


def _torus_metric(x):
    return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))


def _revolution_metric(x):
    x0 = x[..., 0]
    fp = zoo._df(x0)
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0 + fp * fp
    g[..., 1, 1] = zoo._ipow(zoo._f(x0), 2)
    return g


def _hyperbolic_metric(x):
    # g = I - x x^T / z^2, which cancels to about |x|^2 eps far out
    x0, x1 = x[..., 0], x[..., 1]
    z2 = 1.0 + x0 * x0 + x1 * x1
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0 - x0 * x0 / z2
    g[..., 0, 1] = g[..., 1, 0] = 0.0 - x0 * x1 / z2
    g[..., 1, 1] = 1.0 - x1 * x1 / z2
    return g


def _radial_metric(prof):
    def metric(x):
        r = x[..., 0]
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = zoo._ipow(np.sinh(r), 2)
        g[..., 2, 2] = np.square(prof.b(r))
        return g
    return metric


def _ex4_metric(x):
    # block metric [[g_H2, 0], [0, 1/z^4]]
    g = np.zeros(x.shape[:-1] + (3, 3))
    g[..., :2, :2] = _hyperbolic_metric(x[..., :2])
    g[..., 2, 2] = np.square(1.0 / (1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]))
    return g


# zoo manifold name -> its metric matrix
_METRICS = {zoo.manifold(mid).name: fn for mid, fn in (
    ("torus", _torus_metric),
    ("revolution:1/(1+x^2)", _revolution_metric),
    ("hyperbolic", _hyperbolic_metric),
    ("warp:ex2", _radial_metric(zoo.warp_profile_finite_volume())),
    ("warp:ex3", _radial_metric(zoo.warp_profile_infinite_volume())),
    ("warp:ex4", _ex4_metric))}


def metric_matrix(m, x) -> np.ndarray:
    """The metric matrix g_ij of the zoo manifold m at x of shape (..., n),
    written out apart from its ``inner``; not validated."""
    return _METRICS[m.name](np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Christoffel tensors


def _torus_symbols(x):
    return np.zeros(x.shape[:-1] + (2, 2, 2))


def _revolution_symbols(x):
    x0 = x[..., 0]
    fx, fp, fpp = zoo._f(x0), zoo._df(x0), zoo._d2f(x0)
    d = 1.0 + fp * fp
    G = np.zeros(x.shape[:-1] + (2, 2, 2))
    G[..., 0, 0, 0] = fp * fpp / d
    G[..., 0, 1, 1] = -fx * fp / d
    G[..., 1, 0, 1] = G[..., 1, 1, 0] = fp / fx
    return G


def _hyperbolic_symbols(x):
    # G[k, i, j] = -x_k g_ij
    return -x[..., :, None, None] * _hyperbolic_metric(x)[..., None, :, :]


def _radial_symbols(prof):
    def symbols(x):
        r = x[..., 0]
        sh, ch = np.sinh(r), np.cosh(r)
        b, bp = prof.b_db(r)
        G = np.zeros(x.shape[:-1] + (3, 3, 3))
        G[..., 0, 1, 1] = -sh * ch
        G[..., 0, 2, 2] = -b * bp
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = ch / sh
        G[..., 2, 0, 2] = G[..., 2, 2, 0] = bp / b
        return G
    return symbols


def _ex4_symbols(x):
    # base block -x_a g_bc plus the warp couplings of h = 1/z^2
    x0, x1 = x[..., 0], x[..., 1]
    z2 = 1.0 + x0 * x0 + x1 * x1
    G = np.zeros(x.shape[:-1] + (3, 3, 3))
    G[..., :2, :2, :2] = _hyperbolic_symbols(x[..., :2])
    G[..., 0, 2, 2] = 2.0 * x0 / (z2 * z2)
    G[..., 1, 2, 2] = 2.0 * x1 / (z2 * z2)
    G[..., 2, 0, 2] = G[..., 2, 2, 0] = -2.0 * x0 / z2
    G[..., 2, 1, 2] = G[..., 2, 2, 1] = -2.0 * x1 / z2
    return G


# zoo manifold name -> its closed-form tensor
_SYMBOLS = {zoo.manifold(mid).name: fn for mid, fn in (
    ("torus", _torus_symbols),
    ("revolution:1/(1+x^2)", _revolution_symbols),
    ("hyperbolic", _hyperbolic_symbols),
    ("warp:ex2", _radial_symbols(zoo.warp_profile_finite_volume())),
    ("warp:ex3", _radial_symbols(zoo.warp_profile_infinite_volume())),
    ("warp:ex4", _ex4_symbols))}


def christoffel_symbols(m, x) -> np.ndarray:
    """The closed-form Christoffel tensor G[..., k, i, j] of the zoo
    manifold m at x of shape (..., n)."""
    return _SYMBOLS[m.name](np.asarray(x, dtype=float))


def fd_christoffel(m, x) -> np.ndarray:
    """Christoffel symbols of the zoo manifold m at x from central
    differences of its metric matrix; raises DomainError where a stencil
    leaves the chart domain."""
    return _fd_symbols(_METRICS[m.name], m, x)


def _fd_symbols(metric, m, x) -> np.ndarray:
    """Christoffel symbols at x from central differences of the matrix
    function ``metric`` on the chart of m."""
    x = np.asarray(x, dtype=float)
    n = m.dim
    h = _fd_steps(x)
    dg = np.empty(x.shape[:-1] + (n, n, n))
    for a in range(n):
        xp, xm = _stencil(m, x, h, a)
        dg[..., a, :, :] = (metric(xp) - metric(xm)) / (2.0 * h[..., a, None, None])
    # exact index symmetry of the symbols below needs dg[a] symmetric
    dg = 0.5 * (dg + np.swapaxes(dg, -1, -2))
    # Gamma_{l ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    first = 0.5 * (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", np.linalg.inv(metric(x)), first)


def contract(G, a, b) -> np.ndarray:
    """Gamma(a, b)^k = G[k, i, j] a^i b^j, broadcast over leading axes."""
    return np.einsum("...kij,...i,...j->...k", G, a, b)


def fd_connection(m):
    """Gamma(a, b) of m through its finite-difference symbols, as a
    ``connection`` closure."""
    return lambda x, a, b: contract(fd_christoffel(m, x), a, b)


def from_metric(name, dim, metric, **kw) -> ChartedManifold:
    """A manifold given by its metric matrix alone: g(a, b) = a @ g @ b and
    the connection of its finite-difference symbols."""
    def inner(x, a, b):
        return (a[..., None, :] @ metric(x) @ b[..., :, None])[..., 0, 0]

    def connection(x, a, b):
        return contract(_fd_symbols(metric, m, x), a, b)

    m = ChartedManifold(name=name, dim=dim, inner=inner, connection=connection, **kw)
    return m


def tensor_rate_form(field, m, x) -> np.ndarray:
    """``pairing_rate_form`` with the covariant derivative J + G X formed
    from the oracle tensor: the symmetrized g (J + G X) at x."""
    x = np.asarray(x, dtype=float)
    G = christoffel_symbols(m, x)
    A = _field_jacobian(field, m, x) + np.einsum("...kij,...j->...ki", G, _components(field, x))
    Q = metric_matrix(m, x) @ A
    return 0.5 * (Q + np.swapaxes(Q, -1, -2))


# ---------------------------------------------------------------------------
# the zoo's (manifold, field) pairs


# the six canonical (manifold, field) pairs exercised by the verification suite
PAIR_IDS = tuple((zoo.field_manifold_id(fid), fid) for fid in zoo.FIELD_IDS
                 if zoo.field_manifold_id(fid) != "torus")


def field_pairs() -> list:
    """The six canonical (manifold, field) pairs, in catalog order."""
    return [(zoo.manifold(mid), zoo.vector_field(fid)) for mid, fid in PAIR_IDS]


# ---------------------------------------------------------------------------
# divergences and pairing rates of the zoo fields


def _revolution_W_fx(x, v):
    # rate of the velocity pairing, written through the ambient picture
    fx_, fp = zoo._f(x[0]), zoo._df(x[0])
    c, s = math.cos(x[1]), math.sin(x[1])
    yz = np.array([fx_ * c, fx_ * s])
    a = v[0]
    bc = np.array([v[0] * fp * c - v[1] * fx_ * s,
                   v[0] * fp * s + v[1] * fx_ * c])
    return a * (1.0 + 3.0 * x[0] ** 2) * (-yz[1] * bc[0] + bc[1] * yz[0])


def _h2_conformal_fx(x, v):
    # conformal factor on unit velocities
    return math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)


def _ex4_Z_fx(x, v):
    # split a unit velocity into base and fiber parts:
    # rate = z |v_B|^2 + (X h / h) |v_F|^2
    z2 = 1.0 + x[0] ** 2 + x[1] ** 2
    z = math.sqrt(z2)
    gB = _hyperbolic_metric(x[:2])
    vB = np.asarray(v[:2])
    nB2 = float(vB @ gB @ vB)
    h = 1.0 / z2
    nF2 = (h * v[2]) ** 2
    xf_over_f = -2.0 * (x[0] ** 2 + x[1] ** 2) / z
    return z * nB2 + xf_over_f * nF2


_WAVE_K = zoo.TWO_PI   # the wave number of torus:wave

# field id -> div X at a stack of points (..., n)
DIVERGENCE = {
    "revolution:W": zoo._constant(0.0),
    "hyperbolic:conformal":
        lambda x: 2.0 * np.sqrt(1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]),
    "hyperbolic:rotation": zoo._constant(0.0),
    "warp:ex4:Z": lambda x: 2.0 / np.sqrt(1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]),
    "torus:wave": lambda x: _WAVE_K * (np.cos(_WAVE_K * x[..., 0]) + np.cos(_WAVE_K * x[..., 1])),
}

# field id -> the pairing rate g(nabla_v X, v) at one unit state (x, v)
FX = {
    "revolution:W": _revolution_W_fx,
    "hyperbolic:conformal": _h2_conformal_fx,
    "hyperbolic:rotation": lambda x, v: 0.0,
    "warp:ex4:Z": _ex4_Z_fx,
}


# ---------------------------------------------------------------------------
# the hyperbolic geodesic and the revolution embedding


def hyperbolic_geodesic(x0, v0, t):
    """The unit-speed geodesic of the hyperbolic plane through (x0, v0) at
    time t, gamma(t) = cosh(t) P + sinh(t) V with (P, V) the state lifted to
    the hyperboloid, as chart position and velocity."""
    z = math.sqrt(1.0 + x0[0] * x0[0] + x0[1] * x0[1])
    P = np.array([x0[0], x0[1], z])
    V = np.array([v0[0], v0[1], (x0[0] * v0[0] + x0[1] * v0[1]) / z])
    ct, st = math.cosh(t), math.sinh(t)
    G = ct * P + st * V
    Gdot = st * P + ct * V
    return G[:2].copy(), Gdot[:2].copy()


def revolution_embedding(x):
    """The revolution surface's chart point (x, t) in Euclidean 3-space."""
    return np.array([x[0], zoo._f(x[0]) * math.cos(x[1]), zoo._f(x[0]) * math.sin(x[1])])


def revolution_embedding_jacobian(x):
    """The Jacobian of ``revolution_embedding``, one column per chart axis."""
    fx, fp = zoo._f(x[0]), zoo._df(x[0])
    c, s = math.cos(x[1]), math.sin(x[1])
    return np.array([[1.0, 0.0], [fp * c, -fx * s], [fp * s, fx * c]])
