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
The trailing-layout covariant derivative and rate form are the broadcast
calls that ``geometry`` made before it put the direction axis first, kept as
a bit-for-bit reference.  ``TANH_RADIAL`` on warp:ex2 and its Stokes value
on balls check a non-zero integral of div X.  ``abs_form_sphere_integral``
(adaptive quadrature) and ``double_eigenvalue_sphere_integral`` (closed
form) are references for the exact fiber integrals of |v @ Q @ v|.
"""

import math
from functools import partial

import numpy as np
from scipy.integrate import quad

from divflow import zoo
from divflow.flow import _whole, integrate_geodesic
from divflow.geometry import (
    ChartedManifold,
    VectorFieldDef,
    _components,
    _fd_steps,
    _field_jacobian,
    _quadratic,
    _stencil,
    field_norm,
    pairing_rate,
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
    return traj.y_at(t)[..., :2 * traj.manifold.dim]


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
    end = _whole(integrate_geodesic(m, both, s, integrand=partial(pairing_rate, field, m))).y_end
    # the rate is quadratic in v, so the flipped leg carries the integral
    # over [-s, 0]; the backward leg's integral from 0 down to -s is minus it
    lhs = np.abs(end[:N, -1] + end[N:, -1])
    rhs = field_norm(field, m, end[:N, :n]) + field_norm(field, m, end[N:, :n])
    return lhs, rhs


# ---------------------------------------------------------------------------
# metric matrices


def _f(x):
    """The revolution profile f(x) = 1/(1+x^2)."""
    return 1.0 / (1.0 + x * x)


def _df(x):
    return -2.0 * x / (1.0 + x * x) ** 2


def _torus_metric(x):
    return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))


def _revolution_metric(x):
    x0 = x[..., 0]
    fp = _df(x0)
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0 + fp * fp
    g[..., 1, 1] = zoo._ipow(_f(x0), 2)
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
    fx, fp = _f(x0), _df(x0)
    fpp = (6.0 * x0 * x0 - 2.0) / (1.0 + x0 * x0) ** 3
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


def trailing_covariant_derivative(field, m, x) -> np.ndarray:
    """``covariant_derivative`` with its broadcast ``connection`` call in
    the trailing layout: one basis vector per point along an axis before the
    last, x and X expanded to (..., 1, n)."""
    x = np.asarray(x, dtype=float)
    X = _components(field, x)
    G = m.connection(x[..., None, :], np.eye(m.dim), X[..., None, :])
    return _field_jacobian(field, m, x) + np.swapaxes(G, -1, -2)


def trailing_rate_form(field, m, x) -> np.ndarray:
    """``pairing_rate_form`` with its broadcast ``inner`` call in the
    trailing layout: x expanded to (..., 1, 1, n) against the basis e_k and
    the columns A e_i on the axes before the last."""
    x = np.asarray(x, dtype=float)
    A = trailing_covariant_derivative(field, m, x)
    Q = m.inner(x[..., None, None, :], np.eye(m.dim)[:, None, :],
                np.swapaxes(A, -1, -2)[..., None, :, :])
    return 0.5 * (Q + np.swapaxes(Q, -1, -2))


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
    """The six canonical pairs as (field id, manifold, field), in catalog
    order."""
    return [(fid, zoo.manifold(mid), zoo.vector_field(fid)) for mid, fid in PAIR_IDS]


# ---------------------------------------------------------------------------
# divergences and pairing rates of the zoo fields


def _revolution_W_fx(x, v):
    # rate of the velocity pairing, written through the ambient picture
    fx_, fp = _f(x[0]), _df(x[0])
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
# a field of non-zero divergence: tanh(r) d_r on warp:ex2


def _tanh_radial_components(x):
    X = np.zeros(np.shape(x))
    X[..., 0] = np.tanh(x[..., 0])
    return X


def _tanh_radial_jacobian(x):
    J = np.zeros(np.shape(x)[:-1] + (3, 3))
    c = np.cosh(x[..., 0])
    J[..., 0, 0] = 1.0 / (c * c)
    return J


# X = tanh(r) d_r on warp:ex2: smooth at r = 0, |X| <= 1, and div X != 0
TANH_RADIAL = VectorFieldDef(_tanh_radial_components, _tanh_radial_jacobian)


def tanh_radial_ball_integral(R: float) -> float:
    """Integral of div X over the ball r <= R of warp:ex2 for X =
    ``TANH_RADIAL``, by Stokes: the flux |X| area(r = R) =
    4 pi^2 tanh(R) sinh(R) b(R), which tends to 0 as R grows because
    sinh(R) b(R) = sinh(2)^2 / sinh(R) past R = 2."""
    b = float(zoo.warp_profile_finite_volume().b(R))
    return 4.0 * math.pi ** 2 * math.tanh(R) * math.sinh(R) * b


# ---------------------------------------------------------------------------
# |quadratic form| over the unit sphere


def _quad(g, lo: float, hi: float, points) -> float:
    return quad(g, lo, hi, points=points or None, epsabs=0.0, epsrel=1e-13, limit=400)[0]


def abs_form_sphere_integral(Q) -> float:
    """The integral of |v @ Q @ v| over the unit sphere of R^n, n = 2 or 3,
    for one symmetric matrix Q, by scipy's adaptive ``quad``: a reference
    for ``integrals._abs_form_fiber_integrals`` that shares none of its
    steps but the eigenvalues.

    In 2-D it integrates |v @ Q @ v| over the angle, broken at the form's
    zeros.  In 3-D the pole goes on the eigenvector of the least
    eigenvalue l1 (the package puts it on the middle one), where the form
    at azimuth theta is c + (l1 - c) u^2 in the height u, c = l2 cos^2 +
    l3 sin^2; its absolute value has an exact integral in u, piecewise
    polynomial about its one root, and ``quad`` integrates that in theta,
    broken where c changes sign.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape == (2, 2):
        a, b, d = Q[0, 0], Q[0, 1] + Q[1, 0], Q[1, 1]

        def ring(th):
            c, s = math.cos(th), math.sin(th)
            return abs(a * c * c + b * c * s + d * s * s)

        # zeros: d t^2 + b t + a = 0 in t = tan(theta), or cos(theta) = 0 if d = 0
        roots = [1.0] if d == 0.0 else np.roots([d, b, a])
        zeros = [0.5 * math.pi if d == 0.0 else math.atan(t.real) % math.pi
                 for t in roots if abs(complex(t).imag) == 0.0]
        return 2.0 * _quad(ring, 0.0, math.pi, sorted(zeros))
    l1, l2, l3 = np.linalg.eigvalsh(Q)

    def column(th):
        c = l2 * math.cos(th) ** 2 + l3 * math.sin(th) ** 2
        d = l1 - c
        whole = c + d / 3.0
        if c * l1 >= 0.0:
            return abs(whole)
        u0 = math.sqrt(c / (c - l1))
        part = c * u0 + d * u0 ** 3 / 3.0
        return abs(part) + abs(whole - part)

    kinks = []
    if l2 * l3 < 0.0:
        t = math.atan(math.sqrt(-l2 / l3))
        kinks = [t, math.pi - t]
    # the two hemispheres, and theta and theta + pi
    return 4.0 * _quad(column, 0.0, math.pi, kinks)


def double_eigenvalue_sphere_integral(lam: float, mu: float) -> float:
    """The integral of |v @ Q @ v| over the unit sphere of R^3 for a form
    with eigenvalues (lam, mu, mu), k = 1 - lam / mu > 1: about lam's
    eigenvector the form is mu (1 - k u^2) on every ring at height u, so it
    is 4 pi |mu| [2 (u0 - k u0^3 / 3) - (1 - k / 3)], u0 = k^(-1/2)."""
    k = 1.0 - lam / mu
    u0 = k ** -0.5
    return 4.0 * math.pi * abs(mu) * (2.0 * (u0 - k * u0 ** 3 / 3.0) - (1.0 - k / 3.0))


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
    return np.array([x[0], _f(x[0]) * math.cos(x[1]), _f(x[0]) * math.sin(x[1])])


def revolution_embedding_jacobian(x):
    """The Jacobian of ``revolution_embedding``, one column per chart axis."""
    fx, fp = _f(x[0]), _df(x[0])
    c, s = math.cos(x[1]), math.sin(x[1])
    return np.array([[1.0, 0.0], [fp * c, -fx * s], [fp * s, fx * c]])
