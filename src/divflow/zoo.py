"""Closed-form constructions of the test manifolds and vector fields.

The zoo ships:
  torus                    flat unit square torus (trivially recurrent testbed)
  revolution:1/(1+x^2)     finite-area surface of revolution carrying a
                           divergence-free field W with non-integrable norm
  hyperbolic               hyperbolic plane in the hyperboloid graph chart,
                           with a conformal field and a Killing rotation
  warp:ex2                 finite-volume warped product (hyperbolic plane
                           x circle) with a Killing horizontal lift whose
                           norm grows like sinh r
  warp:ex3                 infinite-volume warped product with a Killing
                           vertical lift whose norm decays to zero
  warp:ex4                 finite-volume warped product carrying the
                           horizontal lift of a conformal field, with
                           div Z = 2/sqrt(1+x^2+y^2) and integral 4 pi^2

Every manifold and field is built directly from its closed form: one
almost-everywhere chart with closed-form Christoffel symbols and a bounded
default sampling box; all but the torus also carry a radius surrogate with
matching shell parametrization and a default radius cap for sampling.  The
warped products write out their block metric, and the lifted fields their
product components.  ``_MANIFOLDS`` and ``_FIELDS`` are the one catalog; the
public id tuples are derived from them.

The chart, shell and field closures index only the last axis (``x[..., 0]``),
so they take any stack of shape (..., n) and return the matching leading
shape, with the same values on one point as on a stack.  The oracles that
tests compare against (the fields' ``fx``, the analytic hyperbolic geodesic
and the revolution embedding) take one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import ChartedManifold, VectorFieldDef
from .integrals import ShellPatch

__all__ = [
    "WarpProfile",
    "AmbientEmbedding",
    "make_flat_torus",
    "make_surface_of_revolution",
    "make_hyperbolic_plane",
    "make_example4",
    "warp_profile_finite_volume",
    "warp_profile_infinite_volume",
    "manifold",
    "vector_field",
    "field_pairs",
    "list_zoo",
    "MANIFOLD_IDS",
    "FIELD_IDS",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# profiles


def _ipow(x, k: int):
    """x**k as products: numpy's power of a scalar and of an array can differ
    in the last bit, so closures use this instead of ``**``."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _f(x):
    """Revolution profile f(x) = 1/(1+x^2)."""
    return 1.0 / (1.0 + x * x)


def _df(x):
    return -2.0 * x / _ipow(1.0 + x * x, 2)


def _d2f(x):
    return (6.0 * x * x - 2.0) / _ipow(1.0 + x * x, 3)


class _HermiteBlend:
    """Polynomial blend matching the listed derivatives at both ends.

    With k derivative values per end the polynomial has degree 2k - 1; the
    default (value through 4th derivative) makes the joined profile C4, so
    an order-5 orbit integrator sees enough smoothness across the seams.

    The coefficients are solved and evaluated in the shifted variable
    s = r - r0.  In raw r the power basis on [1, 2] is ill-conditioned: its
    coefficients reach ~1e4 and cancel to an O(1) value, leaving ~1e-10 of
    rounding noise in b that finite differences amplify.
    """

    def __init__(self, r0, r1, left, right):
        k = len(left)
        deg = 2 * k - 1
        rows, rhs = [], []
        for s, vals in ((0.0, left), (r1 - r0, right)):
            for d in range(k):
                row = [0.0] * (deg + 1)
                for p in range(d, deg + 1):
                    row[p] = math.perm(p, d) * s ** (p - d)
                rows.append(row)
            rhs.extend(vals)
        coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
        self.r0 = r0
        self.poly = np.polynomial.Polynomial(coeffs)
        self.dpoly = self.poly.deriv()

    def __call__(self, r):
        return self.poly(r - self.r0)

    def deriv(self, r):
        return self.dpoly(r - self.r0)


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """Radial warp b(r): the plateau 1 on |r| < 1, a blend on [1, 2]
    matching value through the 4th derivative at both ends (so b is C4),
    then an explicit tail.

    "finite-volume": b = (sinh 2 / sinh r)^2 for r >= 2, so sinh(r)^2 b(r)
    is constant and the volume integrand b sinh is integrable.
    "infinite-volume": b = 2 / (1 + r), so b -> 0 while sinh(r) b(r)^p
    grows without bound for every p.
    """

    name: str
    b: Callable[[float], float]
    db: Callable[[float], float]


def _profile_from_tail(name, tail_derivs) -> WarpProfile:
    tail = tail_derivs[0]
    dtail = tail_derivs[1]
    blend = _HermiteBlend(1.0, 2.0, (1.0, 0.0, 0.0, 0.0, 0.0),
                          tuple(d(2.0) for d in tail_derivs))

    def pieces(r, plateau, mid, far):
        # each piece sees only its own radii (the tails divide by sinh r);
        # a piece with no radii is skipped (one radius needs one piece)
        ar = np.abs(np.asarray(r, dtype=float))
        out = np.full(ar.shape, plateau)
        for on, piece in (((ar >= 1.0) & (ar < 2.0), mid), (ar >= 2.0, far)):
            if on.any():
                out[on] = piece(ar[on])
        return out[()]

    def b(r):
        return pieces(r, 1.0, blend, tail)

    def db(r):
        return np.sign(r) * pieces(r, 0.0, blend.deriv, dtail)

    return WarpProfile(name=name, b=b, db=db)


def warp_profile_finite_volume() -> WarpProfile:
    c = math.sinh(2.0) ** 2

    def d0(r):
        return c / _ipow(np.sinh(r), 2)

    def d1(r):
        return -2.0 * c * np.cosh(r) / _ipow(np.sinh(r), 3)

    def d2(r):
        return 2.0 * c * (math.cosh(2.0 * r) + 2.0) / math.sinh(r) ** 4

    def d3(r):
        sh = math.sinh(r)
        return -8.0 * c * (sh * sh + 3.0) * math.cosh(r) / sh ** 5

    def d4(r):
        s2 = math.sinh(r) ** 2
        return 8.0 * c * (2.0 * s2 * s2 + 15.0 * s2 + 15.0) / s2 ** 3

    return _profile_from_tail("finite-volume", (d0, d1, d2, d3, d4))


def warp_profile_infinite_volume() -> WarpProfile:
    derivs = tuple(
        (lambda r, k=k: 2.0 * (-1.0) ** k * math.factorial(k) / _ipow(1.0 + r, k + 1))
        for k in range(5))
    return _profile_from_tail("infinite-volume", derivs)


# ---------------------------------------------------------------------------
# flat torus


def make_flat_torus() -> ChartedManifold:
    """Flat square torus of side 1."""
    eye = np.eye(2)

    return ChartedManifold(
        name="torus(L=1)",
        dim=2,
        metric=lambda x: np.broadcast_to(eye, x.shape[:-1] + (2, 2)),
        periods=(1.0, 1.0),
        christoffel=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)),
        sample_box=((0.0, 1.0), (0.0, 1.0)),
        description="flat square torus of side 1; geodesics are straight lines mod 1",
    )


# ---------------------------------------------------------------------------
# surface of revolution


@dataclass(frozen=True, eq=False)
class AmbientEmbedding:
    """Map into Euclidean 3-space with its Jacobian (columns per chart axis)."""

    map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


class _MeridianArclength:
    """Arclength along the profile curve from x = 0, tabulated once.

    r(x) = integral of sqrt(1 + f'(s)^2); monotone, so both directions are
    served by interpolation on a dense grid over [0, X_MAX].
    """

    X_MAX = 4200.0

    def __init__(self):
        xs = np.linspace(0.0, self.X_MAX, 400001)
        slopes = np.sqrt(1.0 + _df(xs) ** 2)
        mids = 0.5 * (slopes[1:] + slopes[:-1])
        rs = np.concatenate([[0.0], np.cumsum(mids * np.diff(xs))])
        self.xs, self.rs = xs, rs

    def r_of_x(self, x):
        ax = np.abs(x)
        if np.any(ax > self.X_MAX):
            raise ValueError(f"arclength table ends at |x| = {self.X_MAX}")
        return np.interp(ax, self.xs, self.rs)

    def x_of_r(self, r):
        if np.any(r > self.rs[-1]):
            raise ValueError(f"arclength table ends at r = {self.rs[-1]:.1f}")
        return np.interp(r, self.rs, self.xs)


def make_surface_of_revolution() -> tuple[ChartedManifold, AmbientEmbedding]:
    """Rotate the graph of f(x) = 1/(1+x^2) about the x axis.

    Chart (x, t) with metric diag(1 + f'(x)^2, f(x)^2), t periodic; the
    radius surrogate is meridian arclength from x = 0.
    """

    def metric(x):
        x0 = x[..., 0]
        fp = _df(x0)
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0 + fp * fp
        g[..., 1, 1] = _ipow(_f(x0), 2)
        return g

    def christoffel(x):
        x0 = x[..., 0]
        fx, fp, fpp = _f(x0), _df(x0), _d2f(x0)
        d = 1.0 + fp * fp
        G = np.zeros(x.shape[:-1] + (2, 2, 2))
        G[..., 0, 0, 0] = fp * fpp / d
        G[..., 0, 1, 1] = -fx * fp / d
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = fp / fx
        return G

    arc = _MeridianArclength()

    def shell(r_lo: float, r_hi: float):
        def to_chart(sign):
            def along(u):
                x = np.array(u, dtype=float)
                x[..., 0] = sign * arc.x_of_r(u[..., 0])
                return x
            return along

        def density(u):
            # meridian is unit-speed in s, so the area density reduces to f
            return _f(arc.x_of_r(u[..., 0]))

        bounds = ((float(r_lo), float(r_hi)), (0.0, TWO_PI))
        return (ShellPatch(bounds, to_chart(1.0), density, "meridian+"),
                ShellPatch(bounds, to_chart(-1.0), density, "meridian-"))

    def embed(x):
        return np.array([x[0], _f(x[0]) * math.cos(x[1]), _f(x[0]) * math.sin(x[1])])

    def embed_jac(x):
        fx, fp = _f(x[0]), _df(x[0])
        c, s = math.cos(x[1]), math.sin(x[1])
        return np.array([[1.0, 0.0], [fp * c, -fx * s], [fp * s, fx * c]])

    m = ChartedManifold(
        name="revolution:1/(1+x^2)",
        dim=2,
        metric=metric,
        periods=(None, TWO_PI),
        christoffel=christoffel,
        radius=lambda x: arc.r_of_x(x[..., 0]),
        shell=shell,
        sample_box=((-8.0, 8.0), (0.0, TWO_PI)),
        radius_cap=4.0,
        description="surface of revolution of f(x) = 1/(1+x^2) about the x axis",
    )
    return m, AmbientEmbedding(map=embed, jacobian=embed_jac)


# ---------------------------------------------------------------------------
# hyperbolic plane (hyperboloid graph chart)


def _h2_lift(x):
    z = math.sqrt(1.0 + x[0] * x[0] + x[1] * x[1])
    return np.array([x[0], x[1], z])


def _h2_lift_velocity(x, v):
    P = _h2_lift(x)
    return np.array([v[0], v[1], (x[0] * v[0] + x[1] * v[1]) / P[2]])


def _h2_metric(x):
    x0, x1 = x[..., 0], x[..., 1]
    z2 = 1.0 + x0 * x0 + x1 * x1
    g = np.empty(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0 - x0 * x0 / z2
    g[..., 0, 1] = g[..., 1, 0] = 0.0 - x0 * x1 / z2
    g[..., 1, 1] = 1.0 - x1 * x1 / z2
    return g


def _h2_christoffel(x):
    # G[k, i, j] = -x_k g_ij
    return -x[..., :, None, None] * _h2_metric(x)[..., None, :, :]


def make_hyperbolic_plane() -> ChartedManifold:
    """Hyperbolic plane as the graph chart (x, y) -> (x, y, sqrt(1+x^2+y^2))
    of the upper hyperboloid sheet, metric pulled back from the Lorentz form.

    Carries the analytic geodesic gamma(t) = cosh(t) P + sinh(t) V, and as
    radius surrogate the exact distance from the apex, arccosh(z).
    """

    def geodesic(x0, v0, t):
        P = _h2_lift(x0)
        V = _h2_lift_velocity(x0, v0)
        ct, st = math.cosh(t), math.sinh(t)
        G = ct * P + st * V
        Gdot = st * P + ct * V
        return G[:2].copy(), Gdot[:2].copy()

    def radius(x):
        x0, x1 = x[..., 0], x[..., 1]
        return np.arccosh(np.maximum(1.0, np.sqrt(1.0 + x0 * x0 + x1 * x1)))

    def shell(r_lo, r_hi):
        def to_chart(u):
            s = np.sinh(u[..., 0])
            return np.stack([s * np.cos(u[..., 1]), s * np.sin(u[..., 1])], axis=-1)

        return (ShellPatch(((float(r_lo), float(r_hi)), (0.0, TWO_PI)),
                           to_chart, lambda u: np.sinh(u[..., 0]), "polar"),)

    return ChartedManifold(
        name="hyperbolic",
        dim=2,
        metric=_h2_metric,
        christoffel=_h2_christoffel,
        radius=radius,
        geodesic=geodesic,
        shell=shell,
        sample_box=((-3.0, 3.0), (-3.0, 3.0)),
        radius_cap=2.0,
        radius_escape_certificate=True,
        description="hyperbolic plane (curvature -1), hyperboloid graph chart",
    )


# ---------------------------------------------------------------------------
# the three warped products


def _radial_example(prof: WarpProfile, name: str) -> ChartedManifold:
    """Hyperbolic plane in geodesic polar coordinates (r, theta) times the
    circle, warped by the radial profile b(r): metric diag(1, sinh^2 r,
    b(r)^2) on r > 0, with direct symbols and radial shells."""

    def metric(x):
        r = x[..., 0]
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = _ipow(np.sinh(r), 2)
        g[..., 2, 2] = np.square(prof.b(r))
        return g

    def christoffel(x):
        r = x[..., 0]
        sh, ch = np.sinh(r), np.cosh(r)
        b, bp = prof.b(r), prof.db(r)
        G = np.zeros(x.shape[:-1] + (3, 3, 3))
        G[..., 0, 1, 1] = -sh * ch
        G[..., 0, 2, 2] = -b * bp
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = ch / sh
        G[..., 2, 0, 2] = G[..., 2, 2, 0] = bp / b
        return G

    def shell(r_lo, r_hi):
        def density(u):
            return np.sinh(u[..., 0]) * prof.b(u[..., 0])

        bounds = ((float(r_lo), float(r_hi)), (0.0, TWO_PI), (0.0, TWO_PI))
        # the profile is C4 with seams at the plateau and tail junctions
        return (ShellPatch(bounds, lambda u: u, density, "radial",
                           breakpoints=((1.0, 2.0), (), ())),)

    return ChartedManifold(
        name=name,
        dim=3,
        metric=metric,
        domain=lambda x: x[..., 0] > 0.0,
        periods=(None, TWO_PI, TWO_PI),
        christoffel=christoffel,
        radius=lambda x: x[..., 0],
        shell=shell,
        sample_box=((0.3, 5.0), (0.0, TWO_PI), (0.0, TWO_PI)),
        radius_cap=3.0,
        description="warped product of hyperbolic-polar and circle "
                    f"(profile {prof.name}, plateau 1)",
    )


def make_example4() -> ChartedManifold:
    """Finite-volume warped product of the graph-chart hyperbolic plane and
    the circle, warp 1/z^2 with z the hyperboloid height: block metric
    [[g_H2, 0], [0, 1/z^4]]."""

    def metric(x):
        g = np.zeros(x.shape[:-1] + (3, 3))
        g[..., :2, :2] = _h2_metric(x[..., :2])
        g[..., 2, 2] = np.square(1.0 / (1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]))
        return g

    def christoffel(x):
        # base block -x_a g_bc plus the warp couplings of h = 1/z^2
        x0, x1 = x[..., 0], x[..., 1]
        z2 = 1.0 + x0 * x0 + x1 * x1
        G = np.zeros(x.shape[:-1] + (3, 3, 3))
        # as in _h2_metric, inlined for speed
        g00, g01, g11 = 1.0 - x0 * x0 / z2, 0.0 - x0 * x1 / z2, 1.0 - x1 * x1 / z2
        G[..., 0, 0, 0], G[..., 1, 0, 0] = -x0 * g00, -x1 * g00
        G[..., 0, 0, 1] = G[..., 0, 1, 0] = -x0 * g01
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = -x1 * g01
        G[..., 0, 1, 1], G[..., 1, 1, 1] = -x0 * g11, -x1 * g11
        G[..., 0, 2, 2] = 2.0 * x0 / (z2 * z2)
        G[..., 1, 2, 2] = 2.0 * x1 / (z2 * z2)
        G[..., 2, 0, 2] = G[..., 2, 2, 0] = -2.0 * x0 / z2
        G[..., 2, 1, 2] = G[..., 2, 2, 1] = -2.0 * x1 / z2
        return G

    def radius(x):
        return np.arccosh(np.maximum(1.0, np.sqrt(1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])))

    def shell(r_lo, r_hi):
        def to_chart(u):
            s = np.sinh(u[..., 0])
            return np.stack([s * np.cos(u[..., 1]), s * np.sin(u[..., 1]), u[..., 2]], axis=-1)

        def density(u):
            # base polar density sinh(d) times the warp 1/cosh(d)^2
            return np.sinh(u[..., 0]) / _ipow(np.cosh(u[..., 0]), 2)

        bounds = ((float(r_lo), float(r_hi)), (0.0, TWO_PI), (0.0, TWO_PI))
        return (ShellPatch(bounds, to_chart, density, "polar"),)

    return ChartedManifold(
        name="warp:ex4",
        dim=3,
        metric=metric,
        periods=(None, None, TWO_PI),
        christoffel=christoffel,
        radius=radius,
        shell=shell,
        sample_box=((-3.0, 3.0), (-3.0, 3.0), (0.0, TWO_PI)),
        radius_cap=3.0,
        description="warped product of the hyperbolic plane and a circle, warp 1/z^2; "
                    "total volume 4 pi^2",
    )


# ---------------------------------------------------------------------------
# fields


def _constant(value):
    """Closure returning ``value`` at every point of a stack."""
    value = np.asarray(value, dtype=float)
    return lambda x: np.broadcast_to(value, x.shape[:-1] + value.shape)


def _revolution_W() -> VectorFieldDef:
    """Rotational field W = x (1 + x^2) d/dt on the revolution surface.

    Divergence-free (the density is t-independent), with |W| = |x|, which is
    not integrable over the surface.
    """

    def components(x):
        x0 = x[..., 0]
        out = np.zeros(x.shape)
        out[..., 1] = x0 * (1.0 + x0 * x0)
        return out

    def jacobian(x):
        x0 = x[..., 0]
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 1, 0] = 1.0 + 3.0 * x0 * x0
        return J

    def fx(x, v):
        # rate of the velocity pairing, written through the ambient picture
        fx_, fp = _f(x[0]), _df(x[0])
        c, s = math.cos(x[1]), math.sin(x[1])
        yz = np.array([fx_ * c, fx_ * s])
        a = v[0]
        bc = np.array([v[0] * fp * c - v[1] * fx_ * s,
                       v[0] * fp * s + v[1] * fx_ * c])
        return a * (1.0 + 3.0 * x[0] ** 2) * (-yz[1] * bc[0] + bc[1] * yz[0])

    return VectorFieldDef(name="W", components=components, jacobian=jacobian,
                          divergence=_constant(0.0), fx=fx)


def _h2_rotation() -> VectorFieldDef:
    """Killing rotation about the hyperboloid axis; vanishes at the apex."""
    return VectorFieldDef(
        name="rotation",
        components=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
        jacobian=_constant([[0.0, -1.0], [1.0, 0.0]]),
        divergence=_constant(0.0),
        fx=lambda x, v: 0.0,
    )


def _h2_conformal() -> VectorFieldDef:
    """Projection of the downward axis direction onto the hyperboloid.

    Conformal with factor z: the symmetrized covariant differential is
    2 z g, so the velocity-pairing rate on unit vectors equals z and the
    divergence is 2 z.
    """

    def components(x):
        x0, x1 = x[..., 0], x[..., 1]
        z = np.sqrt(1.0 + x0 * x0 + x1 * x1)
        return np.stack([x0 * z, x1 * z], axis=-1)

    def jacobian(x):
        x0, x1 = x[..., 0], x[..., 1]
        z = np.sqrt(1.0 + x0 * x0 + x1 * x1)
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = z + x0 * x0 / z
        J[..., 0, 1] = J[..., 1, 0] = x0 * x1 / z
        J[..., 1, 1] = z + x1 * x1 / z
        return J

    def fx(x, v):
        # conformal factor on unit velocities
        return math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)

    return VectorFieldDef(
        name="conformal",
        components=components,
        jacobian=jacobian,
        divergence=lambda x: 2.0 * np.sqrt(1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]),
        fx=fx,
    )


def _ex2_Zbar() -> VectorFieldDef:
    """Horizontal lift of the polar rotation d/dtheta: (0, 1, 0)."""
    return VectorFieldDef(name="polar-rotation-horizontal-lift",
                          components=_constant([0.0, 1.0, 0.0]),
                          jacobian=_constant(np.zeros((3, 3))))


def _ex3_Ubar() -> VectorFieldDef:
    """Vertical lift of the unit circle field: (0, 0, 1)."""
    return VectorFieldDef(name="circle-unit-vertical-lift",
                          components=_constant([0.0, 0.0, 1.0]),
                          jacobian=_constant(np.zeros((3, 3))))


def _ex4_Z() -> VectorFieldDef:
    """Horizontal lift (X, 0) of the conformal field X to warp:ex4."""
    X = _h2_conformal()

    def components(x):
        out = np.zeros(x.shape)
        out[..., :2] = X.components(x[..., :2])
        return out

    def jacobian(x):
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., :2, :2] = X.jacobian(x[..., :2])
        return J

    def divergence(x):
        return 2.0 / np.sqrt(1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])

    def fx(x, v):
        # split a unit velocity into base and fiber parts:
        # rate = z |v_B|^2 + (X h / h) |v_F|^2
        z2 = 1.0 + x[0] ** 2 + x[1] ** 2
        z = math.sqrt(z2)
        gB = _h2_metric(x[:2])
        vB = np.asarray(v[:2])
        nB2 = float(vB @ gB @ vB)
        h = 1.0 / z2
        nF2 = (h * v[2]) ** 2
        xf_over_f = -2.0 * (x[0] ** 2 + x[1] ** 2) / z
        return z * nB2 + xf_over_f * nF2

    return VectorFieldDef(name="Z", components=components, jacobian=jacobian,
                          divergence=divergence, fx=fx)


def torus_wave_field() -> VectorFieldDef:
    """Smooth periodic field on the unit torus with non-constant divergence."""
    k = TWO_PI

    def components(x):
        return np.sin(k * x)

    def jacobian(x):
        c = k * np.cos(k * x)
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0], J[..., 1, 1] = c[..., 0], c[..., 1]
        return J

    return VectorFieldDef(
        name="wave",
        components=components,
        jacobian=jacobian,
        divergence=lambda x: k * (np.cos(k * x[..., 0]) + np.cos(k * x[..., 1])),
    )


# ---------------------------------------------------------------------------
# catalog


# id -> builder, in listing order
_MANIFOLDS = {
    "torus": make_flat_torus,
    "revolution:1/(1+x^2)": lambda: make_surface_of_revolution()[0],
    "hyperbolic": make_hyperbolic_plane,
    "warp:ex2": lambda: _radial_example(warp_profile_finite_volume(), "warp:ex2"),
    "warp:ex3": lambda: _radial_example(warp_profile_infinite_volume(), "warp:ex3"),
    "warp:ex4": make_example4,
}

# id -> (manifold id, description, builder), in listing order
_FIELDS = {
    "revolution:W": (
        "revolution:1/(1+x^2)",
        "divergence-free rotational field with |W| = |x| (non-integrable norm)",
        _revolution_W),
    "hyperbolic:conformal": (
        "hyperbolic", "conformal field with factor z; divergence 2z", _h2_conformal),
    "hyperbolic:rotation": (
        "hyperbolic", "Killing rotation about the apex", _h2_rotation),
    "warp:ex2:Zbar": (
        "warp:ex2", "horizontal lift of the polar rotation; Killing, norm sinh r",
        _ex2_Zbar),
    "warp:ex3:Ubar": (
        "warp:ex3", "vertical lift of the unit circle field; Killing, norm b(r) -> 0",
        _ex3_Ubar),
    "warp:ex4:Z": (
        "warp:ex4", "horizontal lift of the conformal field; div = 2/sqrt(1+x^2+y^2)",
        _ex4_Z),
    "torus:wave": (
        "torus", "periodic wave field on the flat torus", torus_wave_field),
}

MANIFOLD_IDS = tuple(_MANIFOLDS)
FIELD_IDS = tuple(_FIELDS)
# the six canonical (manifold, field) pairs exercised by the verification suite
PAIR_IDS = tuple((mid, fid) for fid, (mid, _, _) in _FIELDS.items() if mid != "torus")


@lru_cache(maxsize=None)
def manifold(mid: str) -> ChartedManifold:
    """Resolve a zoo manifold by its string id."""
    if mid not in _MANIFOLDS:
        raise KeyError(f"unknown manifold id {mid!r}")
    return _MANIFOLDS[mid]()


def _field_entry(fid: str) -> tuple:
    if fid not in _FIELDS:
        raise KeyError(f"unknown field id {fid!r}")
    return _FIELDS[fid]


@lru_cache(maxsize=None)
def vector_field(fid: str) -> VectorFieldDef:
    """Resolve a zoo field by its string id."""
    return _field_entry(fid)[2]()


def field_manifold_id(fid: str) -> str:
    return _field_entry(fid)[0]


def field_pairs() -> list[tuple[ChartedManifold, VectorFieldDef]]:
    """The six canonical (manifold, field) pairs, in catalog order."""
    return [(manifold(mid), vector_field(fid)) for mid, fid in PAIR_IDS]


def list_zoo() -> dict:
    """Stable-ordered listing of manifold and field ids with descriptions."""
    return {
        "manifolds": [
            {"id": mid, "dim": manifold(mid).dim, "description": manifold(mid).description}
            for mid in MANIFOLD_IDS
        ],
        "fields": [
            {"id": fid, "manifold": mid, "description": description}
            for fid, (mid, description, _) in _FIELDS.items()
        ],
    }
