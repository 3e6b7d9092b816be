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
almost-everywhere chart with its metric and Levi-Civita connection as closed
bilinear forms and a bounded default sampling box; all but the torus also
carry a radius surrogate with matching shell parametrization and a default
radius cap for sampling.  Each surrogate is 1-Lipschitz for g and within a
bounded distance of the Riemannian distance, as the annulus conditions
need: the revolution surface's is |x|, within 0.1845 of the meridian
arclength, whose slope in |x| lies in [1, 1.1924].  The warped products
write out g and Gamma of the product, and the lifted fields their product
components; no manifold states g a second time as a matrix.
``_MANIFOLDS`` and ``_FIELDS`` are the one catalog; the public id tuples
are derived from them.

The chart, shell and field closures index only the last axis (``x[..., 0]``),
so they take any stack of shape (..., n) and return the matching leading
shape, with the same values on one point as on a stack; ``inner`` and
``connection`` broadcast their three arguments against each other.  The zoo
holds what the package computes with; the closed forms that tests compare
against (divergences, pairing rates, the hyperbolic geodesic and the
revolution embedding) live with the tests.
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
    "make_flat_torus",
    "make_surface_of_revolution",
    "make_hyperbolic_plane",
    "make_example4",
    "warp_profile_finite_volume",
    "warp_profile_infinite_volume",
    "manifold",
    "vector_field",
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

    ``b_db(r)`` is (b(r), b'(r)) from one pass over the pieces, as the
    connection needs both.
    """

    name: str
    b: Callable[[float], float]
    b_db: Callable[[float], tuple]


def _profile_from_tail(name, tail_derivs) -> WarpProfile:
    tail = tail_derivs[0]
    dtail = tail_derivs[1]
    blend = _HermiteBlend(1.0, 2.0, (1.0, 0.0, 0.0, 0.0, 0.0),
                          tuple(d(2.0) for d in tail_derivs))

    def pieces(r, slope: bool):
        # b, and with ``slope`` also b', from one pass over the pieces: each
        # sees only its own radii (the tails divide by sinh r); a piece with
        # no radii is skipped (one radius needs one piece)
        ar = np.abs(np.asarray(r, dtype=float))
        b = np.ones(ar.shape)
        db = np.zeros(ar.shape) if slope else None
        for on, f, df in (((ar >= 1.0) & (ar < 2.0), blend, blend.deriv),
                          (ar >= 2.0, tail, dtail)):
            if on.any():
                a = ar[on]
                b[on] = f(a)
                if slope:
                    db[on] = df(a)
        return (b[()], np.sign(r) * db[()]) if slope else b[()]

    return WarpProfile(name=name, b=lambda r: pieces(r, False),
                       b_db=lambda r: pieces(r, True))


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
    """Flat square torus of side 1; its connection vanishes in closed form."""
    return ChartedManifold(
        name="torus(L=1)",
        dim=2,
        periods=(1.0, 1.0),
        inner=lambda x, a, b: a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1],
        connection=lambda x, a, b: np.zeros(np.broadcast_shapes(x.shape, a.shape, b.shape)),
        sample_box=((0.0, 1.0), (0.0, 1.0)),
        description="flat square torus of side 1; geodesics are straight lines mod 1",
    )


# ---------------------------------------------------------------------------
# surface of revolution


def make_surface_of_revolution() -> ChartedManifold:
    """Rotate the graph of f(x) = 1/(1+x^2) about the x axis.

    Chart (x, t) with metric diag(1 + f'(x)^2, f(x)^2), t periodic.  The
    radius surrogate is the chart coordinate |x|: 1-Lipschitz for g, as
    g_00 = 1 + f'^2 >= 1, and within 0.1845 of the meridian arclength
    s(x) = integral of sqrt(1 + f'^2) from 0, whose slope ds/d|x| lies in
    [1, 1.1924].  The shells of |x| are the two patches x > 0 and x < 0 in
    (|x|, t), with the closed-form density f sqrt(1 + f'^2) at |x|.
    """

    # f = 1/t, f' = -2x/t^2 and f'' = (6x^2 - 2)/t^3 from one t = 1 + x^2
    def inner(x, a, b):
        x0 = x[..., 0]
        t = 1.0 + x0 * x0
        f, fp = 1.0 / t, -2.0 * x0 / (t * t)
        return (1.0 + fp * fp) * (a[..., 0] * b[..., 0]) + f * f * (a[..., 1] * b[..., 1])

    def connection(x, a, b):
        # Gamma^0_00 = f' f'' / (1 + f'^2), Gamma^0_11 = -f f' / (1 + f'^2),
        # Gamma^1_01 = Gamma^1_10 = f' / f
        x0 = x[..., 0]
        t = 1.0 + x0 * x0
        tt = t * t
        f, fp, fpp = 1.0 / t, -2.0 * x0 / tt, (6.0 * x0 * x0 - 2.0) / (tt * t)
        d = 1.0 + fp * fp
        a0, a1, b0, b1 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
        out = np.empty(np.broadcast_shapes(x0.shape, a0.shape, b0.shape) + (2,))
        np.divide(fp * fpp * (a0 * b0) - f * fp * (a1 * b1), d, out=out[..., 0])
        np.multiply(fp / f, a0 * b1 + a1 * b0, out=out[..., 1])
        return out

    e = np.eye(2)

    def shell(r_lo: float, r_hi: float):
        def density(u):
            # sqrt(det g) of the diagonal g, even in x, at x = +-u_0
            return np.sqrt(inner(u, e[0], e[0]) * inner(u, e[1], e[1]))

        bounds = ((float(r_lo), float(r_hi)), (0.0, TWO_PI))
        return (ShellPatch(bounds, lambda u: u, density),
                ShellPatch(bounds, lambda u: u * (-1.0, 1.0), density))

    return ChartedManifold(
        name="revolution:1/(1+x^2)",
        dim=2,
        periods=(None, TWO_PI),
        inner=inner,
        connection=connection,
        radius=lambda x: np.abs(x[..., 0]),
        shell=shell,
        sample_box=((-8.0, 8.0), (0.0, TWO_PI)),
        radius_cap=4.0,
        description="surface of revolution of f(x) = 1/(1+x^2) about the x axis",
    )


# ---------------------------------------------------------------------------
# hyperbolic plane (hyperboloid graph chart)


def _h2_inner_numerator(x, a, b):
    # z^2 g(a, b) = z^2 a.b - (x.a)(x.b) with z^2 = 1 + |x|^2, through
    # Lagrange's identity |x|^2 a.b - (x.a)(x.b) = (x0 a1 - x1 a0)(x0 b1 -
    # x1 b0), which takes the cancellation out: the matrix form loses about
    # |x|^2 eps.  A quadratic form (b is a) forms its factor once.
    x0, x1 = x[..., 0], x[..., 1]
    ca = x0 * a[..., 1] - x1 * a[..., 0]
    cb = ca if b is a else x0 * b[..., 1] - x1 * b[..., 0]
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + ca * cb


def _h2_inner(x, a, b):
    x0, x1 = x[..., 0], x[..., 1]
    return _h2_inner_numerator(x, a, b) / (1.0 + x0 * x0 + x1 * x1)


def _h2_connection(x, a, b):
    # Gamma(a, b) = -x g(a, b)
    return -x * _h2_inner(x, a, b)[..., None]


def _h2_radius(x):
    # distance from the apex, arccosh(z)
    x0, x1 = x[..., 0], x[..., 1]
    return np.arccosh(np.maximum(1.0, np.sqrt(1.0 + x0 * x0 + x1 * x1)))


def _h2_polar(u):
    """Geodesic polar coordinates (d, theta) about the apex to the graph
    chart; further coordinates pass through."""
    s = np.sinh(u[..., 0])
    return np.stack([s * np.cos(u[..., 1]), s * np.sin(u[..., 1]),
                     *(u[..., k] for k in range(2, u.shape[-1]))], axis=-1)


def make_hyperbolic_plane() -> ChartedManifold:
    """Hyperbolic plane as the graph chart (x, y) -> (x, y, sqrt(1+x^2+y^2))
    of the upper hyperboloid sheet, metric pulled back from the Lorentz form.

    Carries as radius surrogate the exact distance from the apex,
    arccosh(z), and g and the connection as closed bilinear forms.
    """

    def shell(r_lo, r_hi):
        return (ShellPatch(((float(r_lo), float(r_hi)), (0.0, TWO_PI)),
                           _h2_polar, lambda u: np.sinh(u[..., 0])),)

    return ChartedManifold(
        name="hyperbolic",
        dim=2,
        inner=_h2_inner,
        connection=_h2_connection,
        radius=_h2_radius,
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
    b(r)^2) on r > 0, with its closed forms and radial shells."""

    def inner(x, a, b):
        r = x[..., 0]
        sh, b_r = np.sinh(r), prof.b(r)
        return (a[..., 0] * b[..., 0] + sh * sh * (a[..., 1] * b[..., 1])
                + b_r * b_r * (a[..., 2] * b[..., 2]))

    def connection(x, a, b):
        # Gamma^0_11 = -sinh r cosh r, Gamma^0_22 = -b b',
        # Gamma^1_01 = coth r and Gamma^2_02 = b' / b, with their mirrors
        r = x[..., 0]
        sh, ch = np.sinh(r), np.cosh(r)
        b_r, db = prof.b_db(r)
        a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
        b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
        return np.stack([-(sh * ch * (a1 * b1) + b_r * db * (a2 * b2)),
                         ch / sh * (a0 * b1 + a1 * b0),
                         db / b_r * (a0 * b2 + a2 * b0)], axis=-1)

    def shell(r_lo, r_hi):
        def density(u):
            return np.sinh(u[..., 0]) * prof.b(u[..., 0])

        bounds = ((float(r_lo), float(r_hi)), (0.0, TWO_PI), (0.0, TWO_PI))
        # the profile is C4 with seams at the plateau and tail junctions
        return (ShellPatch(bounds, lambda u: u, density,
                           breakpoints=((1.0, 2.0), (), ())),)

    return ChartedManifold(
        name=name,
        dim=3,
        domain=lambda x: x[..., 0] > 0.0,
        periods=(None, TWO_PI, TWO_PI),
        inner=inner,
        connection=connection,
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

    def inner(x, a, b):
        z2 = 1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
        return _h2_inner_numerator(x, a, b) / z2 + a[..., 2] * b[..., 2] / (z2 * z2)

    def connection(x, a, b):
        # the base block -x g_H(a, b) plus the warp couplings of h = 1/z^2:
        # Gamma(a, b) = (x (2 a_2 b_2 / z^4 - g_H(a, b)),
        #                -2 ((x.a) b_2 + (x.b) a_2) / z^2);
        # the spray's Gamma(v, v) (b is a) forms each product once
        x0, x1 = x[..., 0], x[..., 1]
        z2 = 1.0 + x0 * x0 + x1 * x1
        a2, b2 = a[..., 2], b[..., 2]
        base = 2.0 * (a2 * b2) / (z2 * z2) - _h2_inner_numerator(x, a, b) / z2
        xa = x0 * a[..., 0] + x1 * a[..., 1]
        if b is a:
            t = xa * a2
            mixed = t + t
        else:
            mixed = xa * b2 + (x0 * b[..., 0] + x1 * b[..., 1]) * a2
        out = np.empty(np.shape(base) + (3,))
        np.multiply(x[..., :2], base[..., None], out=out[..., :2])
        out[..., 2] = -2.0 * mixed / z2
        return out

    def shell(r_lo, r_hi):
        def density(u):
            # base polar density sinh(d) times the warp 1/cosh(d)^2; cosh(d)^2
            # overflows past d = 355, and past d = 350 the two equal 2 e^-d
            d = np.asarray(u[..., 0], dtype=float)
            far = d > 350.0
            out = np.empty(d.shape)
            out[~far] = np.sinh(d[~far]) / _ipow(np.cosh(d[~far]), 2)
            out[far] = 2.0 * np.exp(-d[far])
            return out[()]

        bounds = ((float(r_lo), float(r_hi)), (0.0, TWO_PI), (0.0, TWO_PI))
        return (ShellPatch(bounds, _h2_polar, density),)

    return ChartedManifold(
        name="warp:ex4",
        dim=3,
        periods=(None, None, TWO_PI),
        inner=inner,
        connection=connection,
        radius=_h2_radius,
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

    return VectorFieldDef(components=components, jacobian=jacobian)


def _h2_rotation() -> VectorFieldDef:
    """Killing rotation about the hyperboloid axis; vanishes at the apex."""
    return VectorFieldDef(
        components=lambda x: np.stack([-x[..., 1], x[..., 0]], axis=-1),
        jacobian=_constant([[0.0, -1.0], [1.0, 0.0]]),
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

    return VectorFieldDef(components=components, jacobian=jacobian)


def _ex2_Zbar() -> VectorFieldDef:
    """Horizontal lift of the polar rotation d/dtheta: (0, 1, 0)."""
    return VectorFieldDef(components=_constant([0.0, 1.0, 0.0]),
                          jacobian=_constant(np.zeros((3, 3))))


def _ex3_Ubar() -> VectorFieldDef:
    """Vertical lift of the unit circle field: (0, 0, 1)."""
    return VectorFieldDef(components=_constant([0.0, 0.0, 1.0]),
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

    return VectorFieldDef(components=components, jacobian=jacobian)


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

    return VectorFieldDef(components=components, jacobian=jacobian)


# ---------------------------------------------------------------------------
# catalog


# id -> builder, in listing order
_MANIFOLDS = {
    "torus": make_flat_torus,
    "revolution:1/(1+x^2)": make_surface_of_revolution,
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
