import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from divflow import zoo
from divflow.geometry import (
    christoffel,
    covariant_derivative,
    field_norm,
    metric_at,
    orthonormal_frame,
)
from divflow.integrals import (
    ChartBox,
    RadialShell,
    base_integral,
    sample_box_points,
    sample_states,
)
from divflow.zoo import (
    make_flat_torus,
    make_surface_of_revolution,
    warp_profile_finite_volume,
    warp_profile_infinite_volume,
)
from oracles import (
    PAIR_IDS,
    christoffel_symbols,
    contract,
    field_pairs,
    hyperbolic_geodesic,
    metric_matrix,
    pairing_rates,
    revolution_embedding,
    revolution_embedding_jacobian,
    state_at,
    unit_states,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# closed-form bilinear forms


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_closed_forms_match_the_matrix_forms(mid):
    # g(a, b) against a @ g @ b and Gamma(a, b) against the contracted
    # oracle tensor, at points with |x| <= 3 where the matrices keep their
    # digits
    m = zoo.manifold(mid)
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (400, m.dim))
    x *= 3.0 * rng.uniform(0.0, 1.0, (400, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    x = x[np.asarray(m.domain(x))]
    a, b = rng.standard_normal((2,) + x.shape)
    g = metric_matrix(m, x)
    matrix = (a[:, None, :] @ g @ b[:, :, None])[:, 0, 0]
    bound = np.sqrt((a[:, None, :] @ g @ a[:, :, None]) * (b[:, None, :] @ g @ b[:, :, None]))
    assert np.all(np.abs(m.inner(x, a, b) - matrix) <= 1e-12 * bound[:, 0, 0])
    tensor = contract(christoffel_symbols(m, x), a, b)
    assert_allclose(m.connection(x, a, b), tensor, rtol=1e-12,
                    atol=1e-12 * np.abs(tensor).max())
    # the accessor reads the same symbols off the connection
    assert_allclose(christoffel(m, x), christoffel_symbols(m, x), rtol=1e-12,
                    atol=1e-12 * np.abs(christoffel_symbols(m, x)).max())


# ---------------------------------------------------------------------------
# warp profiles


def _numeric_derivatives(fn, r, h=1e-5):
    d1 = (fn(r + h) - fn(r - h)) / (2 * h)
    d2 = (fn(r + h) - 2 * fn(r) + fn(r - h)) / (h * h)
    return d1, d2


@pytest.mark.parametrize("maker", [warp_profile_finite_volume,
                                   warp_profile_infinite_volume])
def test_profile_plateau_and_smooth_seams(maker):
    prof = maker()
    for r in (0.0, 0.3, 0.99):
        assert prof.b(r) == 1.0
        assert prof.b_db(r)[1] == 0.0
    # C2 continuity at both seams, checked by small-step differences
    for seam in (1.0, 2.0):
        lo, hi = seam - 1e-6, seam + 1e-6
        assert prof.b(hi) - prof.b(lo) == pytest.approx(0.0, abs=1e-5)
        assert prof.b_db(hi)[1] - prof.b_db(lo)[1] == pytest.approx(0.0, abs=1e-4)
        d2_lo = _numeric_derivatives(prof.b, lo - 1e-4)[1]
        d2_hi = _numeric_derivatives(prof.b, hi + 1e-4)[1]
        assert abs(d2_hi - d2_lo) < 0.2 * (1.0 + abs(d2_lo))


@pytest.mark.parametrize("maker", [warp_profile_finite_volume,
                                   warp_profile_infinite_volume])
def test_profile_positive_and_derivative_consistent(maker):
    prof = maker()
    rs = np.linspace(0.01, 50.0, 2000)
    vals = np.array([prof.b(r) for r in rs])
    assert vals.min() > 0.0
    for r in np.linspace(0.5, 6.0, 40):
        d_num = _numeric_derivatives(prof.b, r)[0]
        assert prof.b_db(r)[1] == pytest.approx(d_num, abs=1e-7 + 1e-6 * abs(d_num))


@pytest.mark.parametrize("maker", [warp_profile_finite_volume,
                                   warp_profile_infinite_volume])
def test_profile_blend_meets_tail_at_seam(maker):
    # the blend's last float before r = 2 must reproduce the tail to
    # near round-off; an ill-conditioned blend solve misses by ~1e-10
    prof = maker()
    r = math.nextafter(2.0, 0.0)
    assert prof.b(r) == pytest.approx(prof.b(2.0), rel=1e-11)
    assert prof.b_db(r)[1] == pytest.approx(prof.b_db(2.0)[1], rel=1e-11)


def test_finite_volume_profile_conditions():
    prof = warp_profile_finite_volume()
    # integrable against sinh on [0, 50]
    val, _ = quad(lambda r: prof.b(r) * math.sinh(r), 0.0, 50.0, limit=200)
    assert val < np.inf
    tail_vals = [math.sinh(r) ** 2 * prof.b(r) for r in np.linspace(2.0, 50.0, 200)]
    assert min(tail_vals) > 0.9 * math.sinh(2.0) ** 2
    # exact tail identity sinh(r)^2 b(r) = sinh(2)^2
    assert tail_vals[-1] == pytest.approx(math.sinh(2.0) ** 2, rel=1e-12)


def test_infinite_volume_profile_conditions():
    prof = warp_profile_infinite_volume()
    assert prof.b(50.0) < 0.05
    for p in (1, 2, 4):
        vals = [math.sinh(r) * prof.b(r) ** p for r in np.linspace(10.0, 50.0, 50)]
        assert all(np.diff(vals) > 0)
        assert vals[-1] > 1e6
    # volume integrand grows without bound on increasing truncations
    partials = [quad(lambda r: prof.b(r) * math.sinh(r), 0.0, R)[0]
                for R in (10.0, 20.0, 40.0)]
    assert partials[0] < partials[1] < partials[2]
    assert partials[2] > 1e14


# ---------------------------------------------------------------------------
# surface of revolution


def test_revolution_area_finite_and_stable():
    m = make_surface_of_revolution()
    # oracle: direct profile quadrature of 2 pi f sqrt(1 + f'^2)
    area_oracle = 2 * math.pi * quad(
        lambda x: (1 / (1 + x * x)) * math.sqrt(1 + 4 * x * x / (1 + x * x) ** 4),
        -np.inf, np.inf)[0]
    assert area_oracle == pytest.approx(21.179068, abs=1e-5)
    # the area tail decays like 4 pi / R, so three stable digits need R ~ 1e3
    vals = []
    for R in (250.0, 500.0, 1000.0):
        est = base_integral(m, lambda x: 1.0, RadialShell(0.0, R))
        vals.append(est.value)
    assert vals[-1] == pytest.approx(area_oracle, rel=1e-3)
    # stable to three digits as the truncation grows
    assert abs(vals[-1] - vals[-2]) < 1e-3 * vals[-1]


def _revolution_slope(x):
    # d(meridian arclength)/dx = sqrt(1 + f'(x)^2)
    return math.sqrt(1.0 + 4.0 * x * x / (1.0 + x * x) ** 4)


def test_revolution_radius_is_abs_x_near_meridian_arclength():
    m = make_surface_of_revolution()
    xs = np.array([-900.0, -3.0, -0.5, 0.0, 0.5, 1.0 / math.sqrt(3.0), 3.0, 50.0, 1e6])
    assert np.array_equal(m.radius(np.column_stack([xs, np.ones_like(xs)])), np.abs(xs))
    # the arclength's slope peaks at x = 1/sqrt(3) and its excess over |x|
    # sums to 0.18446, the bounds the zoo states
    assert _revolution_slope(1.0 / math.sqrt(3.0)) == pytest.approx(1.1924240, abs=1e-7)
    excess = quad(lambda x: _revolution_slope(x) - 1.0, 0.0, np.inf)[0]
    assert excess == pytest.approx(0.1844598, abs=1e-7)


def test_revolution_area_of_the_unit_radius_ball_is_exact():
    m = make_surface_of_revolution()
    # area of {|x| <= 1}: both halves of 2 pi f sqrt(1 + f'^2)
    oracle = 4.0 * math.pi * quad(lambda x: _revolution_slope(x) / (1.0 + x * x), 0.0, 1.0,
                                  epsabs=0.0, epsrel=1e-13)[0]
    est = base_integral(m, lambda x: 1.0, RadialShell(0.0, 1.0))
    assert est.value == pytest.approx(oracle, rel=1e-12)
    assert est.value == pytest.approx(11.0704139516033, rel=1e-12)


@pytest.mark.parametrize("mid", [mid for mid in zoo.MANIFOLD_IDS
                                 if zoo.manifold(mid).radius is not None])
def test_radius_surrogates_are_one_lipschitz(mid, rng):
    # |dr(v)| <= |v|_g for g-unit v, by central differences at box points
    # and at points further out
    m = zoo.manifold(mid)
    pts = sample_box_points(m, 200, rng)
    pts[100:, 0] *= 3.0
    frame = orthonormal_frame(m, pts)
    g = rng.normal(size=(len(pts), m.dim))
    v = np.einsum("nij,nj->ni", frame, g / np.linalg.norm(g, axis=1, keepdims=True))
    h = 1e-6
    slope = np.abs(m.radius(pts + h * v) - m.radius(pts - h * v)) / (2.0 * h)
    assert slope.max() <= 1.0 + 1e-6


def test_W_tangency_to_embedded_surface(rng):
    m = make_surface_of_revolution()
    W = zoo.vector_field("revolution:W")
    for x in sample_states(m, 50, rng)[:, :2]:
        p = revolution_embedding(x)
        # gradient of G(x,y,z) = y^2 + z^2 - 1/(1+x^2)^2 (ambient normal)
        grad = np.array([4 * p[0] / (1 + p[0] ** 2) ** 3, 2 * p[1], 2 * p[2]])
        W_amb = revolution_embedding_jacobian(x) @ W.components(x)
        assert abs(W_amb @ grad) < 1e-10


# ---------------------------------------------------------------------------
# hyperbolic plane


def test_hyperboloid_constraint_along_oracle(hyperbolic, rng):
    for st in sample_states(hyperbolic, 10, rng):
        for t in (0.5, 2.0, 5.0):
            x, v = hyperbolic_geodesic(st[:2], st[2:], t)
            z = math.sqrt(1 + x[0] ** 2 + x[1] ** 2)
            # the lifted curve satisfies <gamma, gamma> = -1 by construction;
            # check unit speed in the chart metric instead
            g = metric_at(hyperbolic, x)
            assert float(v @ g @ v) == pytest.approx(1.0, abs=1e-9)
            assert z >= 1.0


def test_hyperbolic_distance_vs_shooting(hyperbolic):
    from divflow.flow import integrate_geodesic
    st = unit_states(hyperbolic, [0.0, 0.0], [1.0, 0.0])
    traj = integrate_geodesic(hyperbolic, st, 3.0)
    (end,) = state_at(traj, 3.0)
    # unit-speed orbit from the apex: distance equals elapsed time
    assert hyperbolic.radius(end[:2]) == pytest.approx(3.0, abs=1e-7)


# ---------------------------------------------------------------------------
# warped products


def test_ex4_total_volume(ex4):
    est = base_integral(ex4, lambda x: 1.0, RadialShell(0.0, 14.0))
    assert est.value == pytest.approx(4 * math.pi ** 2, rel=1e-3)


def test_ex2_volume_matches_profile_quadrature(ex2):
    prof = warp_profile_finite_volume()
    oracle = 4 * math.pi ** 2 * quad(lambda r: math.sinh(r) * prof.b(r),
                                     0.0, 40.0, limit=200)[0]
    est = base_integral(ex2, lambda x: 1.0, RadialShell(0.0, 40.0))
    assert est.value == pytest.approx(oracle, rel=1e-6)


def test_lift_norms(ex2, ex3, rng):
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    Ubar = zoo.vector_field("warp:ex3:Ubar")
    for _ in range(20):
        r = rng.uniform(0.2, 6.0)
        x = np.array([r, rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)])
        assert field_norm(Zbar, ex2, x) == pytest.approx(math.sinh(r), rel=1e-12)
        b = warp_profile_infinite_volume().b(r)
        assert field_norm(Ubar, ex3, x) == pytest.approx(b, rel=1e-12)


def test_lift_projections_and_zero():
    # warp:ex4:Z is the horizontal lift (X, 0) of the conformal field X
    X = zoo.vector_field("hyperbolic:conformal")
    Z = zoo.vector_field("warp:ex4:Z")
    x = np.array([0.4, -1.2, 2.0])
    comps = Z.components(x)
    assert_allclose(comps[:2], X.components(x[:2]), rtol=1e-14)
    assert comps[2] == 0.0
    J = Z.jacobian(x)
    assert_allclose(J[:2, :2], X.jacobian(x[:2]), rtol=1e-14)
    assert np.all(J[2, :] == 0.0) and np.all(J[:, 2] == 0.0)
    # X vanishes at the apex, and so does its lift over the whole fiber circle
    apex = np.column_stack([np.zeros(4), np.zeros(4), np.linspace(0.0, 6.0, 4)])
    assert_allclose(Z.components(apex), 0.0)


def test_prop_warped_connection_items(ex2, ex4, rng):
    # vertical direction against a horizontal lift picks up (X h / h);
    # for a radial-profile warp and the angular lift this vanishes
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    for _ in range(10):
        x = np.array([rng.uniform(0.3, 5.0), rng.uniform(0, TWO_PI),
                      rng.uniform(0, TWO_PI)])
        g = metric_at(ex2, x)
        u = np.zeros(3)
        u[2] = 1.0 / math.sqrt(g[2, 2])
        got = covariant_derivative(Zbar, ex2, x) @ unit_states(ex2, x, u)[0, 3:]
        assert_allclose(got, 0.0, atol=1e-6)
    # nonradial warp of the ex4 product: (X h / h) u with the closed form
    Z = zoo.vector_field("warp:ex4:Z")
    for _ in range(10):
        x = np.concatenate([rng.uniform(-2, 2, 2), [rng.uniform(0, TWO_PI)]])
        g = metric_at(ex4, x)
        u = np.zeros(3)
        u[2] = 1.0 / math.sqrt(g[2, 2])
        got = covariant_derivative(Z, ex4, x) @ unit_states(ex4, x, u)[0, 3:]
        z = math.sqrt(1 + x[0] ** 2 + x[1] ** 2)
        expect = (-2.0 * (x[0] ** 2 + x[1] ** 2) / z) * u
        assert_allclose(got, expect, atol=1e-6)


def test_ex4_divergence_split_identity(rng):
    # div(lift) = base divergence + X h / h, with the stated closed forms
    for _ in range(20):
        x, y = rng.uniform(-3, 3, 2)
        z2 = 1 + x * x + y * y
        z = math.sqrt(z2)
        xf = -2 * z * (x * x + y * y) / z2 ** 2
        f = 1.0 / z2
        assert 2.0 / z == pytest.approx(2.0 * z + xf / f, rel=1e-12)


def test_rotation_field_fixed_point(hyperbolic):
    Z = zoo.vector_field("hyperbolic:rotation")
    assert_allclose(Z.components(np.zeros(2)), 0.0)


def test_killing_property_of_lifts(ex2, ex3, rng):
    for mid, fid in (("warp:ex2", "warp:ex2:Zbar"), ("warp:ex3", "warp:ex3:Ubar")):
        m, f = zoo.manifold(mid), zoo.vector_field(fid)
        S = sample_states(m, 30, rng)
        for rate in pairing_rates(f, m, S[:, :3], S[:, None, 3:])[:, 0]:
            assert abs(rate) < 1e-8


def test_flat_torus_basics():
    m = make_flat_torus()
    assert base_integral(m, lambda x: 1.0,
                         ChartBox(((0.0, 1.0), (0.0, 1.0)))).value == pytest.approx(1.0)
    assert_allclose(christoffel(m, np.array([0.3, 0.4])), 0.0)


def test_ex3_volume_integrand_not_integrable(ex3):
    # partial volumes grow monotonically past any fixed bound
    vals = [base_integral(ex3, lambda x: 1.0, RadialShell(0.0, R)).value
            for R in (5.0, 10.0, 20.0, 30.0)]
    assert all(np.diff(vals) > 0)
    assert vals[-1] > 1e9


def test_zoo_catalog_listing():
    listing = zoo.list_zoo()
    ids = [m["id"] for m in listing["manifolds"]]
    assert "revolution:1/(1+x^2)" in ids
    assert "warp:ex4" in ids
    assert "torus" in ids
    assert len(field_pairs()) == 6
    with pytest.raises(KeyError):
        zoo.manifold("nope")
    with pytest.raises(KeyError):
        zoo.vector_field("nope")


def test_zoo_catalog_is_one_table():
    assert set(zoo.field_manifold_id(f) for f in zoo.FIELD_IDS) <= set(zoo.MANIFOLD_IDS)
    assert set(PAIR_IDS) | {("torus", "torus:wave")} == {
        (zoo.field_manifold_id(f), f) for f in zoo.FIELD_IDS}
    assert len(set(PAIR_IDS)) == len(PAIR_IDS) == 6
    with pytest.raises(KeyError):
        zoo.field_manifold_id("nope")
