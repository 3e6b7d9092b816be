"""Stacked evaluation equals row-by-row evaluation.

Zoo closures and shell maps run the same elementwise arithmetic on a stack,
and on broadcast arguments, as on one point, so they must agree exactly.
Geometry functions and fiber integrals may group their reductions
differently on a stack; they must agree to rel 1e-13.  The potential
operators, the monotone form, the state sampler and the speed-drift record
compute each point with the same products as on one point, so they must
agree exactly.
"""

from functools import partial

import numpy as np
import pytest

from divflow import zoo
from divflow.geometry import (
    DomainError,
    MetricError,
    christoffel,
    covariant_derivative,
    divergence,
    field_norm,
    metric_at,
    orthonormal_frame,
    pairing_rate_form,
    volume_density,
)
from divflow.flow import integrate_geodesic
from divflow.integrals import (
    FIBER_BLOCK_BYTES,
    QuadraticIntegrand,
    fiber_integral,
    fiber_rule,
    sample_box_points,
    sample_states,
)
from divflow.potential import (
    DegenerateGradientError,
    laplace_beltrami,
    monotone_form,
    phi_flux_field,
    phi_laplacian,
    scalar_test_functions,
    shipped_profiles,
)
from oracles import DIVERGENCE, PAIR_IDS, fd_christoffel, from_metric, pairing_rates

N = 64
REL = 1e-13


def _rows(fn, pts):
    return np.array([fn(p) for p in pts])


def _assert_exact(fn, pts, what):
    stacked = np.asarray(fn(pts))
    assert stacked.shape[:1] == (len(pts),), what
    assert np.array_equal(stacked, _rows(fn, pts)), what


def _assert_close(fn, pts, what):
    stacked = np.asarray(fn(pts))
    rows = _rows(fn, pts)
    assert stacked.shape == rows.shape, what
    np.testing.assert_allclose(stacked, rows, rtol=REL, atol=0, err_msg=what)


def _shell_points(patch, rng):
    lo = np.array([b[0] for b in patch.bounds])
    hi = np.array([b[1] for b in patch.bounds])
    return rng.uniform(size=(N, len(lo))) * (hi - lo) + lo


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_manifold_closures_stack_exactly(mid, rng):
    m = zoo.manifold(mid)
    pts = sample_box_points(m, N, rng)
    for name in ("domain", "radius"):
        fn = getattr(m, name)
        if fn is not None:
            _assert_exact(fn, pts, (mid, name))
    n = m.dim
    xab = np.hstack([pts, rng.standard_normal((N, 2 * n))])
    for name in ("inner", "connection"):
        fn = getattr(m, name)
        _assert_exact(lambda y: fn(y[..., :n], y[..., n:2 * n], y[..., 2 * n:]), xab, (mid, name))
    # the broadcast calls of covariant_derivative (every basis vector
    # against one vector per point) equal one call per row and per vector,
    # and so does a pair of vectors per point: the geodesic spray forms
    # Gamma(v, v) alone, and Gamma(v, X) comes with the field's components
    # in the stacked carried-slope call, but a closure broadcasts any stack
    x, a, b = xab[:, :n], xab[:, n:2 * n], xab[:, 2 * n:]
    E = np.eye(n)
    basis = np.array([[m.connection(x[r], e, b[r]) for e in E] for r in range(N)])
    assert np.array_equal(m.connection(x[:, None, :], E, b[:, None, :]), basis), mid
    pair = np.array([[m.connection(x[r], a[r], c[r]) for r in range(N)] for c in (a, b)])
    assert np.array_equal(m.connection(x, a, np.stack([a, b])), pair), mid
    if m.shell is not None:
        for r_lo, r_hi in ((0.0, 1.5), (1.5, 6.0)):
            for k, patch in enumerate(m.shell(r_lo, r_hi)):
                u = _shell_points(patch, rng)
                _assert_exact(patch.to_chart, u, (mid, r_lo, k, "to_chart"))
                _assert_exact(patch.density, u, (mid, r_lo, k, "density"))


def _indefinite_metric(x):
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 1.0 - x[..., 0]      # indefinite for x0 > 1
    return g


def _skew_metric(x):
    g = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
    g[..., 0, 1] = np.where(x[..., 0] > 0.5, 0.1, 0.0)
    return g


# the metric-matrix manifolds below, on a box where their metric is SPD
FROM_METRIC_BOX = ((-1.0, 0.5), (-1.0, 1.0))


@pytest.mark.parametrize("m", [zoo.manifold(mid) for mid in zoo.MANIFOLD_IDS]
                         + [from_metric("tilt", 2, _indefinite_metric, sample_box=FROM_METRIC_BOX),
                            from_metric("skew", 2, _skew_metric, sample_box=FROM_METRIC_BOX)],
                         ids=lambda m: m.name)
def test_inner_and_connection_broadcast_over_two_leading_axes(m, rng):
    # a (4, 16) stack of points, with vectors per point or one vector for
    # all, equals the flat stack of 64
    n = m.dim
    x = sample_box_points(m, N, rng)
    a, b = rng.standard_normal((2, N, n))
    grid = (4, N // 4, n)
    for name in ("inner", "connection"):
        fn = getattr(m, name)
        for bb in (b, b[0]):
            flat = fn(x, a, bb)
            assert np.array_equal(fn(x.reshape(grid), a.reshape(grid),
                                     bb.reshape(grid) if bb.ndim > 1 else bb),
                                  flat.reshape(grid[:2] + flat.shape[1:])), (m.name, name)


@pytest.mark.parametrize("fid", zoo.FIELD_IDS)
def test_field_closures_stack_exactly(fid, rng):
    f = zoo.vector_field(fid)
    m = zoo.manifold(zoo.field_manifold_id(fid))
    pts = sample_box_points(m, N, rng)
    for name, fn in (("components", f.components), ("jacobian", f.jacobian),
                     ("divergence", DIVERGENCE.get(fid))):
        if fn is not None:
            _assert_exact(fn, pts, (fid, name))


@pytest.mark.parametrize("maker", [zoo.warp_profile_finite_volume,
                                   zoo.warp_profile_infinite_volume])
def test_profile_stack_covers_every_piece(maker):
    prof = maker()
    rs = np.concatenate([np.linspace(-6.0, 6.0, 97), [-2.0, -1.0, 0.0, 1.0, 2.0]])
    _assert_exact(prof.b, rs, prof.name)
    _assert_exact(lambda r: prof.b_db(r)[1], rs, prof.name)


def test_revolution_radius_maps_stack_exactly(rng):
    m = zoo.manifold("revolution:1/(1+x^2)")
    xs = np.column_stack([rng.uniform(-900.0, 900.0, N), rng.uniform(0.0, 6.0, N)])
    _assert_exact(m.radius, xs, "radius")


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_geometry_functions_stack(mid, rng):
    m = zoo.manifold(mid)
    pts = sample_box_points(m, N, rng)
    for fn in (metric_at, volume_density, orthonormal_frame, christoffel):
        _assert_close(partial(fn, m), pts, (mid, fn))
    # the finite-difference symbols of the oracle
    _assert_close(partial(fd_christoffel, m), pts, (mid, "fd"))


# symmetric and indefinite, so the |form| route meets its kinks
OFFSET_FORMS = {2: np.array([[1.0, 0.5], [0.5, -2.0]]),
                3: np.array([[1.0, 0.5, 0.0], [0.5, -2.0, 0.25], [0.0, 0.25, 0.5]])}


@pytest.mark.parametrize("mid,fid", PAIR_IDS + (("torus", "torus:wave"),))
def test_field_geometry_and_fiber_integral_stack(mid, fid, rng):
    m, f = zoo.manifold(mid), zoo.vector_field(fid)
    pts = sample_box_points(m, N, rng)
    for method in ("trace", "coordinate"):
        _assert_close(partial(divergence, f, m, method=method), pts, (fid, method))
    for fn in (covariant_derivative, pairing_rate_form, field_norm):
        _assert_close(partial(fn, f, m), pts, (fid, fn))
    rule = fiber_rule(m.dim)
    # two and a half blocks, so the seams between blocks are covered
    many = sample_box_points(m, 5 * FIBER_BLOCK_BYTES // (2 * rule.nodes.nbytes), rng)

    def F(X, V):
        # a rate integral is ~0 for a divergence-free field; keep it off zero
        return (1.0 + pairing_rates(f, m, X, V)) ** 2

    def form(X):
        # the same for the forms: a constant indefinite chart form added
        return pairing_rate_form(f, m, X) + OFFSET_FORMS[m.dim]

    kinds = (("fiber_integral", F), ("quadratic", QuadraticIntegrand(form)),
             ("abs-quadratic", QuadraticIntegrand(form, absolute=True)))
    for kind, G in kinds:
        _assert_close(partial(fiber_integral, m, G), many, (fid, kind))
        # one point is a stack of one: shape (), the bits of the stack's row
        one = fiber_integral(m, G, many[0])
        assert one.shape == (), (fid, kind)
        assert np.array_equal(one, fiber_integral(m, G, many[:1])[0]), (fid, kind)


TEST_FUNCTIONS = [(mid, uid) for mid in zoo.MANIFOLD_IDS for uid in scalar_test_functions(mid)]


@pytest.mark.parametrize("mid,uid", TEST_FUNCTIONS)
def test_test_functions_and_flux_fields_stack(mid, uid, rng):
    m = zoo.manifold(mid)
    u, closed = scalar_test_functions(mid)[uid]
    pts = sample_box_points(m, N, rng)
    for name, fn in (("value", u.value), ("grad", u.grad), ("closed", closed)):
        if fn is not None:
            _assert_exact(fn, pts, (mid, uid, name))
    for pid, prof in shipped_profiles().items():
        flux = phi_flux_field(u, prof, m)
        _assert_close(flux.components, pts, (mid, uid, pid, "components"))
        for method in ("trace", "coordinate"):
            _assert_close(partial(divergence, flux, m, method=method), pts,
                          (mid, uid, pid, method))
        _assert_close(partial(field_norm, flux, m), pts, (mid, uid, pid, "field_norm"))


@pytest.mark.parametrize("mid,uid", TEST_FUNCTIONS)
def test_potential_operators_stack_exactly(mid, uid, rng):
    m = zoo.manifold(mid)
    u, _ = scalar_test_functions(mid)[uid]
    pts = sample_box_points(m, N, rng)
    _assert_exact(partial(laplace_beltrami, u, m), pts, (mid, uid, "laplace_beltrami"))
    for pid, prof in shipped_profiles().items():
        _assert_exact(partial(phi_laplacian, u, prof, m), pts, (mid, uid, pid))


@pytest.mark.parametrize("pid", sorted(shipped_profiles()))
def test_monotone_form_stacks_exactly(pid, rng):
    prof = shipped_profiles()[pid]
    pairs = rng.normal(size=(N, 6))

    def form(w):
        return monotone_form(w[..., :3], w[..., 3:], prof)

    _assert_exact(form, pairs, pid)
    assert form(pairs[0]).shape == ()
    assert form(pairs[:1]).shape == (1,)


def test_stack_with_one_degenerate_gradient_names_it(torus, rng):
    u, _ = scalar_test_functions("torus")["sin-wave"]
    pts = sample_box_points(torus, N, rng)
    pts[17] = (0.25, 0.4)       # d sin(2 pi x) vanishes at x = 1/4
    with pytest.raises(DegenerateGradientError, match=r"0\.25, 0\.4"):
        phi_laplacian(u, shipped_profiles()["p:1.5"], torus, pts)


def _sample_states_by_point(m, n, rng):
    """(x, v) pairs drawn one point at a time, in the sampler's draw order."""
    pts = sample_box_points(m, n, rng)
    out = []
    for i in range(n):
        E = orthonormal_frame(m, pts[i])
        c = rng.normal(size=m.dim)
        c /= np.linalg.norm(c)
        out.append((pts[i], E @ c))
    return out


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_sample_states_equal_per_point_draws(mid):
    m = zoo.manifold(mid)
    states = sample_states(m, 500, np.random.default_rng(5))
    ref = _sample_states_by_point(m, 500, np.random.default_rng(5))
    assert np.array_equal(states[:, :m.dim], [x for x, _ in ref])
    assert np.array_equal(states[:, m.dim:], [v for _, v in ref])


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_speed_drift_equals_per_state_drift(mid, rng):
    m = zoo.manifold(mid)
    traj = integrate_geodesic(m, sample_states(m, 1, rng), 2.0)
    n = m.dim
    (states,), (drift,) = traj.states, traj.speed_drift
    ref = [abs(m.inner(y[:n], y[n:], y[n:]) - 1.0) for y in states]
    assert len(ref) > 2
    assert np.array_equal(drift, ref)


def test_stack_with_one_point_outside_domain_names_it(ex2, rng):
    pts = sample_box_points(ex2, N, rng)
    pts[17, 0] = -0.25
    for fn in (metric_at, volume_density, orthonormal_frame):
        with pytest.raises(DomainError, match=r"-0\.25"):
            fn(ex2, pts)
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    with pytest.raises(DomainError):
        pairing_rate_form(Zbar, ex2, pts)
    with pytest.raises(DomainError):
        fiber_integral(ex2, lambda x, v: 1.0, pts)


def test_stack_with_one_non_spd_metric_names_it():
    m = from_metric("tilt", 2, _indefinite_metric)
    pts = np.column_stack([np.linspace(-1.0, 0.9, N), np.zeros(N)])
    metric_at(m, pts)
    pts[40, 0] = 1.5
    with pytest.raises(MetricError, match=r"1\.5"):
        metric_at(m, pts)
    with pytest.raises(MetricError):
        fiber_integral(m, lambda x, v: 1.0, pts)


def test_stack_with_one_asymmetric_metric_raises():
    m = from_metric("skew", 2, _skew_metric)
    pts = np.column_stack([np.linspace(-1.0, 0.0, N), np.zeros(N)])
    metric_at(m, pts)
    pts[3, 0] = 0.75
    with pytest.raises(MetricError, match="symmetric"):
        metric_at(m, pts)
