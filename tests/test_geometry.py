import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from divflow import zoo
from divflow.geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    VectorFieldDef,
    covariant_derivative,
    divergence,
    metric_at,
    orthonormal_frame,
    pairing_rate_form,
    volume_density,
)
from divflow.integrals import sample_box_points, sample_states
from oracles import (
    DIVERGENCE,
    FX,
    PAIR_IDS,
    christoffel_symbols,
    fd_christoffel,
    fd_connection,
    field_pairs,
    from_metric,
    metric_matrix,
    pairing_rates,
    trailing_covariant_derivative,
    trailing_rate_form,
    unit_states,
)


def test_metric_examples(hyperbolic, revolution, torus):
    assert_allclose(metric_at(hyperbolic, [0.0, 0.0]), np.eye(2), atol=1e-14)
    assert_allclose(metric_at(revolution, [0.0, 0.3]), np.eye(2), atol=1e-14)
    assert_allclose(metric_at(torus, [0.4, 0.9]), np.eye(2), atol=0)


def test_volume_density_examples(torus, ex4, revolution):
    assert volume_density(torus, [0.1, 0.2]) == pytest.approx(1.0)
    x, y = 0.7, -1.3
    assert volume_density(ex4, [x, y, 1.0]) == pytest.approx(
        (1.0 + x * x + y * y) ** -1.5, rel=1e-12)
    # profile density f sqrt(1 + f'^2)
    s = 1.7
    f = 1.0 / (1.0 + s * s)
    fp = -2.0 * s / (1.0 + s * s) ** 2
    assert volume_density(revolution, [s, 0.5]) == pytest.approx(
        f * math.sqrt(1.0 + fp * fp), rel=1e-12)


def test_metric_spd_sweep_all_zoo(rng):
    # symmetry and positive definiteness at 1e4 random in-domain points
    # each, in one stack call that validates every point
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        pts = sample_box_points(m, 10_000, rng)
        g = metric_at(m, pts)      # raises on any violation
        assert g.shape == (10_000, m.dim, m.dim)
        assert np.all(np.isfinite(g))


def test_metric_failure_is_hard_error():
    bad = from_metric("bad", 2, lambda x: np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(MetricError):
        metric_at(bad, [0.0, 0.0])
    asym = from_metric("asym", 2, lambda x: np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(MetricError):
        metric_at(asym, [0.0, 0.0])


def test_out_of_domain_raises(ex2):
    with pytest.raises(DomainError):
        metric_at(ex2, [-0.5, 0.0, 0.0])


def test_torus_christoffels_vanish(torus, rng):
    for _ in range(5):
        x = rng.uniform(0, 1, 2)
        assert_allclose(fd_christoffel(torus, x), 0.0, atol=1e-9)


def test_hyperbolic_christoffel_fd_vs_closed(hyperbolic):
    x = np.array([0.3, -0.2])
    G_fd = fd_christoffel(hyperbolic, x)
    G_cl = christoffel_symbols(hyperbolic, x)
    assert np.abs(G_fd - G_cl).max() < 1e-6
    # symbols of the graph chart reduce to -x_k g_ij
    g = metric_at(hyperbolic, x)
    for k in range(2):
        assert_allclose(G_cl[k], -x[k] * g, rtol=1e-12)


def test_christoffel_fd_vs_closed_all_zoo(rng):
    # tolerance scaled by symbol size: warped factors reach sinh(r) cosh(r)
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        pts = sample_box_points(m, 20, rng)
        for x in pts:
            closed = christoffel_symbols(m, x)
            diff = np.abs(fd_christoffel(m, x) - closed).max()
            assert diff < 1e-6 * (1.0 + np.abs(closed).max()), (mid, x, diff)


def test_christoffel_index_symmetry(ex4, rng):
    for x in sample_box_points(ex4, 10, rng):
        G = fd_christoffel(ex4, x)
        assert np.array_equal(G, np.swapaxes(G, 1, 2))


def test_christoffel_fd_stencil_domain_error(ex2):
    tiny = 1e-8   # closer to the axis than the difference step
    with pytest.raises(DomainError):
        fd_christoffel(ex2, np.array([tiny, 1.0, 1.0]))


def test_warped_mixing_term(ex4, rng):
    # nabla along the fiber direction of a horizontal lift scales the fiber
    # direction by (X h / h)
    X = zoo.vector_field("warp:ex4:Z")
    for x in sample_box_points(ex4, 10, rng):
        g = metric_at(ex4, x)
        u = np.zeros(3)
        u[2] = 1.0 / math.sqrt(g[2, 2])
        (state,) = unit_states(ex4, x, u)
        got = covariant_derivative(X, ex4, state[:3]) @ state[3:]
        z = math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)
        xf_over_f = -2.0 * (x[0] ** 2 + x[1] ** 2) / z
        assert_allclose(got, xf_over_f * u, atol=1e-8)


@pytest.mark.parametrize("r,rtol", [(r, 1e-8) for r in np.linspace(0.0, 8.0, 9)] + [(12.0, 1e-4)])
def test_ex4_divergence_keeps_its_digits_far_out(ex4, r, rtol):
    # the traces of J and of Gamma(e_i, Z) are each about z and cancel to
    # div Z = 2/z, so the trace may lose about z^2 eps relative, and no more
    Z = zoo.vector_field("warp:ex4:Z")
    theta = np.linspace(0.0, 2.0 * math.pi, 17)[:-1]
    x = np.column_stack([np.sinh(r) * np.cos(theta), np.sinh(r) * np.sin(theta),
                         np.linspace(0.0, 6.0, 16)])
    assert_allclose(divergence(Z, ex4, x), DIVERGENCE["warp:ex4:Z"](x), rtol=rtol, atol=0)


def test_covariant_derivative_trivial_cases(torus):
    zero = VectorFieldDef(lambda x: np.zeros(2))
    const = VectorFieldDef(lambda x: np.array([1.0, 0.0]))
    (st,) = unit_states(torus, [0.3, 0.4], [1.0, 0.0])
    assert_allclose(covariant_derivative(zero, torus, st[:2]) @ st[2:], 0.0, atol=1e-15)
    assert_allclose(covariant_derivative(const, torus, st[:2]) @ st[2:], 0.0, atol=1e-12)


def _layout_manifold(z, kind):
    """The zoo manifold z, z given by its metric matrix alone, or z with the
    connection of its finite-difference symbols."""
    if kind == "zoo":
        return z
    if kind == "metric-matrix":
        return from_metric(z.name, z.dim, partial(metric_matrix, z), domain=z.domain,
                           periods=z.periods, sample_box=z.sample_box)
    return dataclasses.replace(z, connection=fd_connection(z))


@pytest.mark.parametrize("kind", ["zoo", "metric-matrix", "fd-connection"])
@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_direction_first_calls_keep_the_trailing_layouts_bits(mid, fid, kind, rng):
    # the basis on a leading axis gives every value of the trailing-axis
    # broadcast calls, bit for bit, on closures of elementwise arithmetic
    # and on the test-made ones of matmul and einsum; one point of shape
    # (n,) still gives one (n, n) matrix
    m = _layout_manifold(zoo.manifold(mid), kind)
    field = zoo.vector_field(fid)
    pts = sample_box_points(m, 24, rng)
    n = m.dim
    for x in (pts, pts.reshape(4, 6, n), pts[:1], pts[0]):
        for new, old in ((covariant_derivative, trailing_covariant_derivative),
                         (pairing_rate_form, trailing_rate_form)):
            got, want = new(field, m, x), old(field, m, x)
            assert got.shape == want.shape == x.shape[:-1] + (n, n), (new.__name__, x.shape)
            assert got.tobytes() == want.tobytes(), (new.__name__, kind, x.shape)


def test_divergence_of_W_vanishes(revolution, rng):
    W = zoo.vector_field("revolution:W")
    for x in sample_box_points(revolution, 50, rng):
        assert abs(divergence(W, revolution, x)) < 1e-7
        assert abs(divergence(W, revolution, x, method="coordinate")) < 1e-7


def test_divergence_ex4_closed_form(ex4, rng):
    Z = zoo.vector_field("warp:ex4:Z")
    for x in sample_box_points(ex4, 50, rng):
        expect = 2.0 / math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)
        assert divergence(Z, ex4, x) == pytest.approx(expect, abs=1e-6)


def test_divergence_conformal_is_2z(hyperbolic, rng):
    X = zoo.vector_field("hyperbolic:conformal")
    for x in sample_box_points(hyperbolic, 10, rng):
        z = math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)
        assert divergence(X, hyperbolic, x) == pytest.approx(2.0 * z, abs=1e-8)


def test_divergence_trace_vs_coordinate_all_pairs(rng):
    for fid, m, f in field_pairs():
        for x in sample_box_points(m, 25, rng):
            a = divergence(f, m, x, method="trace")
            b = divergence(f, m, x, method="coordinate")
            assert abs(a - b) < 1e-6, (fid, x)


def test_divergence_closed_matches_trace_when_supplied(rng):
    for mid, fid in PAIR_IDS:
        if fid not in DIVERGENCE:
            continue
        m, f = zoo.manifold(mid), zoo.vector_field(fid)
        for x in sample_box_points(m, 25, rng):
            assert abs(divergence(f, m, x) - DIVERGENCE[fid](x)) < 1e-6


def _rates(field, m, states):
    """The pairing rate g(nabla_v X, v) of each state, one direction per point."""
    n = m.dim
    return pairing_rates(field, m, states[:, :n], states[:, None, n:])[:, 0]


def test_rate_of_killing_fields_vanishes(rng):
    for fid in ("hyperbolic:rotation", "warp:ex2:Zbar", "warp:ex3:Ubar"):
        mid = zoo.field_manifold_id(fid)
        m, f = zoo.manifold(mid), zoo.vector_field(fid)
        for rate in _rates(f, m, sample_states(m, 50, rng)):
            assert abs(rate) < 1e-9


def test_rate_of_conformal_field_is_z(hyperbolic, rng):
    X = zoo.vector_field("hyperbolic:conformal")
    states = sample_states(hyperbolic, 50, rng)
    for st, rate in zip(states, _rates(X, hyperbolic, states)):
        z = math.sqrt(1.0 + st[0] ** 2 + st[1] ** 2)
        assert rate == pytest.approx(z, abs=1e-8)


@pytest.mark.parametrize("fid", [fid for fid in zoo.FIELD_IDS if fid in FX])
def test_rate_matches_the_fields_closed_form(fid, rng):
    # oracle: the field's closed-form rate (for revolution:W
    # written through the ambient components, and bounded by 3)
    m, f = zoo.manifold(zoo.field_manifold_id(fid)), zoo.vector_field(fid)
    n = m.dim
    states = sample_states(m, 100, rng)
    for st, got in zip(states, _rates(f, m, states)):
        assert got == pytest.approx(FX[fid](st[:n], st[n:]), abs=1e-9)
        if fid == "revolution:W":
            assert abs(got) <= 3.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_rate_linearity(a, b):
    m = zoo.manifold("hyperbolic")
    X = zoo.vector_field("hyperbolic:conformal")
    Y = zoo.vector_field("hyperbolic:rotation")
    comb = VectorFieldDef(
        components=lambda x: a * X.components(x) + b * Y.components(x),
        jacobian=lambda x: a * X.jacobian(x) + b * Y.jacobian(x))
    st_ = unit_states(m, [0.4, -0.7],
                      orthonormal_frame(m, [0.4, -0.7]) @ np.array([0.6, 0.8]))
    lhs = _rates(comb, m, st_)[0]
    rhs = a * _rates(X, m, st_)[0] + b * _rates(Y, m, st_)[0]
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conformal_identity_symmetrized(hyperbolic, rng):
    # <nabla_V X, U> + <nabla_U X, V> = 2 z <V, U> for the conformal field
    X = zoo.vector_field("hyperbolic:conformal")
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        g = metric_at(hyperbolic, x)
        V = rng.normal(size=2)
        U = rng.normal(size=2)
        z = math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)
        V = V / math.sqrt(V @ g @ V)
        U = U / math.sqrt(U @ g @ U)
        A = covariant_derivative(X, hyperbolic, x)
        lhs = U @ g @ (A @ V) + V @ g @ (A @ U)
        assert lhs == pytest.approx(2.0 * z * float(V @ g @ U), abs=1e-8)


def test_unit_state_validation(torus):
    # the tests' state constructor refuses a velocity that is not unit
    with pytest.raises(ValueError):
        unit_states(torus, [0.0, 0.0], [1.0, 1.0])
    (st_,) = unit_states(torus, [0.0, 0.0], [3.0, 4.0], normalize=True)
    assert np.hypot(*st_[2:]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        unit_states(torus, [0.0, 0.0], [0.0, 0.0], normalize=True)


def test_orthonormal_frame_property(rng):
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        for x in sample_box_points(m, 5, rng):
            E = orthonormal_frame(m, x)
            g = metric_at(m, x)
            assert_allclose(E.T @ g @ E, np.eye(m.dim), atol=1e-10)


# the frame and the density against their Cholesky oracle: E = L^{-T} and
# sqrt(det g) = prod diag L for g = L L^T, to this relative round-off
FRAME_ORACLE_RTOL = 1e-14


def _gram(m, x, E):
    """E^T g E through the manifold's ``inner``, at points x (N, n)."""
    cols = np.swapaxes(E, -1, -2)
    return m.inner(x[:, None, None, :], cols[:, :, None, :], cols[:, None, :, :])


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_frame_and_density_reuse_the_validating_cholesky(mid, rng):
    # Gram-Schmidt on the chart basis is the triangular frame L^{-T} of the
    # Cholesky factor of g, and its norms are diag L: same values, other
    # round-off
    m = zoo.manifold(mid)
    pts = sample_box_points(m, 32, rng)
    for x in (pts[0], pts):
        L = np.linalg.cholesky(metric_at(m, x))
        oracle = np.swapaxes(np.linalg.inv(L), -1, -2)
        E = orthonormal_frame(m, x)
        assert np.array_equal(E, np.triu(E))
        assert (np.diagonal(E, axis1=-2, axis2=-1) > 0).all()
        assert_allclose(E, oracle, rtol=0, atol=FRAME_ORACLE_RTOL * np.abs(oracle).max())
        assert_allclose(volume_density(m, x),
                        np.prod(np.diagonal(L, axis1=-2, axis2=-1), axis=-1),
                        rtol=FRAME_ORACLE_RTOL)
    E = orthonormal_frame(m, pts)
    assert_allclose(_gram(m, pts, E), np.broadcast_to(np.eye(m.dim), E.shape), rtol=0, atol=1e-14)


@pytest.mark.parametrize("mid", ["hyperbolic", "warp:ex4"])
def test_frame_is_orthonormal_in_the_far_field(mid, rng):
    # at r = 12 the matrix g = I - x x^T / z^2 has cancelled to about 1e-6;
    # Gram-Schmidt through the closed-form inner holds E^T g E = I to 1e-10
    m = zoo.manifold(mid)
    r, th = 12.0, rng.uniform(0.0, 2.0 * math.pi, 200)
    x = np.column_stack([np.sinh(r) * np.cos(th), np.sinh(r) * np.sin(th),
                         rng.uniform(0.0, 2.0 * math.pi, 200)])[:, :m.dim]
    E = orthonormal_frame(m, x)
    assert np.abs(_gram(m, x, E) - np.eye(m.dim)).max() < 1e-10


@pytest.mark.parametrize("mid", ["hyperbolic", "warp:ex4"])
def test_the_frame_refuses_the_far_field_it_cannot_hold(mid, rng):
    # at r = 40 Gram-Schmidt still divides by finite positive norms, but
    # E^T g E is off I by order one: the frame and the density raise
    # instead of returning it
    m = zoo.manifold(mid)
    r, th = 40.0, rng.uniform(0.0, 2.0 * math.pi, 200)
    x = np.column_stack([np.sinh(r) * np.cos(th), np.sinh(r) * np.sin(th),
                         rng.uniform(0.0, 2.0 * math.pi, 200)])[:, :m.dim]
    for fn in (orthonormal_frame, volume_density):
        with pytest.raises(MetricError, match="orthonormal frame lost to round-off"):
            fn(m, x)


@pytest.mark.parametrize("mid", zoo.MANIFOLD_IDS)
def test_inner_is_symmetric(mid, rng):
    # the frame, the density and the pairings rely on g(a, b) == g(b, a)
    m = zoo.manifold(mid)
    x = sample_box_points(m, 1000, rng)
    a, b = rng.normal(size=(2, 1000, m.dim))
    assert np.array_equal(m.inner(x, a, b), m.inner(x, b, a))


def _tilted(skew: bool) -> ChartedManifold:
    """Identity metric, indefinite where x0 > 1, or asymmetric there."""
    def metric(x):
        g = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        bad = x[..., 0] > 1.0
        if skew:
            g[..., 0, 1] = np.where(bad, 0.1, 0.0)
        else:
            g[..., 1, 1] = np.where(bad, -1.0, 1.0)
        return g

    return from_metric("tilt", 2, metric, domain=lambda x: x[..., 1] > -1.0)


@pytest.mark.parametrize("fn", [metric_at, orthonormal_frame, volume_density])
def test_metric_errors_name_the_first_failing_point(fn):
    # only metric_at compares g(e_i, e_j) with g(e_j, e_i), so only it can
    # see an asymmetric inner
    pts = np.column_stack([np.linspace(-1.0, 0.9, 10), np.zeros(10)])
    cases = [(False, MetricError, "positive definite"),
             (False, DomainError, "outside chart domain")]
    if fn is metric_at:
        cases.append((True, MetricError, "symmetric"))
    for skew, error, what in cases:
        m = _tilted(skew)
        bad = pts.copy()
        if error is DomainError:
            bad[3, 1], bad[7, 1] = -1.5, -2.5
        else:
            bad[3, 0], bad[7, 0] = 1.5, 2.5
        for x in (bad, bad[3]):
            with pytest.raises(error, match=what) as info:
                fn(m, x)
            assert "1.5" in str(info.value) and "2.5" not in str(info.value), (skew, what)
