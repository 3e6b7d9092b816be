import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from divflow import zoo
from divflow.geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    UnitTangentState,
    VectorFieldDef,
    christoffel,
    covariant_derivative,
    divergence,
    metric_at,
    orthonormal_frame,
    pairing_rates,
    stack_states,
    unit_state,
    volume_density,
)
from divflow.integrals import sample_box_points, sample_states


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
    # symmetry and positive definiteness at 1e4 random in-domain points each
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        pts = sample_box_points(m, 10_000, rng)
        for k in range(pts.shape[0]):
            g = metric_at(m, pts[k])      # raises on any violation
        assert np.all(np.isfinite(g))


def test_metric_failure_is_hard_error():
    bad = ChartedManifold(
        name="bad", dim=2,
        metric=lambda x: np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(MetricError):
        metric_at(bad, [0.0, 0.0])
    asym = ChartedManifold(
        name="asym", dim=2,
        metric=lambda x: np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(MetricError):
        metric_at(asym, [0.0, 0.0])


def test_out_of_domain_raises(ex2):
    with pytest.raises(DomainError):
        metric_at(ex2, [-0.5, 0.0, 0.0])


def test_torus_christoffels_vanish(torus, rng):
    for _ in range(5):
        x = rng.uniform(0, 1, 2)
        assert_allclose(christoffel(torus, x, method="fd"), 0.0, atol=1e-9)


def test_hyperbolic_christoffel_fd_vs_closed(hyperbolic):
    x = np.array([0.3, -0.2])
    G_fd = christoffel(hyperbolic, x, method="fd")
    G_cl = hyperbolic.christoffel(x)
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
            closed = m.christoffel(x)
            diff = np.abs(christoffel(m, x, method="fd") - closed).max()
            assert diff < 1e-6 * (1.0 + np.abs(closed).max()), (mid, x, diff)


def test_christoffel_index_symmetry(ex4, rng):
    for x in sample_box_points(ex4, 10, rng):
        G = christoffel(ex4, x, method="fd")
        assert np.array_equal(G, np.swapaxes(G, 1, 2))


def test_christoffel_fd_stencil_domain_error(ex2):
    tiny = 1e-8   # closer to the axis than the difference step
    with pytest.raises(DomainError):
        christoffel(ex2, np.array([tiny, 1.0, 1.0]), method="fd")


def test_warped_mixing_term(ex4, rng):
    # nabla along the fiber direction of a horizontal lift scales the fiber
    # direction by (X h / h)
    X = zoo.vector_field("warp:ex4:Z")
    for x in sample_box_points(ex4, 10, rng):
        g = metric_at(ex4, x)
        u = np.zeros(3)
        u[2] = 1.0 / math.sqrt(g[2, 2])
        state = unit_state(ex4, x, u)
        got = covariant_derivative(X, ex4, state.x) @ state.v
        z = math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)
        xf_over_f = -2.0 * (x[0] ** 2 + x[1] ** 2) / z
        assert_allclose(got, xf_over_f * u, atol=1e-8)


def test_covariant_derivative_trivial_cases(torus):
    zero = VectorFieldDef("zero", lambda x: np.zeros(2))
    const = VectorFieldDef("const", lambda x: np.array([1.0, 0.0]))
    st = unit_state(torus, [0.3, 0.4], [1.0, 0.0])
    assert_allclose(covariant_derivative(zero, torus, st.x) @ st.v, 0.0, atol=1e-15)
    assert_allclose(covariant_derivative(const, torus, st.x) @ st.v, 0.0, atol=1e-12)


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
    for m, f in zoo.field_pairs():
        for x in sample_box_points(m, 25, rng):
            a = divergence(f, m, x, method="trace")
            b = divergence(f, m, x, method="coordinate")
            assert abs(a - b) < 1e-6, (m.name, f.name, x)


def test_divergence_closed_matches_trace_when_supplied(rng):
    for m, f in zoo.field_pairs():
        if f.divergence is None:
            continue
        for x in sample_box_points(m, 25, rng):
            assert abs(divergence(f, m, x) - f.divergence(x)) < 1e-6


def _rates(field, m, states):
    """The pairing rate g(nabla_v X, v) of each state, one direction per point."""
    X, V, _ = stack_states(states)
    return pairing_rates(field, m, X, V[:, None])[:, 0]


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
        z = math.sqrt(1.0 + st.x[0] ** 2 + st.x[1] ** 2)
        assert rate == pytest.approx(z, abs=1e-8)


def test_rate_of_W_matches_ambient_formula(revolution, rng):
    # oracle: the closed ambient-component expression stored on the field
    W = zoo.vector_field("revolution:W")
    states = sample_states(revolution, 100, rng)
    for st, got in zip(states, _rates(W, revolution, states)):
        assert got == pytest.approx(W.fx(st.x, st.v), abs=1e-9)
        assert abs(got) <= 3.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_rate_linearity(a, b):
    m = zoo.manifold("hyperbolic")
    X = zoo.vector_field("hyperbolic:conformal")
    Y = zoo.vector_field("hyperbolic:rotation")
    comb = VectorFieldDef(
        "comb",
        components=lambda x: a * X.components(x) + b * Y.components(x),
        jacobian=lambda x: a * X.jacobian(x) + b * Y.jacobian(x))
    st_ = unit_state(m, [0.4, -0.7],
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
        sV = UnitTangentState(x=x, v=V / math.sqrt(V @ g @ V))
        sU = UnitTangentState(x=x, v=U / math.sqrt(U @ g @ U))
        A = covariant_derivative(X, hyperbolic, x)
        lhs = sU.v @ g @ (A @ sV.v) + sV.v @ g @ (A @ sU.v)
        assert lhs == pytest.approx(2.0 * z * float(sV.v @ g @ sU.v), abs=1e-8)


def test_unit_state_validation(torus):
    with pytest.raises(ValueError):
        unit_state(torus, [0.0, 0.0], [1.0, 1.0])
    st_ = unit_state(torus, [0.0, 0.0], [3.0, 4.0], normalize=True)
    assert np.hypot(*st_.v) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        unit_state(torus, [0.0, 0.0], [0.0, 0.0], normalize=True)


def test_orthonormal_frame_property(rng):
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        for x in sample_box_points(m, 5, rng):
            E = orthonormal_frame(m, x)
            g = metric_at(m, x)
            assert_allclose(E.T @ g @ E, np.eye(m.dim), atol=1e-10)
