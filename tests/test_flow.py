import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from divflow import zoo
from divflow.flow import (
    TruncatedTrajectoryError,
    birkhoff_integral,
    endpoint_bound_check,
    first_return,
    integrate_geodesic,
    path_integral_identity_residual,
    proxy_distance,
    radius_stretch_constant,
)
from divflow.geometry import VectorFieldDef, pairing_rate, unit_state
from divflow.integrals import sample_states

TWO_PI = 2.0 * math.pi

# measurement horizons per manifold: along a geodesic the hyperboloid graph
# chart's coordinates grow like e^t, so evaluating the metric there loses
# accuracy (and the recorded speed drift grows) with t; every other chart
# stays bounded
DRIFT_T = {"hyperbolic": 8.0}


def test_hyperbolic_matches_analytic_oracle(hyperbolic, rng):
    worst = 0.0
    for st in sample_states(hyperbolic, 20, rng):
        traj = integrate_geodesic(hyperbolic, st, 5.0)
        x_o, v_o = hyperbolic.geodesic(st.x, st.v, 5.0)
        end = traj.state_at(5.0)
        worst = max(worst, float(np.linalg.norm(end.x - x_o)))
    assert worst < 1e-6


def test_torus_geodesics_are_straight_lines(torus):
    st = unit_state(torus, [0.1, 0.9], [0.6, 0.8])
    traj = integrate_geodesic(torus, st, 7.0)
    for t in (1.3, 4.0, 7.0):
        end = traj.state_at(t)
        assert_allclose(end.x, st.x + t * st.v, atol=1e-10)
        assert_allclose(end.v, st.v, atol=1e-12)


def test_clairaut_quantity_conserved(revolution, rng):
    # surfaces of revolution conserve f(x)^2 * dtheta/dt along geodesics
    f = lambda x: 1.0 / (1.0 + x * x)
    for st in sample_states(revolution, 5, rng):
        traj = integrate_geodesic(revolution, st, 20.0)
        c0 = f(st.x[0]) ** 2 * st.v[1]
        drift = max(abs(f(y[0]) ** 2 * y[3] - c0) for y in traj.states)
        assert drift < 1e-7


def test_speed_drift_budget(rng):
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        T = DRIFT_T.get(mid, 50.0)
        for st in sample_states(m, 5, rng):
            traj = integrate_geodesic(m, st, T)
            if traj.truncated:    # a warped orbit may hit the polar axis
                continue
            assert traj.max_speed_drift <= 1e-7, (mid, traj.max_speed_drift)


def test_time_reversal(rng):
    # round trips re-amplify transverse error like e^(2T) on the hyperbolic
    # chart, so its horizon is shorter; the invariant does not pin T
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        T = 6.0 if mid == "hyperbolic" else 10.0
        for st in sample_states(m, 3, rng):
            fwd = integrate_geodesic(m, st, T)
            if fwd.truncated:
                continue
            end = fwd.state_at(T)
            back = integrate_geodesic(
                m, unit_state(m, end.x, -end.v, normalize=True), T)
            if back.truncated:
                continue
            err = np.linalg.norm(back.state_at(T).x - st.x)
            assert err < 1e-6, (mid, err)


def test_flow_composition_property(rng):
    # phi_{t+s} = phi_t . phi_s; on the exponentially growing chart the
    # comparison is relative to the coordinate size
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        t = s = 5.0 if mid == "hyperbolic" else 10.0
        for st in sample_states(m, 3, rng):
            direct = integrate_geodesic(m, st, t + s)
            if direct.truncated:
                continue
            mid_state = integrate_geodesic(m, st, s).state_at(s)
            two_leg = integrate_geodesic(
                m, unit_state(m, mid_state.x, mid_state.v, normalize=True), t)
            a = two_leg.state_at(t).x
            b = direct.state_at(t + s).x
            scale = 1.0 + float(np.linalg.norm(b))
            assert np.linalg.norm(a - b) < 1e-6 * scale, (mid, a, b)


def test_truncation_at_domain_exit(ex2):
    # purely radial inward orbit runs into the polar-axis boundary
    st = unit_state(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])
    traj = integrate_geodesic(ex2, st, 10.0)
    assert traj.truncated
    assert traj.truncation_reason == "left_domain"
    assert traj.t_end < 10.0
    with pytest.raises(TruncatedTrajectoryError):
        traj.state_at(traj.t_end + 0.2)


def test_birkhoff_of_constant_is_T(ex4, rng):
    st = sample_states(ex4, 1, rng)[0]
    val = birkhoff_integral(lambda x, v: 1.0, ex4, st, 7.5)
    assert val == pytest.approx(7.5, abs=1e-9)


def test_birkhoff_killing_rate_is_zero(ex3, rng):
    U = zoo.vector_field("warp:ex3:Ubar")
    for st in sample_states(ex3, 5, rng):
        val = birkhoff_integral(
            lambda x, v: pairing_rate(U, ex3, unit_state(ex3, x, v, normalize=True)),
            ex3, st, 10.0)
        assert abs(val) < 1e-7 * 10.0


def test_birkhoff_W_rate_bounded(revolution, rng):
    W = zoo.vector_field("revolution:W")
    T = 12.0
    for st in sample_states(revolution, 5, rng):
        val = birkhoff_integral(lambda x, v: W.fx(x, v), revolution, st, T)
        assert abs(val) <= 3.0 * T + 1e-6


def test_path_identity_zero_field(torus, rng):
    zero = VectorFieldDef("zero", lambda x: np.zeros(2),
                          jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)[0]
    assert path_integral_identity_residual(zero, torus, st, 10.0) < 1e-14


def test_path_identity_constant_field_on_torus(torus, rng):
    const = VectorFieldDef("const", lambda x: np.array([0.3, -0.8]),
                           jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)[0]
    assert path_integral_identity_residual(const, torus, st, 10.0) < 1e-12


def test_path_identity_contract_all_pairs(rng):
    # contract: residual <= 1e-6 (1 + T) at default tolerances; on the
    # hyperbolic chart the horizon is shortened to stay above the
    # e^(3T) * eps evaluation floor
    for m, f in zoo.field_pairs():
        T = 6.0 if m.name == "hyperbolic" else 10.0
        worst = 0.0
        for st in sample_states(m, 12, rng):
            try:
                worst = max(worst, path_integral_identity_residual(f, m, st, T))
            except TruncatedTrajectoryError:
                continue
        assert worst <= 1e-6 * (1.0 + T), (m.name, f.name, worst)


def test_path_identity_ex4_tight(ex4, rng):
    Z = zoo.vector_field("warp:ex4:Z")
    for st in sample_states(ex4, 10, rng):
        assert path_integral_identity_residual(Z, ex4, st, 10.0) < 1e-5


def test_endpoint_bound_zero_field(torus, rng):
    zero = VectorFieldDef("zero", lambda x: np.zeros(2),
                          jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)[0]
    lhs, rhs = endpoint_bound_check(zero, torus, st, 3.0)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_endpoint_bound_ex3(ex3, rng):
    U = zoo.vector_field("warp:ex3:Ubar")
    for st in sample_states(ex3, 10, rng):
        try:
            lhs, rhs = endpoint_bound_check(U, ex3, st, 20.0)
        except TruncatedTrajectoryError:
            continue
        assert lhs <= rhs + 1e-6


def test_endpoint_bound_W(revolution, rng):
    W = zoo.vector_field("revolution:W")
    for st in sample_states(revolution, 10, rng):
        lhs, rhs = endpoint_bound_check(W, revolution, st, 10.0)
        assert lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# returns


def test_first_return_rational_slope(torus):
    st = unit_state(torus, [0.25, 0.6], [0.6, 0.8])
    res = first_return(torus, st, eps=0.05, t_min=1.0, t_max=100.0)
    assert res.event is not None
    # direction (3,4)/5 on the unit torus returns exactly at t = 5
    assert res.event.t_star == pytest.approx(5.0, abs=1e-6)
    assert res.event.distance < 1e-7
    assert res.event.t_star >= 1.0 and res.event.distance <= res.event.epsilon


def test_first_return_agrees_with_grid_oracle(torus, rng):
    # oracle: exhaustive scan of the wrapped position distance on a fine
    # time grid (the angle component is constant on the flat torus)
    for st in sample_states(torus, 6, rng):
        res = first_return(torus, st, eps=0.05, t_min=1.0, t_max=200.0)
        ts = np.arange(1.0, 200.0, 0.004)
        pos = np.outer(ts, st.v) + st.x
        d = pos - st.x
        d -= np.round(d)
        dist = np.hypot(d[:, 0], d[:, 1])
        hits = ts[dist <= 0.05]
        if res.event is None:
            assert hits.size == 0
        else:
            assert hits.size > 0
            assert res.event.t_star >= hits[0] - 0.05
            first_window = hits[0]
            assert res.event.t_star <= first_window + 0.2


def test_no_return_on_hyperbolic_plane(hyperbolic, rng):
    for st in sample_states(hyperbolic, 5, rng):
        res = first_return(hyperbolic, st, eps=0.1, t_min=1.0, t_max=100.0)
        assert res.event is None
        assert res.conclusive
        assert res.reason == "escape"


def test_first_return_inconclusive_on_truncation(ex2):
    st = unit_state(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])
    res = first_return(ex2, st, eps=0.01, t_min=0.5, t_max=50.0)
    assert res.event is None
    assert not res.conclusive


def test_first_return_input_validation(torus):
    st = unit_state(torus, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        first_return(torus, st, eps=-1.0)
    with pytest.raises(ValueError):
        first_return(torus, st, t_min=5.0, t_max=2.0)


def test_proxy_distance_periodic_wrap(torus):
    st = unit_state(torus, [0.05, 0.0], [1.0, 0.0])
    Y = np.array([[0.95, 0.0, 1.0, 0.0]])
    d = proxy_distance(torus, Y, st)
    assert d[0] == pytest.approx(0.1, abs=1e-12)


def test_radius_stretch_constant_revolution(revolution):
    # near-meridian escaping fan: travel time tracks arclength closely
    states = []
    for ang in np.linspace(-0.3, 0.3, 7):
        states.append(unit_state(revolution, [0.0, 0.0],
                                 [math.cos(ang), math.sin(ang)], normalize=True))
        states.append(unit_state(revolution, [0.0, 0.0],
                                 [-math.cos(ang), math.sin(ang)], normalize=True))
    C = radius_stretch_constant(revolution, states, T=30.0, r_floor=2.0)
    assert 1.0 <= C < 3.0
