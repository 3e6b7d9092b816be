import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from divflow import zoo
from divflow.flow import (
    MAX_SPEED_DRIFT,
    TruncatedTrajectoryError,
    birkhoff_integral,
    endpoint_bound_check,
    first_return,
    integrate_geodesic,
    path_integral_identity_residual,
    proxy_distance,
)
from divflow.geometry import VectorFieldDef, pairing_rates, stack_states, unit_state
from divflow.integrals import sample_states

TWO_PI = 2.0 * math.pi

# measurement horizons per manifold: along a geodesic the hyperboloid graph
# chart's coordinates grow like e^t, so evaluating the metric there loses
# accuracy (and the recorded speed drift grows) with t; every other chart
# stays bounded
DRIFT_T = {"hyperbolic": 8.0}


def _reaching(m, states, T):
    """The states whose orbits reach T, and their trajectory (None when
    there are none): the sweeps below skip the other orbits."""
    traj = integrate_geodesic(m, states, T)
    if traj.truncated:
        states = [st for st, reason in zip(states, traj.reasons) if reason is None]
        traj = integrate_geodesic(m, states, T) if states else None
    return states, traj


def test_hyperbolic_matches_analytic_oracle(hyperbolic, rng):
    states = sample_states(hyperbolic, 20, rng)
    end = integrate_geodesic(hyperbolic, states, 5.0).state_at(5.0)
    worst = 0.0
    for x, st in zip(end.x, states):
        x_o, v_o = hyperbolic.geodesic(st.x, st.v, 5.0)
        worst = max(worst, float(np.linalg.norm(x - x_o)))
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
    states = sample_states(revolution, 5, rng)
    traj = integrate_geodesic(revolution, states, 20.0)
    for st, ys in zip(states, traj.states):
        c0 = f(st.x[0]) ** 2 * st.v[1]
        drift = max(abs(f(y[0]) ** 2 * y[3] - c0) for y in ys)
        assert drift < 1e-7


def test_speed_drift_budget(rng):
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        T = DRIFT_T.get(mid, 50.0)
        traj = integrate_geodesic(m, sample_states(m, 5, rng), T)
        for reason, drift in zip(traj.reasons, traj.speed_drift):
            if reason is not None:    # a warped orbit may hit the polar axis
                continue
            assert drift.max() <= 1e-7, (mid, drift.max())


def test_time_reversal(rng):
    # round trips re-amplify transverse error like e^(2T) on the hyperbolic
    # chart, so its horizon is shorter; the invariant does not pin T
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        T = 6.0 if mid == "hyperbolic" else 10.0
        states, fwd = _reaching(m, sample_states(m, 3, rng), T)
        if not states:
            continue
        end = fwd.state_at(T)
        reversed_ = [unit_state(m, x, -v, normalize=True) for x, v in zip(end.x, end.v)]
        back = integrate_geodesic(m, reversed_, T)
        for st, reason, y in zip(states, back.reasons, back.y_end):
            if reason is not None:
                continue
            err = np.linalg.norm(y[:m.dim] - st.x)
            assert err < 1e-6, (mid, err)


def test_flow_composition_property(rng):
    # phi_{t+s} = phi_t . phi_s; on the exponentially growing chart the
    # comparison is relative to the coordinate size
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        t = s = 5.0 if mid == "hyperbolic" else 10.0
        states, direct = _reaching(m, sample_states(m, 3, rng), t + s)
        if not states:
            continue
        mid_state = integrate_geodesic(m, states, s).state_at(s)
        two_leg = integrate_geodesic(
            m, [unit_state(m, x, v, normalize=True)
                for x, v in zip(mid_state.x, mid_state.v)], t)
        for a, b in zip(two_leg.state_at(t).x, direct.state_at(t + s).x):
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

    def rates(X, V):
        X, V, _ = stack_states([unit_state(ex3, x, v, normalize=True) for x, v in zip(X, V)])
        return pairing_rates(U, ex3, X, V[:, None])[:, 0]

    for val in birkhoff_integral(rates, ex3, sample_states(ex3, 5, rng), 10.0):
        assert abs(val) < 1e-7 * 10.0


def test_birkhoff_W_rate_bounded(revolution, rng):
    W = zoo.vector_field("revolution:W")
    T = 12.0
    fx = lambda X, V: [W.fx(x, v) for x, v in zip(X, V)]
    for val in birkhoff_integral(fx, revolution, sample_states(revolution, 5, rng), T):
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
        states, _ = _reaching(m, sample_states(m, 12, rng), T)
        worst = max(path_integral_identity_residual(f, m, states, T)) if states else 0.0
        assert worst <= 1e-6 * (1.0 + T), (m.name, f.name, worst)


def test_path_identity_ex4_tight(ex4, rng):
    Z = zoo.vector_field("warp:ex4:Z")
    for residual in path_integral_identity_residual(Z, ex4, sample_states(ex4, 10, rng), 10.0):
        assert residual < 1e-5


def test_endpoint_bound_zero_field(torus, rng):
    zero = VectorFieldDef("zero", lambda x: np.zeros(2),
                          jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)[0]
    lhs, rhs = endpoint_bound_check(zero, torus, st, 3.0)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_endpoint_bound_ex3(ex3, rng):
    U = zoo.vector_field("warp:ex3:Ubar")
    states, _ = _reaching(ex3, sample_states(ex3, 10, rng), 20.0)
    if states:
        states, _ = _reaching(ex3, states, -20.0)
    if states:
        for lhs, rhs in zip(*endpoint_bound_check(U, ex3, states, 20.0)):
            assert lhs <= rhs + 1e-6


def test_endpoint_bound_W(revolution, rng):
    W = zoo.vector_field("revolution:W")
    for lhs, rhs in zip(*endpoint_bound_check(W, revolution, sample_states(revolution, 10, rng), 10.0)):
        assert lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# the stacked stepper


def test_stacked_orbits_step_as_they_do_alone(ex2, rng):
    # a mixed stack: orbits of different lengths and time directions, and
    # one that runs into the polar axis; a step size shared across the
    # stack would change every count
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    states = sample_states(ex2, 4, rng) + [unit_state(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])]
    ends = np.array([10.0, -10.0, 4.0, -2.5, 10.0])
    stack = integrate_geodesic(ex2, states, ends, integrand=Zbar)
    assert stack.reasons[-1] == "left_domain" and stack.truncated == 1
    assert len(set(stack.n_accepted)) == len(states)
    for i, (st, T) in enumerate(zip(states, ends)):
        one = integrate_geodesic(ex2, st, T, integrand=Zbar)
        assert (stack.n_accepted[i], stack.n_rejected[i], stack.nfev[i]) == (
            one.stats.n_accepted, one.stats.n_rejected_est, one.stats.nfev)
        assert stack.reasons[i] == one.truncation_reason
        assert_allclose(stack.y_end[i], one.y_end, rtol=1e-13,
                        atol=1e-13 * np.abs(one.y_end).max())


def test_controller_takes_the_standard_steps(ex4):
    # Dormand-Prince 5(4) with the standard controller at RTOL/ATOL takes
    # exactly these steps on path-ex4's orbits; the carried integral, kept
    # out of the error norm, changes none of them
    Z = zoo.vector_field("warp:ex4:Z")
    states = sample_states(ex4, 10, np.random.default_rng(30))
    for integrand in (Z, None):
        stats = integrate_geodesic(ex4, states, 10.0, integrand=integrand).stats
        assert (stats.n_accepted, stats.n_rejected_est, stats.nfev) == (3600, 185, 22730)


def test_runaway_speed_drift_truncates(hyperbolic):
    # the first orbit of verify path-integral on hyperbolic:conformal at
    # T = 40: its chart coordinates grow like e^t until the metric is
    # numerically singular
    st = sample_states(hyperbolic, 3, np.random.default_rng(0))[0]
    traj = integrate_geodesic(hyperbolic, st, 40.0)
    assert traj.truncation_reason == "speed_drift"
    assert 10.0 < traj.t_end < 40.0
    assert traj.speed_drift[-1] > MAX_SPEED_DRIFT >= traj.speed_drift[:-1].max()
    with pytest.raises(TruncatedTrajectoryError, match="speed_drift"):
        path_integral_identity_residual(zoo.vector_field("hyperbolic:conformal"),
                                        hyperbolic, st, 40.0)


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
    states = sample_states(torus, 6, rng)
    for st, res in zip(states, first_return(torus, states, eps=0.05, t_min=1.0, t_max=200.0)):
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
    for res in first_return(hyperbolic, sample_states(hyperbolic, 5, rng),
                            eps=0.1, t_min=1.0, t_max=100.0):
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


def test_radius_stretch_constant_revolution(revolution, radius_stretch_constant):
    # near-meridian escaping fan: travel time tracks arclength closely
    states = []
    for ang in np.linspace(-0.3, 0.3, 7):
        states.append(unit_state(revolution, [0.0, 0.0],
                                 [math.cos(ang), math.sin(ang)], normalize=True))
        states.append(unit_state(revolution, [0.0, 0.0],
                                 [-math.cos(ang), math.sin(ang)], normalize=True))
    C = radius_stretch_constant(revolution, states, T=30.0, r_floor=2.0)
    assert 1.0 <= C < 3.0
