import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from divflow import flow, zoo
from divflow.diagnostics import hopf_probe
from divflow.flow import (
    MAX_SPEED_DRIFT,
    TruncatedTrajectoryError,
    birkhoff_integral,
    first_return,
    integrate_geodesic,
    path_integral_identity_residual,
    proxy_distance,
    return_grid_step,
)
from divflow.geometry import DomainError, VectorFieldDef, _quadratic, pairing_rate
from divflow.integrals import sample_liouville, sample_states
from oracles import (
    FX,
    christoffel_symbols,
    endpoint_bound_check,
    fd_connection,
    field_pairs,
    flipped,
    hyperbolic_geodesic,
    pairing_rates,
    state_at,
    tensor_rate_form,
    unit_states,
)

TWO_PI = 2.0 * math.pi

# measurement horizons per manifold: along a geodesic the hyperboloid graph
# chart's coordinates grow like e^t, and past r = 25 or so the spray's
# round-off (about |x|^2 eps^2) outgrows RTOL and the drift with it; at
# T = 20 an orbit from the sampling box (r <= 2.2) ends inside r = 22.2,
# where the drift read through the closed-form inner stays at round-off.
# Every other chart stays bounded
DRIFT_T = {"hyperbolic": 20.0}


def _reaching(m, states, T):
    """The states whose orbits reach T, and their trajectory (None when
    there are none): the sweeps below skip the other orbits."""
    traj = integrate_geodesic(m, states, T)
    if traj.truncated:
        states = states[[reason is None for reason in traj.reasons]]
        traj = integrate_geodesic(m, states, T) if len(states) else None
    return states, traj


def test_hyperbolic_matches_analytic_oracle(hyperbolic, rng):
    states = sample_states(hyperbolic, 20, rng)
    end = state_at(integrate_geodesic(hyperbolic, states, 5.0), 5.0)
    worst = 0.0
    for y, st in zip(end, states):
        x_o, v_o = hyperbolic_geodesic(st[:2], st[2:], 5.0)
        worst = max(worst, float(np.linalg.norm(y[:2] - x_o)))
    assert worst < 1e-6


def test_torus_geodesics_are_straight_lines(torus):
    st = unit_states(torus, [0.1, 0.9], [0.6, 0.8])
    traj = integrate_geodesic(torus, st, 7.0)
    for t in (1.3, 4.0, 7.0):
        end = state_at(traj, t)
        assert_allclose(end[:, :2], st[:, :2] + t * st[:, 2:], atol=1e-10)
        assert_allclose(end[:, 2:], st[:, 2:], atol=1e-12)


def test_clairaut_quantity_conserved(revolution, rng):
    # surfaces of revolution conserve f(x)^2 * dtheta/dt along geodesics
    f = lambda x: 1.0 / (1.0 + x * x)
    states = sample_states(revolution, 5, rng)
    traj = integrate_geodesic(revolution, states, 20.0)
    for st, ys in zip(states, traj.states):
        c0 = f(st[0]) ** 2 * st[3]
        drift = max(abs(f(y[0]) ** 2 * y[3] - c0) for y in ys)
        assert drift < 1e-7


def test_speed_drift_budget(rng):
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        T = DRIFT_T.get(mid, 50.0)
        traj = integrate_geodesic(m, sample_states(m, 5, rng), T)
        for reason, drift in zip(traj.reasons, traj.speed_drift):
            if reason == "left_domain":    # a warped orbit may hit the polar axis
                continue
            assert reason is None, (mid, reason)
            assert drift.max() <= 1e-7, (mid, drift.max())


def test_time_reversal(rng):
    # round trips re-amplify transverse error like e^(2T) on the hyperbolic
    # chart, so its horizon is shorter; the invariant does not pin T
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        T = 6.0 if mid == "hyperbolic" else 10.0
        states, fwd = _reaching(m, sample_states(m, 3, rng), T)
        if not len(states):
            continue
        n = m.dim
        end = state_at(fwd, T)
        back = integrate_geodesic(m, unit_states(m, end[:, :n], -end[:, n:], normalize=True), T)
        for st, reason, y in zip(states, back.reasons, back.y_end):
            if reason is not None:
                continue
            err = np.linalg.norm(y[:n] - st[:n])
            assert err < 1e-6, (mid, err)


def test_flow_composition_property(rng):
    # phi_{t+s} = phi_t . phi_s; on the exponentially growing chart the
    # comparison is relative to the coordinate size
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        t = s = 5.0 if mid == "hyperbolic" else 10.0
        states, direct = _reaching(m, sample_states(m, 3, rng), t + s)
        if not len(states):
            continue
        n = m.dim
        mid_state = state_at(integrate_geodesic(m, states, s), s)
        two_leg = integrate_geodesic(
            m, unit_states(m, mid_state[:, :n], mid_state[:, n:], normalize=True), t)
        for a, b in zip(state_at(two_leg, t)[:, :n], state_at(direct, t + s)[:, :n]):
            scale = 1.0 + float(np.linalg.norm(b))
            assert np.linalg.norm(a - b) < 1e-6 * scale, (mid, a, b)


def test_truncation_at_domain_exit(ex2):
    # purely radial inward orbit runs into the polar-axis boundary
    st = unit_states(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])
    traj = integrate_geodesic(ex2, st, 10.0)
    assert traj.truncated
    assert traj.reasons == ("left_domain",)
    assert traj.t_end[0] < 10.0
    with pytest.raises(TruncatedTrajectoryError):
        state_at(traj, traj.t_end[0] + 0.2)


def test_birkhoff_of_constant_is_T(ex4, rng):
    st = sample_states(ex4, 1, rng)
    (val,) = birkhoff_integral(lambda x, v: 1.0, ex4, st, 7.5)
    assert val == pytest.approx(7.5, abs=1e-9)


def test_birkhoff_killing_rate_is_zero(ex3, rng):
    U = zoo.vector_field("warp:ex3:Ubar")

    def rates(X, V):
        S = unit_states(ex3, X, V, normalize=True)
        return pairing_rates(U, ex3, S[:, :3], S[:, None, 3:])[:, 0]

    for val in birkhoff_integral(rates, ex3, sample_states(ex3, 5, rng), 10.0):
        assert abs(val) < 1e-7 * 10.0


def test_birkhoff_W_rate_bounded(revolution, rng):
    T = 12.0
    fx = lambda X, V: [FX["revolution:W"](x, v) for x, v in zip(X, V)]
    for val in birkhoff_integral(fx, revolution, sample_states(revolution, 5, rng), T):
        assert abs(val) <= 3.0 * T + 1e-6


def test_path_identity_zero_field(torus, rng):
    zero = VectorFieldDef(lambda x: np.zeros(2),
                          jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)
    (residual,) = path_integral_identity_residual(zero, torus, st, 10.0)
    assert residual < 1e-14


def test_path_identity_constant_field_on_torus(torus, rng):
    const = VectorFieldDef(lambda x: np.array([0.3, -0.8]),
                           jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)
    (residual,) = path_integral_identity_residual(const, torus, st, 10.0)
    assert residual < 1e-12


def test_path_identity_contract_all_pairs(rng):
    # contract: residual <= 1e-6 (1 + T) at default tolerances; on the
    # hyperbolic chart the horizon is shortened to stay above the
    # e^(3T) * eps evaluation floor
    for fid, m, f in field_pairs():
        T = 6.0 if m.name == "hyperbolic" else 10.0
        states, _ = _reaching(m, sample_states(m, 12, rng), T)
        worst = max(path_integral_identity_residual(f, m, states, T)) if len(states) else 0.0
        assert worst <= 1e-6 * (1.0 + T), (fid, worst)


def test_hyperbolic_path_residual_is_integrator_error(hyperbolic):
    # path-hyperbolic's orbits: the boundary pairings read the closed-form
    # g, so the residual is the integrator's (the metric matrix's round-off
    # at the end points gave 1.1e-7)
    states = sample_states(hyperbolic, 10, np.random.default_rng(13))
    residual = path_integral_identity_residual(
        zoo.vector_field("hyperbolic:conformal"), hyperbolic, states, 6.0)
    assert residual.max() < 1e-9


def test_path_identity_ex4_tight(ex4, rng):
    Z = zoo.vector_field("warp:ex4:Z")
    for residual in path_integral_identity_residual(Z, ex4, sample_states(ex4, 10, rng), 10.0):
        assert residual < 1e-5


def test_endpoint_bound_zero_field(torus, rng):
    zero = VectorFieldDef(lambda x: np.zeros(2),
                          jacobian=lambda x: np.zeros((2, 2)))
    st = sample_states(torus, 1, rng)
    (lhs,), (rhs,) = endpoint_bound_check(zero, torus, st, 3.0)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(0.0, abs=1e-14)


def test_endpoint_bound_ex3(ex3, rng):
    U = zoo.vector_field("warp:ex3:Ubar")
    states, _ = _reaching(ex3, sample_states(ex3, 10, rng), 20.0)
    if len(states):
        # the orbits that reach -20 too: their flipped states reach 20
        states, _ = _reaching(ex3, flipped(ex3, states), 20.0)
        states = flipped(ex3, states)
    if len(states):
        for lhs, rhs in zip(*endpoint_bound_check(U, ex3, states, 20.0)):
            assert lhs <= rhs + 1e-6


def test_endpoint_bound_W(revolution, rng):
    W = zoo.vector_field("revolution:W")
    for lhs, rhs in zip(*endpoint_bound_check(W, revolution, sample_states(revolution, 10, rng), 10.0)):
        assert lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# the stacked stepper


def _h(x, v):
    """A callable integrand h(x, v), elementwise in the rows."""
    return np.exp(-x[:, 0] * x[:, 0]) * (1.0 + v[:, 1] * v[:, 1])


def test_stacked_orbits_step_as_they_do_alone(ex2, ex4, rng):
    # mixed stacks over one span: orbits of different step counts (checked
    # below), two of them run backward as the forward orbits of their
    # flipped states, and on warp:ex2 one shorter orbit that runs into the
    # polar axis; a step size shared across the stack would change every
    # count.  A step's carried slopes are formed in one call on the rows of
    # all its stages, for the pairing rate of a Killing field and of
    # warp:ex4:Z (a non-zero Jacobian) and for another h(x, v) alike
    inward = unit_states(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])
    Zbar, Z = zoo.vector_field("warp:ex2:Zbar"), zoo.vector_field("warp:ex4:Z")
    for m, integrand, last in ((ex2, partial(pairing_rate, Zbar, ex2), inward),
                               (ex4, partial(pairing_rate, Z, ex4), None),
                               (ex2, _h, inward)):
        sample = sample_states(m, 4 if last is not None else 5, rng)
        states = np.vstack([flipped(m, sample, [1, 3])] + ([last] if last is not None else []))
        stack = integrate_geodesic(m, states, 8.0, integrand=integrand)
        assert stack.truncated == (last is not None)
        if last is not None:
            assert stack.reasons[-1] == "left_domain"
        assert len(set(stack.n_accepted)) == len(states)
        for i, st in enumerate(states):
            one = integrate_geodesic(m, st[None], 8.0, integrand=integrand)
            assert (stack.n_accepted[i], stack.n_rejected[i], stack.nfev[i]) == (
                one.stats.n_accepted, one.stats.n_rejected_est, one.stats.nfev)
            assert stack.reasons[i] == one.reasons[0]
            assert np.array_equal(stack.y_end[i], one.y_end[0])


def test_a_field_is_refused_as_an_integrand(ex4):
    # the orbit layer carries h(x, v) only: a field goes in through its
    # pairing rate, partial(pairing_rate, Z, m), and the field itself, like
    # any other object that is not callable, is refused before any
    # right-hand side is formed
    calls = []

    def connection(x, a, b):
        calls.append(len(x))
        return ex4.connection(x, a, b)

    m = dataclasses.replace(ex4, connection=connection)
    states = sample_states(ex4, 2, np.random.default_rng(30))
    for integrand, name in ((zoo.vector_field("warp:ex4:Z"), "VectorFieldDef"), (1.0, "float")):
        with pytest.raises(TypeError, match=f"not {name}$"):
            integrate_geodesic(m, states, 1.0, integrand=integrand)
    assert calls == []


def test_carried_slopes_take_one_call_per_step(ex4):
    # four orbits over one span, two of them flipped, whose attempt counts
    # differ: two start-up calls on the M rows, then one call per stacked
    # attempt on the 8 rated stages (5 to 12) of each orbit still stepping;
    # the extension takes one call on its 3 stages of every non-empty
    # segment.  A field's components are read in that call only: the spray
    # forms Gamma(v, v) alone, in one connection call per stage on the
    # whole stack.  Nothing fails here, so no evaluation is redone row by
    # row: a spurious per-row path would show in these counts
    calls, spray = [], []

    def h(x, v):
        calls.append(len(x))
        return _h(x, v)

    def components(x):
        calls.append(len(x))
        return Z.components(x)

    def connection(x, a, b):
        spray.append(len(x))
        return ex4.connection(x, a, b)

    Z = zoo.vector_field("warp:ex4:Z")
    m = dataclasses.replace(ex4, connection=connection)
    states = flipped(ex4, sample_states(ex4, 4, np.random.default_rng(30)), [1, 3])
    rate = partial(pairing_rate, dataclasses.replace(Z, components=components), ex4)
    for integrand in (h, rate):
        calls.clear()
        spray.clear()
        traj = integrate_geodesic(m, states, 2.5, integrand=integrand)
        assert traj.truncated == 0
        attempts = traj.n_accepted + traj.n_rejected
        assert len(set(attempts)) == 4
        assert np.array_equal(traj.nfev, 2 + 12 * attempts)
        stacked = [int((attempts > k).sum()) for k in range(attempts.max())]
        assert calls == [4, 4] + [8 * M for M in stacked]
        assert spray == [4, 4] + [M for M in stacked for _ in range(12)]
        calls.clear()
        spray.clear()
        traj.y_at(np.array([0.25, 0.25, 0.25, 0.25]))
        traj.y_at(np.array([2.0, 0.5, 1.0, 0.4]))
        assert calls == [3 * traj.stats.n_accepted]
        assert spray == [traj.stats.n_accepted] * 3


def test_integrand_failing_at_start_leaves_only_the_start_states(ex4):
    # every orbit fails its first carried slope, so none takes a step; the
    # extension then has no segment to form and reads the start states
    def h(x, v):
        raise DomainError("h")

    states = sample_states(ex4, 3, np.random.default_rng(31))
    traj = integrate_geodesic(ex4, states, 1.0, integrand=h)
    assert traj.reasons == ("rhs_failure",) * 3
    assert np.array_equal(traj.n_accepted + traj.n_rejected, [0, 0, 0])
    y = traj.y_at(0.0)
    assert np.array_equal(y[:, :6], states) and np.array_equal(y[:, 6], [0.0, 0.0, 0.0])


def test_failing_integrand_truncates_only_its_orbit(ex4):
    # h, and the components of a field, raise on rows with x0 > 1.5, which
    # only the first orbit reaches: the stacked carried-slope call is redone
    # row by row, so the other orbits step as they do alone; armed after a
    # run, the integrand fails only the extension's segments that cross
    # x0 = 1.5
    armed = [True]

    def check(x):
        if armed and np.any(x[:, 0] > 1.5):
            raise DomainError("integrand")

    def h(x, v):
        check(x)
        return _h(x, v)

    def components(x):
        check(x)
        return Z.components(x)

    Z = zoo.vector_field("warp:ex4:Z")
    states = unit_states(ex4, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.5, 1.0]],
                         [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.5]], normalize=True)
    rate = partial(pairing_rate, dataclasses.replace(Z, components=components), ex4)
    for integrand in (h, rate):
        armed[:] = [True]
        stack = integrate_geodesic(ex4, states, 2.0, integrand=integrand)
        assert stack.reasons == ("rhs_failure", None, None)
        assert 0.0 < stack.t_end[0] < 2.0
        for i in (1, 2):
            one = integrate_geodesic(ex4, states[i:i + 1], 2.0, integrand=integrand)
            assert (stack.n_accepted[i], stack.n_rejected[i], stack.nfev[i]) == (
                one.n_accepted[0], one.n_rejected[0], one.nfev[0])
            assert np.array_equal(stack.y_end[i], one.y_end[0])
        armed.clear()
        traj = integrate_geodesic(ex4, states, 2.0, integrand=integrand)
        assert traj.reasons == (None, None, None) and traj.y_end[0, 0] > 1.6
        armed.append(True)
        assert np.array_equal(traj.y_at([0.1, 2.0, 2.0])[1:], traj.y_end[1:])
        with pytest.raises(TruncatedTrajectoryError, match="rhs_failure"):
            traj.y_at(2.0)


def _solve_ivp_counts(m, states, T, field=None):
    """Accepted and rejected steps and evaluations that scipy's DOP853 takes
    on each state (the pairing-rate column of ``field`` appended), summed.
    Its right-hand side is formed from the oracle tensor, not from the
    connection under test."""
    n = m.dim

    def fun(t, y):
        x, v = y[None, :n], y[n:2 * n]
        G = christoffel_symbols(m, x)[0]
        slope = [v, -np.einsum("kij,i,j->k", G, v, v)]
        if field is not None:
            slope.append(_quadratic(tensor_rate_form(field, m, x), v[None, None])[0])
        return np.concatenate(slope)

    acc = rej = nfev = 0
    for st in states:
        y0 = st if field is None else np.append(st, 0.0)
        sol = solve_ivp(fun, (0.0, T), y0, method="DOP853", rtol=flow.RTOL, atol=flow.ATOL)
        assert sol.status == 0
        n_acc = len(sol.t) - 1
        # two evaluations start the run and every attempt takes twelve
        acc, rej, nfev = acc + n_acc, rej + (sol.nfev - 2) // 12 - n_acc, nfev + sol.nfev
    return acc, rej, nfev


def test_controller_takes_the_standard_steps(ex4):
    # DOP853 with the standard controller at RTOL/ATOL takes on path-ex4's
    # orbits exactly the steps scipy's DOP853 takes; a carried rate sits in
    # the error norm, so scipy carries it too
    Z = zoo.vector_field("warp:ex4:Z")
    states = sample_states(ex4, 10, np.random.default_rng(30))
    for field in (Z, None):
        integrand = None if field is None else partial(pairing_rate, field, ex4)
        traj = integrate_geodesic(ex4, states, 10.0, integrand=integrand)
        stats = traj.stats
        assert (stats.n_accepted, stats.n_rejected_est, stats.nfev) == _solve_ivp_counts(
            ex4, states, 10.0, field)
        # the drift record reads the closed-form inner at every node
        Y = np.concatenate(traj.states)
        X, V = Y[:, :3], Y[:, 3:]
        drift = np.abs(ex4.inner(X, V, V) - 1.0)
        assert np.array_equal(np.concatenate(traj.speed_drift), drift)


def test_path_run_evaluates_the_rhs_nfev_times(ex4):
    # every stepping evaluation passes through the connection once in the
    # spray, Gamma(v, v) with b the very array a; the carried slopes take
    # Gamma(v, X) on the rows of both start-up evaluations and of the 8
    # rated stages of each attempt's 12.  A path run reads end states only,
    # so it never forms the extension's stages
    spray, rate = [], []

    def counted(x, a, b):
        (spray if b is a else rate).append(len(x))
        return ex4.connection(x, a, b)

    m = dataclasses.replace(ex4, connection=counted)
    Z = zoo.vector_field("warp:ex4:Z")
    states = sample_states(ex4, 4, np.random.default_rng(30))
    traj = integrate_geodesic(m, states, 3.0, integrand=partial(pairing_rate, Z, m))
    assert traj.truncated == 0
    nfev, start = traj.stats.nfev, 2 * len(states)
    assert sum(spray) == nfev
    assert sum(rate) == start + 2 * (nfev - start) // 3
    path_integral_identity_residual(Z, m, states, 3.0)
    assert (sum(spray), sum(rate)) == (2 * nfev, 2 * (start + 2 * (nfev - start) // 3))


def test_failed_extension_stage_truncates_reads_in_its_segment(ex4):
    # the connection raises, once armed, beyond x0 = 1.5: the extension is
    # formed after the run, and only the segments whose extra stages cross
    # it fail
    armed = []

    def connection(x, a, b):
        if armed and np.any(x[..., 0] > 1.5):
            raise DomainError("armed")
        return ex4.connection(x, a, b)

    m = dataclasses.replace(ex4, connection=connection)
    st = unit_states(ex4, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], normalize=True)
    traj = integrate_geodesic(m, st, 2.0)
    assert traj.reasons == (None,) and traj.y_end[0, 0] > 1.6
    armed.append(True)
    assert state_at(traj, 0.1)[0, 0] < 1.5
    with pytest.raises(TruncatedTrajectoryError, match="rhs_failure"):
        state_at(traj, 2.0)


def test_extend_finds_the_nodes_a_per_orbit_search_finds(ex2, rng):
    # the reference is the per-orbit np.searchsorted lookup, on a stack of
    # orbits of different step counts, two of them flipped and one
    # truncated short of the span
    states = np.vstack([flipped(ex2, sample_states(ex2, 4, rng), [1, 3]),
                        unit_states(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])])
    traj = integrate_geodesic(ex2, states, 10.0)
    rows = np.array([4, 0, 2, 1, 3, 0])
    off, node_t = traj._node_off, traj._node_t
    # a grid over each orbit's span, and its node times, where ties decide
    t = np.hstack([traj.t_end[rows, None] * np.linspace(0.0, 1.0, 301),
                   [np.resize(node_t[off[i]:off[i + 1]], 64) for i in rows]])
    ref = np.empty(t.shape + (traj._node_y.shape[1],))
    for r, i in enumerate(rows):
        a, b = off[i], off[i + 1]
        node = a + np.minimum(np.searchsorted(node_t[a + 1:b], t[r]), b - a - 2)
        # segment k of an orbit starts at its node k
        x = ((t[r] - node_t[node]) / traj._seg_h[node])[:, None]
        F = traj._dense()[:, node]
        y = F[6] * x
        for j in range(5, -1, -1):
            y = (y + F[j]) * (x if j % 2 == 0 else 1 - x)
        ref[r] = traj._node_y[node] + y
    assert np.array_equal(traj._extend(rows, t), ref)


def test_runaway_speed_drift_truncates(hyperbolic):
    # the first orbit of verify path-integral on hyperbolic:conformal at
    # T = 40: its chart coordinates grow like e^t until, past r = 25 or so,
    # the graph chart's spray carries round-off of about |x|^2 eps^2 that
    # RTOL no longer sees, and the speed drifts off 1
    st = sample_states(hyperbolic, 3, np.random.default_rng(0))[:1]
    traj = integrate_geodesic(hyperbolic, st, 40.0)
    assert traj.reasons == ("speed_drift",)
    assert 10.0 < traj.t_end[0] < 40.0
    (drift,) = traj.speed_drift
    assert drift[-1] > MAX_SPEED_DRIFT >= drift[:-1].max()
    with pytest.raises(TruncatedTrajectoryError, match="speed_drift"):
        path_integral_identity_residual(zoo.vector_field("hyperbolic:conformal"),
                                        hyperbolic, st, 40.0)


def test_monitor_stops_the_orbits_it_flags(torus):
    # the monitor sees each accepted node with its orbit's index in the stack
    st = unit_states(torus, [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
    seen = set()

    def monitor(orbits, y):
        seen.update(orbits.tolist())
        return (orbits == 0) & (y[:, 0] > 1.0)

    traj = integrate_geodesic(torus, st, 5.0, monitor=monitor)
    assert traj.reasons == ("monitor", None)
    assert seen == {0, 1}
    assert 1.0 < traj.t_end[0] < 5.0 == traj.t_end[1]


def test_step_budget_truncates(hyperbolic, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    st = sample_states(hyperbolic, 1, np.random.default_rng(0))
    traj = integrate_geodesic(hyperbolic, st, 5.0)
    assert traj.reasons == ("step_limit",)
    assert traj.n_accepted[0] == 3
    assert traj.t_end[0] < 5.0


def test_step_underflow_truncates(ex2):
    # nearly radial into the polar axis: the steps shrink below the floor
    # just before r = 0 instead of leaving the domain
    st = unit_states(ex2, [1.0, 0.0, 0.0], [-1.0, 1e-9, 0.0], normalize=True)
    traj = integrate_geodesic(ex2, st, 3.0)
    assert traj.reasons == ("step_underflow",)
    assert traj.t_end[0] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(TruncatedTrajectoryError, match="step_underflow"):
        state_at(traj, 2.0)


def test_rhs_failure_truncates_only_its_orbit(ex2):
    # the connection of the finite-difference symbols reaches r <= 0
    # (r = 1 - t on the inward orbit) and raises; the stack is then redone
    # row by row, so each orbit steps on as it does alone
    fd = dataclasses.replace(ex2, connection=fd_connection(ex2))
    states = np.vstack([unit_states(ex2, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
                        unit_states(ex2, [2.0, 0.5, 0.5], [0.0, 1.0, 0.0], normalize=True)])
    stack = integrate_geodesic(fd, states, 3.0)
    assert stack.reasons == ("rhs_failure", None)
    assert 0.0 < stack.t_end[0] < 1.0
    assert stack.t_end[1] == 3.0
    for i in range(2):
        one = integrate_geodesic(fd, states[i:i + 1], 3.0)
        assert one.reasons == stack.reasons[i:i + 1]
        assert (stack.n_accepted[i], stack.n_rejected[i], stack.nfev[i]) == (
            one.n_accepted[0], one.n_rejected[0], one.nfev[0])
        assert stack.t_end[i] == one.t_end[0]
        assert np.array_equal(stack.y_end[i], one.y_end[0])


# ---------------------------------------------------------------------------
# returns


def test_first_return_rational_slope(torus):
    st = unit_states(torus, [0.25, 0.6], [0.6, 0.8])
    (res,) = first_return(torus, st, eps=0.045, t_min=1.0, t_max=100.0)
    assert res.event is not None
    # direction (3,4)/5 on the unit torus returns exactly at t = 5 with gauge
    # |t - 5| nearby, so it enters the 0.045 ball at t = 4.955, between the
    # points of the return grid (step 100 / 8889): the event is the first
    # grid point after that
    assert 4.955 < res.event.t_star < 4.955 + 100 / 8889
    assert res.event.distance <= res.event.epsilon
    assert res.event.distance == pytest.approx(5.0 - res.event.t_star, abs=1e-9)


def test_first_return_agrees_with_grid_oracle(torus, rng):
    # oracle: exhaustive scan of the wrapped position distance on a fine
    # time grid (the angle component is constant on the flat torus)
    states = sample_states(torus, 6, rng)
    for st, res in zip(states, first_return(torus, states, eps=0.05, t_min=1.0, t_max=200.0)):
        ts = np.arange(1.0, 200.0, 0.004)
        pos = np.outer(ts, st[2:]) + st[:2]
        d = pos - st[:2]
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


def _exhaustive_first_return(m, states, eps, t_min, t_max):
    """first_return by an exhaustive scan: the undecided orbits run over
    the same chunks (with the same escape monitor), and the gauge is read
    through ``y_at`` at every point of each chunk's return grid; per state
    ((t_star, distance) or None, conclusive, reason)."""
    n = m.dim
    grid_step = min(eps / 4.0, 0.05)
    cert = m.radius_escape_certificate and m.radius is not None
    r0 = m.radius(states[:, :n]) if cert else None
    prev = r0.copy() if cert else None
    results = [None] * len(states)
    cur, live, t0 = states, np.arange(len(states)), 0.0
    while live.size:
        t1 = min(t0 + flow.RETURN_CHUNK, t_max)

        def monitor(rows, y, live=live):
            r = m.radius(y[:, :n])
            escaped = (r >= prev[live[rows]]) & (r - r0[live[rows]] > eps)
            prev[live[rows]] = r
            return escaped

        traj = integrate_geodesic(m, cur, t1, t_start=t0,
                                  monitor=monitor if cert else None)
        hi = np.minimum(traj.t_end, t1)
        k = np.array([max(2, math.ceil((h - t0) / grid_step) + 1) for h in hi])
        # one grid per orbit, each padded with its last point to the longest
        J = np.arange(k.max())
        ts = np.where(J < k[:, None] - 1, t0 + J * ((hi - t0) / (k - 1))[:, None], hi[:, None])
        ds = proxy_distance(m, traj.y_at(ts), states[live, None])
        cont = []
        for r, orbit in enumerate(live):
            hits = np.flatnonzero((J < k[r]) & (ts[r] >= t_min) & (ds[r] <= eps))
            reason = traj.reasons[r]
            if hits.size:
                results[orbit] = ((ts[r, hits[0]], ds[r, hits[0]]), True, "")
            elif reason is not None:
                results[orbit] = (None, reason == "monitor",
                                  "escape" if reason == "monitor" else reason)
            elif t1 >= t_max:
                results[orbit] = (None, True, "horizon")
            else:
                cont.append(r)
        cur, live, t0 = traj.y_end[cont, :2 * n], live[cont], t1
    return results


def test_first_return_scans_as_an_exhaustive_scan_does(torus, revolution, hyperbolic):
    # the scan reads positions first and forms the gauge only where the
    # position part is within eps; every event, bit for bit, and every
    # verdict must be those of reading the gauge at every grid point.  On
    # the torus the angle part is constant, and the last three orbits
    # return exactly at t = 5, so grid points of gauge next to eps lie on
    # their way in; on the revolution surface the angle part varies; on the
    # hyperbolic plane the orbits escape
    rational = unit_states(torus, [[0.25, 0.6], [0.0, 0.0], [0.7, 0.1]],
                           [[0.6, 0.8], [0.8, 0.6], [-0.6, 0.8]])
    stacks = {
        torus: np.vstack([sample_states(torus, 6, np.random.default_rng(3)), rational]),
        revolution: sample_liouville(revolution, 8, np.random.default_rng(3), radius_cap=2.0),
        hyperbolic: sample_liouville(hyperbolic, 4, np.random.default_rng(3), radius_cap=2.0),
    }
    events, reasons = {}, {}
    for m, states in stacks.items():
        for eps in (0.05, 0.2):
            results = first_return(m, states, eps=eps, t_min=1.0, t_max=200.0)
            oracle = _exhaustive_first_return(m, states, eps, 1.0, 200.0)
            for res, (event, conclusive, reason) in zip(results, oracle):
                got = None if res.event is None else (res.event.t_star, res.event.distance)
                assert (got, res.conclusive, res.reason) == (event, conclusive, reason)
            events[m.name, eps] = sum(res.event is not None for res in results)
            reasons[m.name, eps] = {res.reason for res in results}
    assert events[revolution.name, 0.05] == 3 and events[revolution.name, 0.2] == 7
    assert reasons[hyperbolic.name, 0.05] == reasons[hyperbolic.name, 0.2] == {"escape"}


def test_no_return_on_hyperbolic_plane(hyperbolic, rng):
    for res in first_return(hyperbolic, sample_states(hyperbolic, 5, rng),
                            eps=0.1, t_min=1.0, t_max=100.0):
        assert res.event is None
        assert res.conclusive
        assert res.reason == "escape"


def test_first_return_inconclusive_on_truncation(ex2):
    st = unit_states(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])
    (res,) = first_return(ex2, st, eps=0.01, t_min=0.5, t_max=50.0)
    assert res.event is None
    assert not res.conclusive


def test_first_return_input_validation(torus):
    st = unit_states(torus, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        first_return(torus, st, eps=-1.0)
    with pytest.raises(ValueError):
        first_return(torus, st, t_min=5.0, t_max=2.0)
    # the return grid's step is eps / 4 below eps = 0.2: eps 1e-7 would
    # scan 4e9 points per orbit, and at 1e-300 the point count overflows
    # an int64; both are refused before any step
    for eps in (1e-7, 1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"eps {eps!r} and t_max 1000.0 .* budget"):
            first_return(torus, st, eps=eps)
    # the suite's eps 0.05 over t_max 1000 scans 80,000 steps per orbit, a
    # hundredth of the budget or less
    assert 100 * 1000.0 / return_grid_step(0.05, 1000.0) <= flow.MAX_RETURN_POINTS


def test_proxy_distance_periodic_wrap(torus):
    st = unit_states(torus, [0.05, 0.0], [1.0, 0.0])
    Y = np.array([[0.95, 0.0, 1.0, 0.0]])
    d = proxy_distance(torus, Y, st)
    assert d[0] == pytest.approx(0.1, abs=1e-12)


def test_radius_stretch_constant_revolution(revolution, radius_stretch_constant):
    # near-meridian escaping fan: travel time tracks the radius |x| closely
    V = []
    for ang in np.linspace(-0.3, 0.3, 7):
        V += [[math.cos(ang), math.sin(ang)], [-math.cos(ang), math.sin(ang)]]
    states = unit_states(revolution, np.zeros((len(V), 2)), V, normalize=True)
    C = radius_stretch_constant(revolution, states, T=30.0, r_floor=2.0)
    assert 1.0 <= C < 3.0


# ---------------------------------------------------------------------------
# the state stack at the orbit entry points


ENTRY_POINTS = {
    "integrate_geodesic": lambda m, S: integrate_geodesic(m, S, 1.0),
    "path_integral_identity_residual": lambda m, S: path_integral_identity_residual(
        zoo.vector_field("torus:wave"), m, S, 1.0),
    "first_return": lambda m, S: first_return(m, S, t_max=2.0),
    "hopf_probe": lambda m, S: hopf_probe(m, S),
}


@pytest.mark.parametrize("bad", ["empty", "wrong-width", "bare-row"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_orbit_entry_points_reject_misshapen_states(torus, entry, bad):
    st = unit_states(torus, [0.1, 0.2], [0.6, 0.8])
    states = {"empty": st[:0], "wrong-width": st[:, :3], "bare-row": st[0]}[bad]
    with pytest.raises(ValueError, match=r"shape \(N, 4\) with N >= 1"):
        ENTRY_POINTS[entry](torus, states)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_orbit_entry_points_return_a_stack_of_one(torus, entry):
    out = ENTRY_POINTS[entry](torus, unit_states(torus, [0.1, 0.2], [0.6, 0.8]))
    if entry == "integrate_geodesic":
        assert out.t_end.shape == (1,) and out.y_end.shape == (1, 4)
        assert len(out.states) == len(out.speed_drift) == 1
        assert out.y_at(0.5).shape == (1, 4)
    else:
        assert len(out) == 1


def test_integrate_geodesic_takes_one_forward_span(torus):
    # one finite span with t_start < t_final for the whole stack: an orbit
    # runs backward as the forward orbit of its flipped state
    st = unit_states(torus, [[0.1, 0.2], [0.3, 0.4]], [[0.6, 0.8], [1.0, 0.0]])
    for t_final, t_start in ((np.array([1.0, 2.0]), 0.0), (1.0, np.array([0.0, 0.5])),
                             (-1.0, 0.0), (1.0, 1.0), (0.5, 1.0),
                             (np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="one finite forward span"):
            integrate_geodesic(torus, st, t_final, t_start=t_start)
    traj = integrate_geodesic(torus, st, 2.0, t_start=1.0)
    assert np.array_equal(traj.t_end, [2.0, 2.0])
    assert np.allclose(traj.y_at(1.5)[:, :2], st[:, :2] + 0.5 * st[:, 2:])
