import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from divflow import runner, zoo
from divflow.diagnostics import (
    CUTOFF_GRAD_CONSTANT,
    cutoff_bump,
    cutoff_estimate,
    default_observable,
    hopf_probe,
    karp_sequence,
    rate_integrability_ladder,
    recurrence_fraction,
    x_decay_at_infinity,
)
from divflow.flow import birkhoff_integral, integrate_geodesic, path_integral_identity_residual
from divflow.geometry import VectorFieldDef, covariant_derivative, pairing_rate_form
from divflow.integrals import (
    QuadraticIntegrand,
    fiber_integral,
    omega,
    sample_box_points,
    sample_liouville,
    sample_states,
)
from divflow.runner import ExperimentConfig, report_to_csv, run
from oracles import TANH_RADIAL, field_pairs, hyperbolic_geodesic, unit_states

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2


def _zero_field(dim):
    return VectorFieldDef(lambda x: np.zeros(dim),
                          jacobian=lambda x: np.zeros((dim, dim)))


# ---------------------------------------------------------------------------
# annulus decay (Karp-type quantity)


def test_karp_sequence_zero_field(ex3):
    reps = karp_sequence(ex3, _zero_field(3), [2.0, 5.0])
    for r in reps:
        assert r.mass == pytest.approx(0.0, abs=1e-12)
        assert r.normalized == pytest.approx(0.0, abs=1e-12)


def test_karp_sequence_example1(revolution, radius_stretch_constant):
    W = zoo.vector_field("revolution:W")
    reps = karp_sequence(revolution, W, [10.0, 100.0, 1000.0])
    vals = [r.normalized for r in reps]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] < 0.1
    # annulus mass bound 4 pi (log(2 C r + 2 pi) - log r) with the measured
    # time-vs-radius constant
    V = [[math.cos(a), math.sin(a)] for a in np.linspace(-0.25, 0.25, 5)]
    V += [[-math.cos(a), math.sin(a)] for a in np.linspace(-0.25, 0.25, 5)]
    states = unit_states(revolution, np.zeros((len(V), 2)), V, normalize=True)
    C = radius_stretch_constant(revolution, states, T=30.0)
    for rep in reps:
        bound = 4.0 * math.pi * (math.log(2.0 * C * rep.radius + TWO_PI)
                                 - math.log(rep.radius)) / rep.radius
        assert rep.normalized <= bound + 3.0 * rep.stderr + 1e-9


def test_karp_sequence_example2_bounded_below(ex2):
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    reps = karp_sequence(ex2, Zbar, [5.0, 10.0, 20.0])
    vals = [r.normalized for r in reps]
    # tail construction makes sinh^2 b constant: the normalized mass is the
    # constant 4 pi^2 sinh(2)^2, far from zero
    expect = FOUR_PI_SQ * math.sinh(2.0) ** 2
    for rep, v in zip(reps, vals):
        assert v == pytest.approx(expect, rel=1e-6)
    # nondecreasing within estimator error
    for a, b in zip(reps[:-1], reps[1:]):
        assert b.normalized >= a.normalized - 3.0 * (a.stderr + b.stderr) - 1e-9


def test_karp_csv(ex2):
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    reps = karp_sequence(ex2, Zbar, [2.0, 4.0])
    report = run(ExperimentConfig(kind="karp", manifold="warp:ex2",
                                  fields=("warp:ex2:Zbar",),
                                  params={"radii": [2.0, 4.0]}))
    lines = report_to_csv(report).splitlines()
    assert lines[0] == "r,mass,normalized,stderr"
    assert lines[1:] == [f"{r.radius!r},{r.mass!r},{r.normalized!r},{r.stderr!r}"
                         for r in reps]


def test_karp_sequence_forms_the_field_once(ex2):
    # every annulus comes from one stacked call, and equals its own call
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    calls = []

    def components(x):
        calls.append(len(x))
        return Zbar.components(x)

    radii = [2.0, 4.0, 8.0]
    reps = karp_sequence(ex2, VectorFieldDef(components, Zbar.jacobian), radii)
    assert len(calls) == 1
    assert reps == [karp_sequence(ex2, Zbar, [r])[0] for r in radii]
    assert karp_sequence(ex2, Zbar, []) == []


def test_karp_requires_radius(torus):
    with pytest.raises(ValueError):
        karp_sequence(torus, _zero_field(2), [1.0])


# ---------------------------------------------------------------------------
# cutoff estimate


def test_cutoff_bump_shape_and_gradient(hyperbolic, rng):
    r = 4.0
    phi = cutoff_bump(hyperbolic, r)
    assert phi(np.array([0.0, 0.0])) == 1.0
    far = math.sinh(2.5 * r)
    assert phi(np.array([far, 0.0])) == 0.0
    # |grad phi| <= C / r: radial finite differences against the surrogate
    for rad in np.linspace(r * 1.05, 2.0 * r * 0.95, 30):
        x1 = np.array([math.sinh(rad), 0.0])
        x2 = np.array([math.sinh(rad + 1e-5) , 0.0])
        num = abs(phi(x2) - phi(x1)) / (hyperbolic.radius(x2) - hyperbolic.radius(x1))
        assert num <= CUTOFF_GRAD_CONSTANT / r + 1e-6


def test_cutoff_zero_field(ex3):
    rep = cutoff_estimate(ex3, _zero_field(3), 2.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.lhs <= rep.bound(3.0)


def test_cutoff_divergence_free_W(revolution):
    W = zoo.vector_field("revolution:W")
    rep = cutoff_estimate(revolution, W, 10.0)
    assert rep.lhs < 1e-8
    assert rep.rhs > 0.1
    assert rep.lhs <= rep.bound(3.0)


def test_cutoff_ex4_with_slack(ex4):
    Z = zoo.vector_field("warp:ex4:Z")
    rep = cutoff_estimate(ex4, Z, 5.0)
    assert rep.lhs <= rep.bound(3.0)
    assert rep.slack > 0
    blob = runner._jsonable(rep)
    assert {"r", "lhs", "rhs", "constant", "slack"} <= set(blob)


def test_cutoff_all_pairs_small_radii():
    for fid, m, f in field_pairs():
        rep = cutoff_estimate(m, f, 2.0)
        assert rep.lhs <= rep.bound(3.0), (fid, rep)


# ---------------------------------------------------------------------------
# integrability ladders


def test_rate_ladder_killing_fields_vanish(ex2, ex3):
    for mid, fid in (("warp:ex2", "warp:ex2:Zbar"), ("warp:ex3", "warp:ex3:Ubar")):
        m, f = zoo.manifold(mid), zoo.vector_field(fid)
        est = rate_integrability_ladder(m, f, r0=1.0, rungs=4, order=8)
        assert abs(est.value) < 1e-7
        assert est.converged


def test_rate_ladder_W_converges_under_bound(revolution):
    W = zoo.vector_field("revolution:W")
    est = rate_integrability_ladder(revolution, W, r0=1.0, rungs=10, order=10,
                                    rel_tol=5e-3)
    assert est.converged
    # |rate| <= 3 pointwise and the area is finite
    area = 21.179068
    assert est.value <= 3.0 * TWO_PI * area


def test_rate_ladder_ex4_diverges_linearly(ex4):
    # the fiber average of |rate| grows like (16/(3 sqrt 3)) pi z, so the
    # ladder grows linearly in the truncation radius: flagged divergent
    Z = zoo.vector_field("warp:ex4:Z")
    est = rate_integrability_ladder(ex4, Z, r0=0.75, rungs=5, order=10)
    assert est.converged is False
    trace = est.truncation_trace
    slope = (trace[-1][1] - trace[-2][1]) / (trace[-1][0] - trace[-2][0])
    expect = FOUR_PI_SQ * 4.0 * math.pi * 4.0 / (3.0 * math.sqrt(3.0))
    assert slope == pytest.approx(expect, rel=0.05)


# ---------------------------------------------------------------------------
# decay at infinity


def test_decay_example3_to_zero(ex3):
    Ubar = zoo.vector_field("warp:ex3:Ubar")
    radii = [2.0, 5.0, 10.0, 20.0]
    sups = x_decay_at_infinity(ex3, Ubar, radii, n_samples=200)
    vals = [s["sup"] for s in sups]
    assert all(np.diff(vals) < 0)
    prof = zoo.warp_profile_infinite_volume()
    for r, s in zip(radii, sups):
        # |U-lift| = b, so the annulus sup is b at the inner edge
        assert s["sup"] == pytest.approx(prof.b(r), rel=0.02)
        assert s["n_samples"] == 200


def test_decay_example2_grows(ex2):
    Zbar = zoo.vector_field("warp:ex2:Zbar")
    sups = x_decay_at_infinity(ex2, Zbar, [2.0, 4.0, 8.0], n_samples=100)
    vals = [s["sup"] for s in sups]
    assert vals[0] < vals[1] < vals[2]
    assert vals[-1] == pytest.approx(math.sinh(16.0), rel=0.01)


def test_decay_zero_field(ex3):
    sups = x_decay_at_infinity(ex3, _zero_field(3), [2.0, 4.0], n_samples=50)
    assert all(s["sup"] == 0.0 for s in sups)


# ---------------------------------------------------------------------------
# recurrence statistics


def test_recurrence_torus_high_fraction(torus):
    stats = recurrence_fraction(torus, 60, eps=0.05, t_min=1.0, t_max=1000.0,
                                seed=5)
    assert stats.fraction is not None and stats.fraction >= 0.95
    assert stats.n_inconclusive == 0
    blob = runner._jsonable(stats)
    assert blob["eps"] == 0.05 and blob["seed"] == 5


def test_recurrence_hyperbolic_zero(hyperbolic):
    stats = recurrence_fraction(hyperbolic, 30, eps=0.05, t_min=1.0,
                                t_max=1000.0, seed=5, radius_cap=2.0)
    assert stats.fraction == 0.0
    assert stats.n_inconclusive == 0
    assert stats.radius_cap == 2.0


def test_recurrence_rejects_empty_sample(torus):
    with pytest.raises(ValueError):
        recurrence_fraction(torus, 0)


def test_recurrence_repeats_exactly(torus):
    a = recurrence_fraction(torus, 20, t_max=200.0, seed=9)
    b = recurrence_fraction(torus, 20, t_max=200.0, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# growth probes


def test_hopf_torus_divergent(torus, rng):
    for probe in hopf_probe(torus, sample_liouville(torus, 8, rng)):
        assert probe.label == "divergent-like"
        assert probe.slope == pytest.approx(1.0, abs=0.01)
        assert probe.r_squared >= 0.99


def test_hopf_hyperbolic_convergent(hyperbolic, rng):
    for probe in hopf_probe(hyperbolic, sample_liouville(hyperbolic, 8, rng, radius_cap=0.75)):
        assert probe.label == "convergent-like"
        assert probe.slope <= 0.1


@pytest.mark.parametrize("cap", [12.0, 15.0, 18.0])
def test_hopf_far_field_orbits_reach_their_horizon(hyperbolic, cap):
    # draws out to the frame's reach run outward another 12 units of r;
    # read through the closed-form inner, their speed stays unit to round-off
    states = sample_liouville(hyperbolic, 6, np.random.default_rng(0), radius_cap=cap)
    assert [probe.truncated for probe in hopf_probe(hyperbolic, states)] == [False] * 6


def test_hopf_rejects_nonpositive_observable(torus, rng):
    st = sample_liouville(torus, 1, rng)
    with pytest.raises(ValueError):
        hopf_probe(torus, st, f0=lambda x: 0.0)


def test_hopf_values_match_birkhoff_integrals(hyperbolic, rng):
    # oracle: each Birkhoff run ends on a step node at T, so it reads no
    # continuous extension, while the probe reads every horizon from it
    S = sample_liouville(hyperbolic, 3, rng, radius_cap=0.75)
    f0 = default_observable(hyperbolic)
    probes = hopf_probe(hyperbolic, S, f0=f0)
    horizons = probes[0].horizons
    assert len(horizons) == 9
    for k, T in enumerate(horizons):
        want = birkhoff_integral(lambda x, v: f0(x), hyperbolic, S, T)
        for probe, w in zip(probes, want):
            assert probe.horizons == horizons
            assert probe.values[k] == pytest.approx(w, rel=1e-7)


def test_hopf_inconclusive_on_truncation(ex2):
    st = unit_states(ex2, [2.0, 1.0, 1.0], [-1.0, 0.0, 0.0])
    horizons = [1.0, 2.0, 4.0, 8.0, 16.0]
    f0 = lambda x: 1.0
    # the run the probe makes: its carried integral shapes the steps
    (t_end,) = integrate_geodesic(ex2, st, horizons[-1], integrand=lambda x, v: f0(x)).t_end
    assert t_end < horizons[-1]
    (probe,) = hopf_probe(ex2, st, f0=f0, horizons=horizons)
    assert probe.truncated
    assert probe.label == "inconclusive"
    # the probe keeps exactly the horizons the orbit reached
    assert probe.horizons == tuple(T for T in horizons if T <= t_end)
    assert probe.values == pytest.approx(probe.horizons, rel=1e-12)


def test_hopf_hyperbolic_orbits_match_the_analytic_geodesic(hyperbolic):
    # hopf-hyperbolic's twelve draws: the run hopf_probe makes, against the
    # closed-form geodesic and quad's integral of the observable along it
    states = sample_liouville(hyperbolic, 12, np.random.default_rng(27), radius_cap=0.75)
    f0 = default_observable(hyperbolic)
    horizons = np.geomspace(1.0, 12.0, 9)
    traj = integrate_geodesic(hyperbolic, states, 12.0, integrand=lambda x, v: f0(x))
    assert traj.truncated == 0
    I = traj.y_at(np.broadcast_to(horizons, (12, 9)))[..., -1]
    for st, y, I_orbit in zip(states, traj.y_end, I):
        def along(t):
            return float(f0(hyperbolic_geodesic(st[:2], st[2:], t)[0]))

        x_end = hyperbolic_geodesic(st[:2], st[2:], 12.0)[0]
        assert np.linalg.norm(y[:2] - x_end) <= 1e-8 * np.linalg.norm(x_end)
        pieces = [quad(along, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                  for a, b in zip(np.r_[0.0, horizons[:-1]], horizons)]
        assert_allclose(I_orbit, np.cumsum(pieces), rtol=1e-8)


def test_default_observable_integrable_choice(hyperbolic, torus):
    f0 = default_observable(hyperbolic)
    assert f0(np.array([0.0, 0.0])) == pytest.approx(1.0)
    far = np.array([math.sinh(3.0), 0.0])
    assert f0(far) == pytest.approx(math.exp(-3.0 * 3.0), rel=1e-9)
    # no radius surrogate: constant observable (compact manifold)
    assert default_observable(torus)(np.array([0.3, 0.4])) == 1.0


def test_auxiliary_observable_positivity(hyperbolic, rng):
    # strictly positive observable has strictly positive short-time orbit
    # integrals; swept over many random initial states
    f0 = default_observable(hyperbolic)
    states = sample_states(hyperbolic, 1000, rng)
    for val in birkhoff_integral(lambda x, v: f0(x), hyperbolic, states, 1.0):
        assert val > 0.0


# ---------------------------------------------------------------------------
# a field with flux: X = tanh(r) d_r on warp:ex2, div X != 0


def test_fiber_lemma_on_a_field_with_flux(ex2, rng):
    pts = sample_box_points(ex2, 200, rng)
    A = covariant_derivative(TANH_RADIAL, ex2, pts)
    div = np.trace(A, axis1=-2, axis2=-1)
    fib = fiber_integral(ex2, QuadraticIntegrand(partial(pairing_rate_form, TANH_RADIAL, ex2)),
                         pts)
    assert np.max(np.abs(div)) > 1.0     # the plain form's integrand is not zero
    assert np.max(np.abs(fib - omega(3) / 3.0 * div)) <= 1e-12


def test_path_identity_on_a_field_with_flux(ex2, rng):
    states = sample_states(ex2, 10, rng)
    assert np.max(path_integral_identity_residual(TANH_RADIAL, ex2, states, 10.0)) <= 1e-9


def test_karp_sequence_of_a_field_with_flux_decays(ex2):
    # 60.35, 4.668, 0.04354, 7.3e-6: |X| <= 1 on a manifold of finite volume
    vals = [r.normalized for r in karp_sequence(ex2, TANH_RADIAL, [2.0, 4.0, 8.0, 16.0])]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:])), vals
    assert vals[-1] < 1e-4


def test_rate_ladder_of_a_field_with_flux_converges(ex2):
    est = rate_integrability_ladder(ex2, TANH_RADIAL, r0=1.0, rungs=8, order=12)
    assert est.converged
    assert est.value == pytest.approx(2227.04, rel=1e-5)


def test_rate_ladder_of_the_conformal_field_is_closed_form(hyperbolic):
    # |rate| = z on unit vectors, so the bundle integral over r <= R is
    # 2 pi * 2 pi * int_0^R cosh r sinh r dr = 2 pi^2 sinh^2 R
    est = rate_integrability_ladder(hyperbolic, zoo.vector_field("hyperbolic:conformal"),
                                    r0=1.0, rungs=4)
    for R, value in est.truncation_trace:
        expect = 2.0 * math.pi ** 2 * math.sinh(R) ** 2
        assert abs(value - expect) <= 1e-10 * expect, (R, value)
