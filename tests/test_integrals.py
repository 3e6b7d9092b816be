import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from divflow import zoo
from divflow.geometry import divergence, field_norm, pairing_rate_form, pairing_rates
from divflow.integrals import (
    ChartBox,
    IntegralEstimate,
    RadialShell,
    _uniform_in,
    base_integral,
    fiber_integral,
    fiber_rule,
    fubini_consistency,
    ladder_integral,
    omega,
    resolve_patches,
    sample_liouville,
    sm_integral,
)

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2


def test_omega_values():
    assert omega(2) == pytest.approx(TWO_PI, rel=1e-15)
    assert omega(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert omega(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    with pytest.raises(ValueError):
        omega(1)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 9))
def test_omega_recurrence(n):
    # omega_{n+1} = 2 pi omega_{n-1} / n in sphere-measure indexing
    assert omega(n + 2) == pytest.approx(TWO_PI * omega(n) / n, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_fiber_rule_weights_and_moments(n):
    rule = fiber_rule(n)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(omega(n), abs=1e-12)
    assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)
    # quadratic moments: int z_i z_j = delta_ij * omega / n
    M = (rule.nodes.T * rule.weights) @ rule.nodes
    assert_allclose(M, (omega(n) / n) * np.eye(n), atol=1e-12)


def test_fiber_integral_of_constant(hyperbolic, ex4):
    assert fiber_integral(hyperbolic, lambda x, v: 1.0, [0.4, -0.2]) == pytest.approx(
        omega(2), rel=1e-13)
    assert fiber_integral(ex4, lambda x, v: 1.0, [0.4, -0.2, 1.0]) == pytest.approx(
        omega(3), rel=1e-13)


def test_fiber_average_identity_all_pairs(rng):
    # the central check: fiber integral of the pairing rate against the
    # divergence, on a modest sweep (the acceptance suite does 10^3 points)
    from divflow.integrals import sample_box_points
    for m, f in zoo.field_pairs():
        rule = fiber_rule(m.dim)
        w = omega(m.dim) / m.dim
        tol = 1e-8 if m.dim == 2 else 1e-6
        for x in sample_box_points(m, 50, rng):
            fib = fiber_integral(m, partial(pairing_rates, f, m), x, rule=rule)
            assert abs(fib - w * divergence(f, m, x)) < tol, (m.name, f.name, x)


def test_ex4_volume_and_divergence_integral(ex4):
    Z = zoo.vector_field("warp:ex4:Z")
    vol = base_integral(ex4, lambda x: 1.0, RadialShell(0.0, 14.0))
    assert vol.value == pytest.approx(FOUR_PI_SQ, rel=1e-3)
    din = base_integral(ex4, lambda x: divergence(Z, ex4, x), RadialShell(0.0, 14.0))
    assert din.value == pytest.approx(FOUR_PI_SQ, rel=5e-3)


def test_W_norm_ladder_diverges_logarithmically(revolution):
    W = zoo.vector_field("revolution:W")
    est = ladder_integral(revolution, lambda x: field_norm(W, revolution, x),
                          r0=8.0, rungs=8)
    assert est.converged is False
    trace = est.truncation_trace
    # |W| = |x| with area density ~ 1/(1+x^2): each doubling adds ~ 4 pi ln 2
    late = [trace[i + 1][1] - trace[i][1] for i in range(4, 7)]
    for inc in late:
        assert inc == pytest.approx(4.0 * math.pi * math.log(2.0), rel=0.05)


def test_ladder_trace_monotone_for_nonnegative_integrand(ex4):
    est = ladder_integral(ex4, lambda x: 1.0, r0=0.5, rungs=6)
    vals = [v for _, v in est.truncation_trace]
    assert all(np.diff(vals) > 0)
    assert est.truncation_radius == 16.0
    assert est.converged is True


def test_estimate_json_fields(ex4):
    est = ladder_integral(ex4, lambda x: 1.0, r0=0.5, rungs=3)
    blob = est.to_json()
    assert set(blob) == {"value", "stderr", "nodes", "truncation_radius",
                         "truncation_trace", "converged"}
    assert blob["stderr"] >= 0.0
    assert isinstance(blob["truncation_trace"], list)


def _montecarlo(m, h, region, n_mc, seed) -> IntegralEstimate:
    """Plain Monte Carlo of the base integral: per patch, the box volume
    times the sample mean of h times the density, with its standard error."""
    rng = np.random.default_rng(seed)
    values, errs = [], []
    for patch in resolve_patches(m, region):
        vol = float(np.prod([hi - lo for lo, hi in patch.bounds]))
        u = _uniform_in(patch.bounds, rng, (n_mc,))
        vals = np.asarray(h(patch.to_chart(u)), dtype=float) * patch.density(u)
        mean = float(np.sum(vals)) / n_mc
        var = float(np.sum((vals - mean) ** 2)) / max(1, n_mc - 1)
        values.append(vol * mean)
        errs.append(vol * math.sqrt(var / n_mc))
    return IntegralEstimate(value=math.fsum(values),
                            stderr=math.sqrt(math.fsum(e * e for e in errs)),
                            nodes=n_mc * len(errs))


def test_quadrature_vs_montecarlo_consistency(ex4, rng):
    Z = zoo.vector_field("warp:ex4:Z")
    region = RadialShell(0.5, 4.0)
    h = lambda x: field_norm(Z, ex4, x)
    q = base_integral(ex4, h, region)
    mc = _montecarlo(ex4, h, region, n_mc=20000, seed=3)
    assert abs(q.value - mc.value) <= 3.0 * (q.stderr + mc.stderr) + 1e-12
    assert mc.stderr > 0


def test_sm_integral_of_constant_is_omega_times_volume(ex4):
    est = sm_integral(ex4, lambda x, v: 1.0, RadialShell(0.0, 12.0))
    assert est.value == pytest.approx(omega(3) * FOUR_PI_SQ, rel=2e-3)


def test_sm_integral_killing_rate_vanishes(ex2):
    Zbar = zoo.vector_field("warp:ex2:Zbar")

    def F(X, V):
        return ((V @ pairing_rate_form(Zbar, ex2, X)) * V).sum(axis=-1)

    est = sm_integral(ex2, F, RadialShell(0.0, 8.0))
    assert abs(est.value) < 1e-8


def test_sm_integral_two_route_divergence_value(ex4):
    # bundle integral of the rate equals (omega/3) * divergence integral;
    # over the whole space both sides are 4 pi^2 * omega(3) / 3
    Z = zoo.vector_field("warp:ex4:Z")
    est = sm_integral(ex4, partial(pairing_rates, Z, ex4), RadialShell(0.0, 12.0))
    expect = (omega(3) / 3.0) * FOUR_PI_SQ
    assert est.value == pytest.approx(expect, rel=1e-2)


def test_fubini_consistency_constant(torus):
    out = fubini_consistency(torus, lambda x, v: 1.0,
                             ChartBox(((0.0, 1.0), (0.0, 1.0))), n_mc=4000, seed=5)
    assert out["consistent"]
    assert out["iterated"] == pytest.approx(TWO_PI, rel=1e-10)


def test_fubini_consistency_W_rate(revolution):
    W = zoo.vector_field("revolution:W")

    def F(X, V):
        return ((V @ pairing_rate_form(W, revolution, X)) * V).sum(axis=-1)

    out = fubini_consistency(revolution, F,
                             ChartBox(((-10.0, 10.0), (0.0, TWO_PI))),
                             n_mc=4000, seed=7)
    assert out["consistent"]


def test_fubini_consistency_product_integrand(torus):
    # separable integrand with a closed-form value
    def F(X, V):
        return (1.0 + 0.5 * np.sin(TWO_PI * X[..., 0]))[..., None] * V[..., 0] ** 2

    out = fubini_consistency(torus, F, ChartBox(((0.0, 1.0), (0.0, 1.0))),
                             n_mc=6000, seed=9)
    # base integral 1, fiber integral of v_1^2 is omega(2)/2 = pi
    assert out["iterated"] == pytest.approx(math.pi, rel=1e-8)
    assert out["consistent"]


def test_sample_liouville_matches_volume_weight(hyperbolic, rng):
    # radial CDF within the cap should follow (cosh r - 1) / (cosh R - 1)
    cap = 2.0
    states = sample_liouville(hyperbolic, 4000, rng, radius_cap=cap)
    radii = np.array([hyperbolic.radius(s.x) for s in states])
    assert radii.max() <= cap + 1e-9
    med_expected = float(np.arccosh(1.0 + 0.5 * (math.cosh(cap) - 1.0)))
    assert np.median(radii) == pytest.approx(med_expected, abs=0.05)
    # velocities are unit
    from divflow.geometry import metric_at
    for s_ in states[:50]:
        g = metric_at(hyperbolic, s_.x)
        assert float(s_.v @ g @ s_.v) == pytest.approx(1.0, abs=1e-10)


def test_sample_liouville_rejects_bad_input(torus):
    with pytest.raises(ValueError):
        sample_liouville(torus, 0, np.random.default_rng(0))
