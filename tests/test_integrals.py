import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from divflow import integrals, runner, zoo
from divflow.geometry import (
    divergence,
    field_norm,
    metric_at,
    orthonormal_frame,
    pairing_rate_form,
)
from divflow.integrals import (
    ChartBox,
    IntegralEstimate,
    QuadraticIntegrand,
    RadialShell,
    _uniform_in,
    base_integral,
    fiber_integral,
    fiber_rule,
    fubini_consistency,
    ladder_integral,
    omega,
    resolve_patches,
    sample_box_points,
    sample_liouville,
    sm_integral,
)
from oracles import PAIR_IDS, field_pairs, pairing_rates

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
    # the cached second moments u_i u_j, one row per (i, j)
    assert rule.moments.shape == (n * n, len(rule.weights))
    assert_allclose((rule.weights @ rule.moments.T).reshape(n, n), M, rtol=1e-14, atol=1e-15)


def test_fiber_integral_of_constant(hyperbolic, ex4):
    assert fiber_integral(hyperbolic, lambda x, v: 1.0, [0.4, -0.2]) == pytest.approx(
        omega(2), rel=1e-13)
    assert fiber_integral(ex4, lambda x, v: 1.0, [0.4, -0.2, 1.0]) == pytest.approx(
        omega(3), rel=1e-13)


# the pairing rate as a bundle integrand: on the directions, or as a form
RATE_INTEGRANDS = {
    "generic": lambda f, m: partial(pairing_rates, f, m),
    "quadratic": lambda f, m: QuadraticIntegrand(partial(pairing_rate_form, f, m)),
}


@pytest.mark.parametrize("kind", sorted(RATE_INTEGRANDS))
def test_fiber_average_identity_all_pairs(kind, rng):
    # the central check: fiber integral of the pairing rate against the
    # divergence, on a modest sweep (the acceptance suite does 10^3 points)
    for m, f in field_pairs():
        w = omega(m.dim) / m.dim
        tol = 1e-8 if m.dim == 2 else 1e-6
        F = RATE_INTEGRANDS[kind](f, m)
        for x in sample_box_points(m, 50, rng):
            fib = fiber_integral(m, F, x)
            assert abs(fib - w * divergence(f, m, x)) < tol, (m.name, f.name, x)


@pytest.mark.parametrize("post", [None, np.abs], ids=["rate", "abs-rate"])
@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_quadratic_fiber_path_matches_generic(mid, fid, post, rng):
    m, f = zoo.manifold(mid), zoo.vector_field(fid)
    pts = sample_box_points(m, 40, rng)
    F = QuadraticIntegrand(partial(pairing_rate_form, f, m), post=post)
    quadratic = fiber_integral(m, F, pts)
    generic = fiber_integral(m, lambda X, V: F(X, V), pts)
    # relative to the integral of |rate|, which bounds both values; a
    # Killing field's rate integrates to round-off
    scale = fiber_integral(m, lambda X, V: np.abs(F(X, V)), pts)
    assert np.all(np.abs(quadratic - generic) <= 1e-12 * scale), (mid, fid)


def _fiber_integral_per_block(m, F, X, rule, block):
    """fiber_integral with the frame and the form rebuilt in every block."""
    out = np.empty(len(X))
    for s in range(0, len(X), block):
        Xb = X[s:s + block]
        E = orthonormal_frame(m, Xb)
        Et = np.swapaxes(E, -1, -2)
        if isinstance(F, QuadraticIntegrand):
            Q = Et @ F.form(Xb) @ E
            vals = F._finish(Q.reshape(len(Xb), -1) @ rule.moments)
        else:
            V = rule.nodes @ Et
            vals = np.broadcast_to(np.asarray(F(Xb, V), dtype=float), V.shape[:-1])
        out[s:s + block] = vals @ rule.weights
    return out


@pytest.mark.parametrize("kind", ["generic", "quadratic", "quadratic-abs"])
@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_fiber_integral_forms_its_geometry_once(mid, fid, kind, monkeypatch, rng):
    # the frame and the rate form depend only on the point: one form call
    # per fiber_integral call, and the same bits as rebuilding them per block
    m, f = zoo.manifold(mid), zoo.vector_field(fid)
    rule = fiber_rule(m.dim)
    pts = sample_box_points(m, 40, rng)
    calls = []

    def form(X):
        calls.append(len(X))
        return pairing_rate_form(f, m, X)

    if kind == "generic":
        F = partial(pairing_rates, f, m)
    else:
        F = QuadraticIntegrand(form, post=np.abs if kind == "quadratic-abs" else None)
    for block in (7, 16):
        monkeypatch.setattr(integrals, "FIBER_BLOCK_BYTES", block * rule.nodes.nbytes)
        calls.clear()
        got = fiber_integral(m, F, pts)
        if kind != "generic":
            assert calls == [len(pts)]
        assert np.array_equal(got, _fiber_integral_per_block(m, F, pts, rule, block)), block


@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_quadratic_integrand_on_one_direction_is_pairing_rates(mid, fid, rng):
    # the direct Monte Carlo estimate of fubini_consistency calls it so
    m, f = zoo.manifold(mid), zoo.vector_field(fid)
    pts = sample_box_points(m, 40, rng)
    c = rng.normal(size=pts.shape)
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    V = (orthonormal_frame(m, pts) @ c[..., None])[..., 0][:, None, :]
    F = QuadraticIntegrand(partial(pairing_rate_form, f, m))
    assert np.array_equal(F(pts, V), pairing_rates(f, m, pts, V))


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
    blob = runner._jsonable(est)
    assert set(blob) == {"value", "stderr", "nodes", "truncation_radius",
                         "truncation_trace", "converged"}
    assert blob["stderr"] >= 0.0
    assert isinstance(blob["truncation_trace"], list)


def _one_pass_at_a_time(m, h, region, order) -> IntegralEstimate:
    """``base_integral`` with one call of h per tensor pass, its nodes and
    weights from meshgrids of the axis rules."""
    values, errs, nodes = [], [], 0
    for patch in resolve_patches(m, region):
        sums = []
        for o in (max(2, order // 2), order):
            breaks = patch.breakpoints or ((),) * len(patch.bounds)
            axes = [integrals._axis_nodes(lo, hi, o, breaks=brk)
                    for (lo, hi), brk in zip(patch.bounds, breaks)]
            grids = np.meshgrid(*[t for t, _ in axes], indexing="ij")
            wgrids = np.meshgrid(*[w for _, w in axes], indexing="ij")
            u = np.stack([g.ravel() for g in grids], axis=-1)
            w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
            hu = np.asarray(h(patch.to_chart(u)), dtype=float)
            sums.append(math.fsum(w * (hu * patch.density(u))))
        values.append(sums[1])
        errs.append(abs(sums[1] - sums[0]))
        nodes += len(u)
    return IntegralEstimate(value=math.fsum(values), stderr=math.fsum(errs), nodes=nodes)


SHELL_IDS = [mid for mid in zoo.MANIFOLD_IDS if zoo.manifold(mid).shell is not None]


@pytest.mark.parametrize("mid", SHELL_IDS + ["torus"])
def test_base_integrals_equal_one_region_and_one_pass_at_a_time(mid):
    # a pointwise h sees every pass of every region in one stack, and each
    # estimate still comes out to the bit
    m = zoo.manifold(mid)
    if m.shell is not None:
        regions = [RadialShell(0.0, 1.0), RadialShell(1.0, 3.0), RadialShell(2.5, 20.0)]
        h = lambda x: np.cos(x[..., 0]) + np.exp(-m.radius(x))
    else:
        regions = [ChartBox(((0.0, 1.0), (0.0, 2.0))), ChartBox(((1.0, 3.0), (0.5, 6.0)))]
        h = lambda x: np.cos(x[..., 0]) + np.sin(x[..., 1])
    ests = integrals.base_integrals(m, h, regions, order=8)
    assert len(ests) == len(regions)
    for region, est in zip(regions, ests):
        assert est == base_integral(m, h, region, order=8)
        assert est == _one_pass_at_a_time(m, h, region, 8)
        assert est.stderr > 0.0


def test_a_ladder_calls_its_integrand_once(ex4):
    calls = []

    def h(x):
        calls.append(len(x))
        return np.exp(-x[..., 0] ** 2)

    est = ladder_integral(ex4, h, r0=0.5, rungs=6, order=8)
    assert len(calls) == 1
    calls.clear()
    radii = [0.5 * 2.0 ** k for k in range(6)]
    rungs = [base_integral(ex4, h, RadialShell(lo, R), order=8)
             for lo, R in zip([0.0] + radii[:-1], radii)]
    assert len(calls) == 6
    assert [v for _, v in est.truncation_trace] == list(
        itertools.accumulate((r.value for r in rungs), initial=0.0))[1:]
    assert est.nodes == sum(r.nodes for r in rungs)


def test_no_regions_give_no_estimates(ex4):
    assert integrals.base_integrals(ex4, lambda x: 1.0, []) == []


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
    radii = np.array([hyperbolic.radius(s[:2]) for s in states])
    assert radii.max() <= cap + 1e-9
    med_expected = float(np.arccosh(1.0 + 0.5 * (math.cosh(cap) - 1.0)))
    assert np.median(radii) == pytest.approx(med_expected, abs=0.05)
    # velocities are unit
    for s_ in states[:50]:
        g = metric_at(hyperbolic, s_[:2])
        assert float(s_[2:] @ g @ s_[2:]) == pytest.approx(1.0, abs=1e-10)


def _hyperbolic_radius(q, cap):
    # radial mass cosh r - 1
    return np.arccosh(1.0 + q * (math.cosh(cap) - 1.0))


def _ex4_radius(q, cap):
    # radial mass 1 - sech r
    return np.arccosh(1.0 / (1.0 - q * (1.0 - 1.0 / math.cosh(cap))))


@pytest.mark.parametrize("mid,cap,closed_form",
                         [("hyperbolic", cap, _hyperbolic_radius) for cap in (0.75, 2.0, 20.0)]
                         + [("warp:ex4", cap, _ex4_radius) for cap in (3.0, 20.0, 50.0, 400.0)])
def test_radial_quantiles_match_closed_form_inverse_cdfs(mid, cap, closed_form):
    # fractions stop at 0.995, past which the warp:ex4 closed form
    # sech r = 1 - q (1 - sech cap) itself loses digits
    (patch,) = zoo.manifold(mid).shell(0.0, cap)
    q = np.linspace(0.0, 0.995, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = integrals._radial_quantiles(patch, integrals._radial_cdf(patch), q)
    assert np.max(np.abs(r - closed_form(q, cap))) < 1e-12


def test_sample_liouville_radii_pass_a_ks_test(hyperbolic):
    cap, n = 2.0, 2000
    states = sample_liouville(hyperbolic, n, np.random.default_rng(11), radius_cap=cap)
    cdf = np.sort((np.cosh(hyperbolic.radius(states[:, :2])) - 1.0) / (math.cosh(cap) - 1.0))
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks < 1.36 / math.sqrt(n)   # the 5% critical value


@pytest.mark.parametrize("mid", ["revolution:1/(1+x^2)", "hyperbolic", "warp:ex2",
                                 "warp:ex3", "warp:ex4"])
def test_shell_densities_ignore_the_angles(mid, rng):
    # the Liouville sampler draws the angles uniformly on this assumption
    for patch in zoo.manifold(mid).shell(0.0, 5.0):
        u = _uniform_in(patch.bounds, rng, (300,))
        turned = np.column_stack([u[:, 0], _uniform_in(patch.bounds[1:], rng, (300,))])
        assert np.array_equal(patch.density(u), patch.density(turned))


def test_sample_liouville_refuses_a_box_of_varying_density(hyperbolic):
    with pytest.raises(ValueError, match="not constant"):
        sample_liouville(hyperbolic, 5, np.random.default_rng(0))


def test_sample_liouville_forms_every_frame_in_one_call(ex4, monkeypatch):
    # the velocities of every draw come from one stacked frame call
    calls = []

    def frame(m, x):
        calls.append(np.shape(x))
        return orthonormal_frame(m, x)

    monkeypatch.setattr(integrals, "orthonormal_frame", frame)
    states = sample_liouville(ex4, 25, np.random.default_rng(3), radius_cap=4.0)
    assert calls == [(25, 3)]
    for s_ in states:
        assert float(s_[3:] @ metric_at(ex4, s_[:3]) @ s_[3:]) == pytest.approx(1.0, abs=1e-12)


def test_sample_liouville_rejects_bad_input(torus):
    with pytest.raises(ValueError):
        sample_liouville(torus, 0, np.random.default_rng(0))
