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
    MetricError,
    covariant_derivative,
    divergence,
    field_norm,
    metric_at,
    orthonormal_frame,
    pairing_rate,
    pairing_rate_form,
)
from divflow.integrals import (
    ChartBox,
    IntegralEstimate,
    QuadraticIntegrand,
    RadialShell,
    _fsums,
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
from oracles import (
    PAIR_IDS,
    TANH_RADIAL,
    abs_form_sphere_integral,
    double_eigenvalue_sphere_integral,
    field_pairs,
    pairing_rates,
    tanh_radial_ball_integral,
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
    M = rule.second_moments
    assert M.shape == (n, n)
    assert_allclose(M, (omega(n) / n) * np.eye(n), atol=1e-12)
    # the weighted sum of u u^T over the nodes, one matrix for the rule
    assert_allclose(M, np.einsum("l,li,lj->ij", rule.weights, rule.nodes, rule.nodes),
                    rtol=1e-14, atol=1e-15)


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
    for fid, m, f in field_pairs():
        w = omega(m.dim) / m.dim
        tol = 1e-8 if m.dim == 2 else 1e-6
        F = RATE_INTEGRANDS[kind](f, m)
        for x in sample_box_points(m, 50, rng):
            fib = fiber_integral(m, F, x)
            assert abs(fib - w * divergence(f, m, x)) < tol, (fid, x)


def _frame_forms(m, Q, pts):
    """E^T Q E at each point, E the orthonormal frame there."""
    E = orthonormal_frame(m, pts)
    return np.swapaxes(E, -1, -2) @ Q(pts) @ E


@pytest.mark.parametrize("absolute", [False, True], ids=["rate", "abs-rate"])
@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_quadratic_fiber_path_matches_generic(mid, fid, absolute, rng):
    # the plain form against the rule on the directions; |form|, exact and
    # without the rule, against the adaptive reference of each point's
    # frame-form
    m, f = zoo.manifold(mid), zoo.vector_field(fid)
    pts = sample_box_points(m, 40, rng)
    form = partial(pairing_rate_form, f, m)
    F = QuadraticIntegrand(form, absolute=absolute)
    quadratic = fiber_integral(m, F, pts)
    if absolute:
        reference = [abs_form_sphere_integral(q) for q in _frame_forms(m, form, pts)]
    else:
        reference = fiber_integral(m, lambda X, V: F(X, V), pts)
    # relative to the integral of |rate|, which bounds both values; a
    # Killing field's rate integrates to round-off
    scale = fiber_integral(m, lambda X, V: np.abs(F(X, V)), pts)
    assert np.all(np.abs(quadratic - reference) <= 1e-12 * scale), (mid, fid)


def _fiber_integral_per_block(m, F, X, rule, block):
    """fiber_integral with the frame and the form rebuilt in every block."""
    out = np.empty(len(X))
    for s in range(0, len(X), block):
        Xb = X[s:s + block]
        E = orthonormal_frame(m, Xb)
        Et = np.swapaxes(E, -1, -2)
        if isinstance(F, QuadraticIntegrand):
            Q = Et @ F.form(Xb) @ E
            if F.absolute:
                out[s:s + block] = integrals._abs_form_fiber_integrals(Q)
                continue
            out[s:s + block] = np.einsum("pij,ij->p", Q, rule.second_moments)
            continue
        V = rule.nodes @ Et
        vals = np.broadcast_to(np.asarray(F(Xb, V), dtype=float), V.shape[:-1])
        out[s:s + block] = vals @ rule.weights
    return out


@pytest.mark.parametrize("kind", ["generic", "quadratic", "quadratic-abs"])
@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_fiber_integral_forms_its_geometry_once(mid, fid, kind, monkeypatch, rng):
    # the frame and the rate form depend only on the point: one form call
    # per fiber_integral call, and the same bits as rebuilding them per
    # block (the exact |form| route's own blocks hold other counts of
    # points, the plain form's contraction has no blocks, and neither
    # route's rows depend on the others)
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
        F = QuadraticIntegrand(form, absolute=kind == "quadratic-abs")
    for block in (7, 16):
        monkeypatch.setattr(integrals, "FIBER_BLOCK_BYTES", block * rule.nodes.nbytes)
        calls.clear()
        got = fiber_integral(m, F, pts)
        if kind != "generic":
            assert calls == [len(pts)]
        assert np.array_equal(got, _fiber_integral_per_block(m, F, pts, rule, block)), block


def _rotated(lam, rng):
    """Symmetric matrices R diag(lam) R^T (N, n, n) with eigenvalues lam
    (N, n) and random rotations R."""
    R = np.linalg.qr(rng.normal(size=lam.shape + lam.shape[-1:]))[0]
    return (R * lam[:, None, :]) @ np.swapaxes(R, -1, -2)


def test_closed_form_eigenvalues_match_lapack(rng):
    # ordered, summing to the trace, and within round-off of eigvalsh where
    # the eigenvalues stand apart; a double one is split by a few 1e-8
    lam = rng.normal(size=(200, 3))
    lam[::4, 2] = lam[::4, 1]
    Q = _rotated(lam, rng) * 10.0 ** rng.uniform(-200, 200, size=(200, 1, 1))
    got = np.column_stack(integrals._eigenvalues3(Q))
    ref = np.linalg.eigvalsh(Q)
    size = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.diff(got, axis=1) >= 0.0)
    assert np.all(np.abs(got.sum(axis=1) - ref.sum(axis=1)) <= 1e-14 * size[:, 0])
    apart = np.min(np.diff(ref, axis=1), axis=1) > 1e-3 * size[:, 0]
    assert apart.sum() > 100
    assert np.all(np.abs(got - ref)[apart] <= 1e-13 * size[apart])
    assert np.all(np.abs(got - ref) <= 1e-7 * size)


@pytest.mark.parametrize("n", [2, 3])
def test_abs_form_integral_of_a_definite_form_is_its_trace(n, rng):
    # pi |tr Q| in 2-D and (4 pi / 3) |tr Q| in 3-D, for positive and
    # negative definite forms, semidefinite ones among them
    lam = rng.uniform(0.01, 3.0, size=(60, n))
    lam[::3, 0] = 0.0
    lam[1::2] *= -1.0
    Q = _rotated(lam, rng)
    expected = (omega(n) / n) * np.abs(lam.sum(axis=1))
    assert_allclose(integrals._abs_form_fiber_integrals(Q), expected, rtol=1e-13, atol=0)


def test_abs_form_integral_with_a_double_eigenvalue(rng):
    # eigenvalues (lam, mu, mu) with k = 1 - lam / mu > 1, in either sign
    # of mu and either order of the spectrum
    mu = rng.uniform(0.1, 3.0, 40) * np.where(np.arange(40) % 2, 1.0, -1.0)
    lam = mu * (1.0 - rng.uniform(1.01, 30.0, 40))
    Q = _rotated(np.column_stack([lam, mu, mu]), rng)
    expected = [double_eigenvalue_sphere_integral(a, b) for a, b in zip(lam, mu)]
    assert_allclose(integrals._abs_form_fiber_integrals(Q), expected, rtol=1e-12, atol=0)


def test_abs_rate_fiber_integral_of_ex4_Z_in_closed_form(ex4, rng):
    # the rate form of warp:ex4:Z has eigenvalues (z (1 - k), z, z), k = 3 -
    # 2 / z^2, z^2 = 1 + x0^2 + x1^2; at the apex k = 1 and the form is
    # semidefinite, (4 pi / 3) |tr Q| = 8 pi / 3
    Z = zoo.vector_field("warp:ex4:Z")
    pts = np.vstack([[0.0, 0.0, 1.0], sample_box_points(ex4, 60, rng)])
    got = fiber_integral(ex4, QuadraticIntegrand(partial(pairing_rate_form, Z, ex4),
                                                 absolute=True), pts)
    z = np.sqrt(1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2)
    k = 3.0 - 2.0 / z ** 2
    u0 = k ** -0.5
    expected = 4.0 * math.pi * z * (2.0 * (u0 - k * u0 ** 3 / 3.0) - (1.0 - k / 3.0))
    assert got[0] == pytest.approx(8.0 * math.pi / 3.0, rel=1e-15)
    assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_abs_form_integral_matches_an_adaptive_reference(rng):
    # diag(1, 0, -1): the pole location is a crossing of the zero set, and
    # the integral is 16 / 3; then seeded random indefinite forms
    assert integrals._abs_form_fiber_integrals(np.diag([1.0, 0.0, -1.0])[None])[0] == (
        pytest.approx(abs_form_sphere_integral(np.diag([1.0, 0.0, -1.0])), rel=1e-13))
    assert abs_form_sphere_integral(np.diag([1.0, 0.0, -1.0])) == pytest.approx(16.0 / 3.0,
                                                                              rel=1e-13)
    for n in (2, 3):
        lam = rng.normal(size=(40, n))
        lam[:, 0] = -np.abs(lam[:, 0])
        lam[:, 1] = np.abs(lam[:, 1])
        Q = _rotated(lam, rng)
        expected = [abs_form_sphere_integral(q) for q in Q]
        assert_allclose(integrals._abs_form_fiber_integrals(Q), expected, rtol=1e-11, atol=0)


def test_abs_form_integral_scales_with_abs_c_and_ignores_rotations(rng):
    lam = rng.normal(size=(30, 3))
    Q = _rotated(lam, rng)
    base = integrals._abs_form_fiber_integrals(Q)
    for c in (-7.5, 1e-150, 3e150):
        assert_allclose(integrals._abs_form_fiber_integrals(c * Q), abs(c) * base, rtol=1e-13)
    R = np.linalg.qr(rng.normal(size=(30, 3, 3)))[0]
    turned = R @ Q @ np.swapaxes(R, -1, -2)
    assert_allclose(integrals._abs_form_fiber_integrals(turned), base, rtol=1e-13)


def test_abs_form_integral_of_degenerate_forms_is_finite_and_quiet(rng):
    # the zero form, repeated eigenvalues and a zero middle one: no NaN and
    # no warning
    spectra = np.array([[0.0, 0.0, 0.0], [-1.0, 2.0, 2.0], [-2.0, -2.0, 1.0],
                        [1.5, 1.5, 1.5], [-1.5, -1.5, -1.5], [-1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0], [-1.0, 0.0, 2.0], [-2.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagonal = integrals._abs_form_fiber_integrals(np.array([np.diag(s) for s in spectra]))
        turned = integrals._abs_form_fiber_integrals(_rotated(spectra, rng))
        zero = integrals._abs_form_fiber_integrals(np.zeros((1, 2, 2)))
    assert diagonal[0] == 0.0 and zero[0] == 0.0
    expected = [abs_form_sphere_integral(np.diag(s)) for s in spectra]
    # the rank-one forms lose most, 4e-13: the closed-form eigenvalues split
    # their zero pair by about 1e-8
    assert_allclose(diagonal, expected, rtol=1e-12, atol=0)
    assert_allclose(turned, expected, rtol=1e-12, atol=1e-15)


def test_abs_form_integral_of_one_point_is_its_row_in_a_stack(rng):
    for n in (2, 3):
        Q = _rotated(rng.normal(size=(50, n)), rng)
        stack = integrals._abs_form_fiber_integrals(Q)
        for i in range(len(Q)):
            assert np.array_equal(integrals._abs_form_fiber_integrals(Q[i:i + 1])[0], stack[i])


def test_abs_rate_with_a_non_finite_form_raises_metric_error(ex4, rng):
    pts = sample_box_points(ex4, 20, rng)
    Z = zoo.vector_field("warp:ex4:Z")

    def form(X):
        Q = pairing_rate_form(Z, ex4, X)
        Q[7, 1, 0] = np.nan
        return Q

    with pytest.raises(MetricError, match="not finite at"):
        fiber_integral(ex4, QuadraticIntegrand(form, absolute=True), pts)


@pytest.mark.parametrize("mid,fid", PAIR_IDS)
def test_quadratic_integrand_on_one_direction_is_pairing_rates(mid, fid, rng):
    # the direct Monte Carlo estimate of fubini_consistency calls it so;
    # the rate an orbit carries, g(J v + Gamma(v, X), v) on the velocity
    # itself, is the same quadratic form up to round-off in nabla X
    m, f = zoo.manifold(mid), zoo.vector_field(fid)
    pts = sample_box_points(m, 40, rng)
    c = rng.normal(size=pts.shape)
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    V = (orthonormal_frame(m, pts) @ c[..., None])[..., 0][:, None, :]
    F = QuadraticIntegrand(partial(pairing_rate_form, f, m))
    expected = pairing_rates(f, m, pts, V)
    assert np.array_equal(F(pts, V), expected)
    scale = 1.0 + np.abs(covariant_derivative(f, m, pts)).max(axis=(1, 2))
    assert np.all(np.abs(pairing_rate(f, m, pts, V[:, 0]) - expected[:, 0]) <= 1e-14 * scale)


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


@pytest.mark.parametrize("mid", SHELL_IDS + ["torus"])
def test_tensor_node_count_is_what_base_integrals_builds(mid):
    m = zoo.manifold(mid)
    regions = ([RadialShell(0.0, 1.0), RadialShell(1.0, 3.0), RadialShell(2.5, 100.0)]
               if m.shell is not None else [ChartBox(((0.0, 1.0), (0.0, 20.0)))])
    sizes = []
    integrals.base_integrals(m, lambda x: sizes.append(len(x)) or 1.0, regions, order=8)
    assert integrals.tensor_node_count(m, regions, order=8) == sizes[0]


def test_tensor_node_count_refuses_an_unbounded_axis(torus, hyperbolic):
    # at once, where panel edges toward inf would never end
    budget = f"more than {integrals.MAX_TENSOR_NODES:,} nodes"
    with pytest.raises(ValueError, match="torus.*" + budget):
        integrals.tensor_node_count(torus, [ChartBox(((0.0, math.inf), (0.0, 1.0)))], 2)
    # a lazy ladder is read up to its first inf rung, short of the budget
    read = []
    shells = (read.append(s) or s for s in integrals.ladder_shells(1e300, 10 ** 9))
    with pytest.raises(ValueError, match="hyperbolic.*" + budget):
        integrals.tensor_node_count(hyperbolic, shells, order=2)
    assert read[-1].r_hi == math.inf
    finite = integrals.tensor_node_count(hyperbolic, read[:-1], order=2)
    assert finite < integrals.MAX_TENSOR_NODES


def test_base_integrals_refuses_past_the_node_budget_before_any_node(ex4, monkeypatch):
    def fail(patch, order):
        raise AssertionError("a node array was built")

    monkeypatch.setattr(integrals, "_tensor_nodes", fail)
    with pytest.raises(ValueError, match="warp:ex4: the tensor quadrature builds more than"):
        integrals.base_integrals(ex4, lambda x: 1.0, list(integrals.ladder_shells(1.0, 600)))


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


def _fsum_outcome(fn, segments):
    """The float bits of fn's pass sums of the segments, or the type and
    message of what it raised."""
    try:
        return [float(v).hex() for v in fn(segments)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _assert_fsums_are_fsum(segments):
    segments = [np.asarray(seg, dtype=float) for seg in segments]
    got = _fsum_outcome(lambda segs: _fsums(np.concatenate(segs), [len(s) for s in segs]),
                        segments)
    assert got == _fsum_outcome(lambda segs: [math.fsum(s) for s in segs], segments)


# finite values spread over the exponent range, subnormals and zeros included
_SPREAD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@st.composite
def _cancelling(draw):
    # x and -x, shuffled, with noise far below them
    xs = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    noise = draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    seg = xs + [-x for x in xs] + [1e-20 * e for e in noise]
    return draw(st.permutations(seg))


_SEGMENT = st.one_of(
    st.lists(_SPREAD, min_size=1, max_size=40),
    st.lists(st.floats(1.0, 2.0), min_size=1, max_size=40),   # sums far above each value
    _cancelling(),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=8),
    st.lists(st.floats(-1e-310, 1e-310), min_size=1, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(segments=st.lists(_SEGMENT, min_size=1, max_size=30))
def test_pass_sums_are_fsums_bit_for_bit(segments):
    _assert_fsums_are_fsum(segments)


@pytest.mark.parametrize("bad", [
    [math.inf], [math.nan], [math.inf, 1.0, -math.inf], [1e308, 1e308],
    [1e308, 1e308, -1e308], [-1e308] * 3 + [1e308] * 3, [8e307] * 5, [1.7e308],
])
def test_pass_sums_fall_back_to_fsum_on_what_it_alone_handles(bad):
    # infinities and NaN give fsum's inf, NaN or ValueError, and sums that
    # would overflow (or a sigma past 2^1023) its OverflowError, whichever
    # pass holds them
    for segments in ([bad], [[1.0, 2.0], bad, [3.0]], [[0.5] * 7, [1e-300], bad]):
        _assert_fsums_are_fsum(segments)


def test_pass_sums_of_single_values_and_long_passes(rng):
    values = rng.standard_normal(5000) * 10.0 ** rng.uniform(-30, 30, 5000)
    _assert_fsums_are_fsum(list(values[:50, None]))
    _assert_fsums_are_fsum([values[:1], values[1:4000], values[4000:4001], values[4001:]])
    same_sign = rng.uniform(1.0, 2.0, 5000)
    _assert_fsums_are_fsum([same_sign[:4999], same_sign[4999:], -same_sign])


def test_div_ladder_of_a_field_with_flux_matches_stokes(ex2):
    # X = tanh(r) d_r on warp:ex2 has div X != 0, and on every ball its
    # integral is the flux through the sphere r = R; each rung of the ladder
    # matches that within SIGMA of its accumulated quadrature stderr
    SIGMA, FLOOR = 3.0, 1e-12
    h = partial(divergence, TANH_RADIAL, ex2)
    ladder = ladder_integral(ex2, h, r0=1.0, rungs=6, order=16)
    radii = [R for R, _ in ladder.truncation_trace]
    shells = integrals.base_integrals(
        ex2, h, [RadialShell(lo, R) for lo, R in zip([0.0] + radii[:-1], radii)], order=16)
    assert radii == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    stderr = list(itertools.accumulate(e.stderr for e in shells))
    for (R, value), err in zip(ladder.truncation_trace, stderr):
        assert abs(value - tanh_radial_ball_integral(R)) <= SIGMA * err + FLOOR, (R, value)
    # the flux rises to about 138 at R = 2 and then decays like 1/sinh R
    values = [v for _, v in ladder.truncation_trace]
    assert values[1] > 100.0 and abs(values[-1]) < 1e-9


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
