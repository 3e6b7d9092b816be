import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divflow import zoo
from divflow.geometry import field_norm
from divflow.integrals import sample_box_points
from divflow.potential import (
    DegenerateGradientError,
    ScalarFieldDef,
    laplace_beltrami,
    mean_curvature_profile,
    monotone_form,
    p_laplace_profile,
    phi_flux_field,
    phi_laplacian,
    shipped_profiles,
    scalar_test_functions,
)

TWO_PI = 2.0 * math.pi

finite_vec = st.lists(st.floats(-5, 5), min_size=3, max_size=3).map(np.array)


# the growth bound phi(t) <= A t^(p - 1) of each shipped profile, as (A, p)
GROWTH = {"p:1.5": (1.0, 1.5), "p:2": (1.0, 2.0), "p:3": (1.0, 3.0), "p:4": (1.0, 4.0),
          "mean-curvature": (1.0, 2.0)}


def test_profile_structural_conditions():
    for pid, prof in shipped_profiles().items():
        A, p = GROWTH[pid]
        assert prof.phi(0.0) == 0.0
        ts = np.linspace(1e-6, 30.0, 500)
        vals = prof.phi(ts)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)     # strictly increasing on the grid
        assert np.all(vals <= A * ts ** (p - 1.0) + 1e-12)
    with pytest.raises(ValueError):
        p_laplace_profile(1.0)


def test_flux_field_zero_for_constant(torus):
    u = ScalarFieldDef("const", lambda x: 1.0, lambda x: np.zeros(2))
    flux = phi_flux_field(u, p_laplace_profile(2.0), torus)
    assert np.all(flux.components(np.array([0.3, 0.4])) == 0.0)
    assert phi_laplacian(u, p_laplace_profile(2.0), torus, [0.3, 0.4]) == pytest.approx(
        0.0, abs=1e-10)


def test_flat_laplacian_of_sine(torus, rng):
    u, closed = scalar_test_functions("torus")["sin-wave"]
    prof = p_laplace_profile(2.0)
    for x in sample_box_points(torus, 20, rng):
        assert phi_laplacian(u, prof, torus, x) == pytest.approx(
            closed(x), abs=1e-6)


def test_mean_curvature_flux_formula(torus, rng):
    u, _ = scalar_test_functions("torus")["sin-wave"]
    flux = phi_flux_field(u, mean_curvature_profile(), torus)
    for x in sample_box_points(torus, 10, rng):
        g = u.grad(x)
        expect = g / math.sqrt(1.0 + float(g @ g))
        np.testing.assert_allclose(flux.components(x), expect, rtol=1e-12)


def test_p2_matches_laplace_beltrami_on_zoo(rng):
    prof = p_laplace_profile(2.0)
    for mid in zoo.MANIFOLD_IDS:
        m = zoo.manifold(mid)
        for name, (u, closed) in scalar_test_functions(mid).items():
            for x in sample_box_points(m, 8, rng):
                lb = laplace_beltrami(u, m, x)
                assert phi_laplacian(u, prof, m, x) == pytest.approx(
                    lb, abs=1e-6), (mid, name, x)
                if closed is not None:
                    assert lb == pytest.approx(closed(x), abs=1e-6)


def test_height_function_on_hyperbolic(hyperbolic, rng):
    u, closed = scalar_test_functions("hyperbolic")["height"]
    prof = p_laplace_profile(2.0)
    for x in sample_box_points(hyperbolic, 15, rng):
        z = math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2)
        assert phi_laplacian(u, prof, hyperbolic, x) == pytest.approx(
            2.0 * z, abs=1e-6)


def test_p3_on_linear_function_is_zero(torus, rng):
    u, _ = scalar_test_functions("torus")["linear-x"]
    prof = p_laplace_profile(3.0)
    for x in sample_box_points(torus, 10, rng):
        assert phi_laplacian(u, prof, torus, x) == pytest.approx(0.0, abs=1e-9)


def test_degenerate_gradient_flagged_for_sublinear(torus):
    u, _ = scalar_test_functions("torus")["sin-wave"]
    prof = p_laplace_profile(1.5)
    # gradient of sin(2 pi x) vanishes at x = 1/4
    with pytest.raises(DegenerateGradientError):
        phi_laplacian(u, prof, torus, [0.25, 0.4])
    # away from the critical set the evaluation is fine
    assert np.isfinite(phi_laplacian(u, prof, torus, [0.1, 0.4]))


def test_flux_continuity_across_degenerate_points(torus):
    # for bounded phi(t)/t (p >= 2) the flux extends continuously by zero
    # at the critical point x = 1/4 of sin(k x); at distance d the norm is
    # phi(k |cos(k (1/4 + d))|) = (k |sin(k d)|)^(p-1) <= (k^2 d)^(p-1)
    u, _ = scalar_test_functions("torus")["sin-wave"]
    k = TWO_PI
    ds = (1e-2, 1e-4, 1e-6)
    for p in (2.0, 3.0, 4.0):
        prof = p_laplace_profile(p)
        flux = phi_flux_field(u, prof, torus)
        norms = [field_norm(flux, torus, [0.25 + d, 0.3]) for d in ds]
        for d, norm in zip(ds, norms):
            exact = float(prof.phi(k * abs(math.cos(k * (0.25 + d)))))
            assert norm == pytest.approx(exact, rel=1e-12)
            assert norm <= (k * k * d) ** (p - 1.0)
        assert norms[0] > norms[1] > norms[2]
        assert field_norm(flux, torus, [0.25, 0.3]) == 0.0


# ---------------------------------------------------------------------------
# monotone pairing form


def test_monotone_form_diagonal_and_reflection():
    prof = p_laplace_profile(2.0)
    xi = np.array([1.0, -2.0, 0.5])
    assert monotone_form(xi, xi, prof) == pytest.approx(0.0, abs=1e-15)
    # phi(t) = t: h(xi, -xi) = <2 xi, 2 xi> = 4 |xi|^2
    assert monotone_form(xi, -xi, prof) == pytest.approx(
        4.0 * float(xi @ xi), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(xi=finite_vec, eta=finite_vec)
def test_monotone_form_nonnegative_and_symmetric(xi, eta):
    for prof in (p_laplace_profile(1.5), p_laplace_profile(3.0),
                 mean_curvature_profile()):
        h1 = monotone_form(xi, eta, prof)
        h2 = monotone_form(eta, xi, prof)
        assert h1 >= -1e-12
        assert h1 == pytest.approx(h2, abs=1e-12)


def test_monotone_form_batch_sweep(rng):
    for prof in shipped_profiles().values():
        xi = rng.normal(size=(100_000, 3)) * rng.uniform(0.1, 3.0, size=(100_000, 1))
        eta = rng.normal(size=(100_000, 3)) * rng.uniform(0.1, 3.0, size=(100_000, 1))
        vals = monotone_form(xi, eta, prof)
        assert vals.min() >= -1e-12
        small = vals < 1e-10
        if small.any():
            assert np.linalg.norm((xi - eta)[small], axis=1).max() < 1e-6


def test_monotone_form_near_diagonal_small():
    prof = mean_curvature_profile()
    xi = np.array([[0.7, -0.1, 2.0]])
    eta = xi + 1e-8
    val = monotone_form(xi[0], eta[0], prof)
    assert monotone_form(xi, eta, prof)[0] == val
    assert 0.0 <= val < 1e-10


def test_monotone_form_handles_zero_vectors():
    prof = p_laplace_profile(2.0)
    xi = np.zeros(3)
    eta = np.array([1.0, 0.0, 0.0])
    # phi(0) = 0 kills the first flux term: h = <-eta_flux, -eta> = phi(1)
    assert monotone_form(xi, eta, prof) == pytest.approx(1.0, rel=1e-12)


def test_registry_unknown_manifold():
    with pytest.raises(KeyError):
        scalar_test_functions("nope")
