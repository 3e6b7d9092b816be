"""Nonlinear divergence-form operators and the monotone pairing form.

The flux map t -> phi(t)/t applied to a gradient turns a scalar function u
into a vector field whose divergence generalizes the Laplace-Beltrami
operator: phi(t) = t is the metric Laplacian, phi(t) = t^(p-1) the
p-Laplacian, phi(t) = t/sqrt(1+t^2) the mean-curvature operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    ChartedManifold,
    VectorFieldDef,
    divergence,
    inverse_metric_at,
    metric_at,
    volume_density,
    _fd_steps,
)

__all__ = [
    "PhiProfile",
    "ScalarFieldDef",
    "DegenerateGradientError",
    "p_laplace_profile",
    "mean_curvature_profile",
    "shipped_profiles",
    "phi_flux_field",
    "phi_laplacian",
    "laplace_beltrami",
    "monotone_form",
    "young_gap",
    "scalar_test_functions",
]


class DegenerateGradientError(ValueError):
    """phi'(0+) is unbounded and the gradient vanishes near the point."""


@dataclass(frozen=True)
class PhiProfile:
    """Flux profile phi on [0, inf): phi(0) = 0, phi > 0 on (0, inf),
    phi(t) <= A t^(growth_exponent - 1).

    ``singular_near_zero`` marks profiles with unbounded phi(t)/t as t -> 0
    (p < 2 family); their flux fields are not differentiable where the
    gradient vanishes.
    """

    name: str
    phi: Callable
    dphi: Callable
    A: float
    growth_exponent: float
    strictly_increasing: bool = True
    singular_near_zero: bool = False


def p_laplace_profile(p: float) -> PhiProfile:
    if p <= 1.0:
        raise ValueError("need p > 1")
    return PhiProfile(
        name=f"p:{p:g}",
        phi=lambda t: np.power(t, p - 1.0),
        dphi=lambda t: (p - 1.0) * np.power(t, p - 2.0),
        A=1.0,
        growth_exponent=p,
        singular_near_zero=p < 2.0,
    )


def mean_curvature_profile() -> PhiProfile:
    return PhiProfile(
        name="mean-curvature",
        phi=lambda t: t / np.sqrt(1.0 + t * t),
        dphi=lambda t: (1.0 + t * t) ** -1.5,
        A=1.0,
        growth_exponent=2.0,
    )


def shipped_profiles() -> dict[str, PhiProfile]:
    out = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        prof = p_laplace_profile(p)
        out[prof.name] = prof
    mc = mean_curvature_profile()
    out[mc.name] = mc
    return out


@dataclass(frozen=True)
class ScalarFieldDef:
    """Scalar function with user-supplied analytic gradient components.

    ``value`` and ``grad`` take an array x of shape (n,) or (N, n) and
    return the matching leading shape.  Second derivatives are never formed
    from u directly: flux fields built from the analytic gradient are
    differentiated once, which avoids the extra order loss of nested
    differencing.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


def _gradient_norm(u: ScalarFieldDef, m: ChartedManifold, x) -> float:
    du = np.asarray(u.grad(x), dtype=float)
    ginv = inverse_metric_at(m, x)
    return float(math.sqrt(max(0.0, du @ ginv @ du)))


def phi_flux_field(u: ScalarFieldDef, profile: PhiProfile,
                   m: ChartedManifold, zero_tol: float = 1e-14) -> VectorFieldDef:
    """The vector field phi(|grad u|)/|grad u| * grad u.

    Zero where the gradient vanishes (forced by phi(0) = 0); for profiles
    with bounded phi(t)/t this is the continuous extension.  The components
    take x of shape (n,) or (N, n).
    """

    def components(x):
        # matmul on (.., 1)-shaped operands: the same BLAS products per point
        # as on one point
        du = np.asarray(u.grad(x), dtype=float)[..., None]
        grad = inverse_metric_at(m, x) @ du
        norm = np.sqrt(np.maximum(0.0, (np.swapaxes(du, -1, -2) @ grad)[..., 0, 0]))
        grad = grad[..., 0]
        live = norm > zero_tol
        scale = np.zeros(norm.shape)
        scale[live] = profile.phi(norm[live]) / norm[live]
        return np.where(live[..., None], scale[..., None] * grad, 0.0)

    return VectorFieldDef(name=f"flux[{profile.name}]({u.name})",
                          components=components)


def phi_laplacian(u: ScalarFieldDef, profile: PhiProfile, m: ChartedManifold,
                  x, degenerate_tol: float = 1e-8) -> float:
    """Divergence of the flux field at x.

    For profiles singular near zero the evaluation is refused when the
    gradient (nearly) vanishes on the difference stencil, where the flux is
    not differentiable.
    """
    x = np.asarray(x, dtype=float)
    if profile.singular_near_zero:
        h = _fd_steps(x)
        probes = [x]
        for i in range(m.dim):
            for s in (-1.0, 1.0):
                xp = x.copy()
                xp[i] += s * h[i]
                probes.append(xp)
        if any(_gradient_norm(u, m, p) < degenerate_tol for p in probes):
            raise DegenerateGradientError(
                f"gradient of {u.name} vanishes near {x!r}; "
                f"{profile.name} flux is not differentiable there")
    flux = phi_flux_field(u, profile, m)
    return divergence(flux, m, x, method="trace")


def laplace_beltrami(u: ScalarFieldDef, m: ChartedManifold, x) -> float:
    """Independent coordinate-formula route:
    (1/sqrt G) d_i (sqrt G g^{ij} d_j u), differencing the analytic gradient."""
    x = np.asarray(x, dtype=float)
    h = _fd_steps(x)
    total = 0.0
    for i in range(m.dim):
        vals = []
        for s in (1.0, -1.0):
            xp = x.copy()
            xp[i] += s * h[i]
            du = np.asarray(u.grad(xp), dtype=float)
            w = volume_density(m, xp) * float(
                (inverse_metric_at(m, xp) @ du)[i])
            vals.append(w)
        total += (vals[0] - vals[1]) / (2.0 * h[i])
    return total / volume_density(m, x)


# ---------------------------------------------------------------------------
# the monotone pairing form


def monotone_form(xi, eta, profile: PhiProfile):
    """h(xi, eta) = <phi(|xi|)/|xi| xi - phi(|eta|)/|eta| eta, xi - eta>.

    Nonnegative for strictly increasing profiles, vanishing only on the
    diagonal.  Accepts single vectors or batches of shape (k, d).
    """
    if not profile.strictly_increasing:
        raise ValueError(f"profile {profile.name} is not strictly increasing")
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    eta = np.atleast_2d(np.asarray(eta, dtype=float))

    def flux(w):
        n = np.linalg.norm(w, axis=1)
        scale = np.zeros_like(n)
        pos = n > 0
        scale[pos] = profile.phi(n[pos]) / n[pos]
        return scale[:, None] * w

    vals = np.sum((flux(xi) - flux(eta)) * (xi - eta), axis=1)
    return vals if vals.size > 1 else float(vals[0])


def young_gap(a, b, r: float):
    """Slack of a b^(r-1) <= a^r / r + (r-1) b^r / r for a, b >= 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = a ** r / r + (r - 1.0) * b ** r / r - a * b ** (r - 1.0)
    return gap if gap.size > 1 else float(gap)


# ---------------------------------------------------------------------------
# named test functions per zoo manifold


def scalar_test_functions(manifold_id: str) -> dict[str, tuple[ScalarFieldDef, Optional[Callable]]]:
    """Registry of scalar test functions: name -> (definition, closed-form
    metric Laplacian when known)."""
    def along_first(x, first):
        # a gradient (first, 0, ..., 0) with the shape of x
        out = np.zeros(x.shape)
        out[..., 0] = first
        return out

    if manifold_id == "torus":
        k = 2.0 * math.pi
        return {
            "sin-wave": (
                ScalarFieldDef("sin-wave",
                               value=lambda x: np.sin(k * x[..., 0]),
                               grad=lambda x: along_first(x, k * np.cos(k * x[..., 0]))),
                lambda x: -(k * k) * np.sin(k * x[..., 0]),
            ),
            "linear-x": (
                ScalarFieldDef("linear-x",
                               value=lambda x: x[..., 0],
                               grad=lambda x: along_first(x, 1.0)),
                lambda x: np.zeros(x.shape[:-1]),
            ),
        }
    if manifold_id == "hyperbolic":
        def z(x):
            return np.sqrt(1.0 + x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])

        return {
            "height": (
                ScalarFieldDef("height", value=z, grad=lambda x: x / z(x)[..., None]),
                lambda x: 2.0 * z(x),
            ),
            "poly-xy": (
                ScalarFieldDef("poly-xy",
                               value=lambda x: x[..., 0] * x[..., 1],
                               grad=lambda x: x[..., ::-1].copy()),
                None,
            ),
        }
    if manifold_id == "revolution:1/(1+x^2)":
        return {
            "poly-x2": (
                ScalarFieldDef("poly-x2",
                               value=lambda x: x[..., 0] * x[..., 0],
                               grad=lambda x: along_first(x, 2.0 * x[..., 0])),
                None,
            ),
        }
    if manifold_id in ("warp:ex2", "warp:ex3"):
        return {
            "radial-sq": (
                ScalarFieldDef("radial-sq",
                               value=lambda x: x[..., 0] * x[..., 0],
                               grad=lambda x: along_first(x, 2.0 * x[..., 0])),
                None,
            ),
        }
    if manifold_id == "warp:ex4":
        return {
            "poly-x": (
                ScalarFieldDef("poly-x",
                               value=lambda x: x[..., 0],
                               grad=lambda x: along_first(x, 1.0)),
                None,
            ),
        }
    raise KeyError(f"no test functions registered for {manifold_id!r}")
