"""Nonlinear divergence-form operators and the monotone pairing form.

The flux map t -> phi(t)/t applied to a gradient turns a scalar function u
into a vector field whose divergence generalizes the Laplace-Beltrami
operator: phi(t) = t is the metric Laplacian, phi(t) = t^(p-1) the
p-Laplacian, phi(t) = t/sqrt(1+t^2) the mean-curvature operator.

The operators follow the stack convention of ``geometry``: they take x of
shape (n,) or (N, n) and return the matching leading shape, and a failing
point is named in the error.
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
    _fd_steps,
    _first,
    _stencil,
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
    "scalar_test_functions",
]

# gradient norms at or below this count as zero in the flux field
FLUX_ZERO_TOL = 1e-14
# phi_laplacian refuses a singular profile when the gradient norm on the
# difference stencil falls below this
DEGENERATE_GRADIENT_TOL = 1e-8


class DegenerateGradientError(ValueError):
    """phi'(0+) is unbounded and the gradient vanishes near the point."""


@dataclass(frozen=True)
class PhiProfile:
    """Strictly increasing flux profile phi on [0, inf): phi(0) = 0,
    phi > 0 on (0, inf), phi(t) <= A t^(growth_exponent - 1).

    ``singular_near_zero`` marks profiles with unbounded phi(t)/t as t -> 0
    (p < 2 family); their flux fields are not differentiable where the
    gradient vanishes.
    """

    name: str
    phi: Callable
    A: float
    growth_exponent: float
    singular_near_zero: bool = False


def p_laplace_profile(p: float) -> PhiProfile:
    if p <= 1.0:
        raise ValueError("need p > 1")
    return PhiProfile(
        name=f"p:{p:g}",
        phi=lambda t: np.power(t, p - 1.0),
        A=1.0,
        growth_exponent=p,
        singular_near_zero=p < 2.0,
    )


def mean_curvature_profile() -> PhiProfile:
    return PhiProfile(
        name="mean-curvature",
        phi=lambda t: t / np.sqrt(1.0 + t * t),
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


def _metric_gradient(u: ScalarFieldDef, m: ChartedManifold, x):
    """grad u = g^-1 du at x of shape (n,) or (N, n), with the shape of x,
    and its g-norm, with the leading shape of x."""
    # matmul on (.., 1)-shaped operands: the same BLAS products per point
    # as on one point
    du = np.asarray(u.grad(x), dtype=float)[..., None]
    grad = inverse_metric_at(m, x) @ du
    norm = np.sqrt(np.maximum(0.0, (np.swapaxes(du, -1, -2) @ grad)[..., 0, 0]))
    return grad[..., 0], norm


def phi_flux_field(u: ScalarFieldDef, profile: PhiProfile,
                   m: ChartedManifold) -> VectorFieldDef:
    """The vector field phi(|grad u|)/|grad u| * grad u.

    Zero where the gradient vanishes (forced by phi(0) = 0); for profiles
    with bounded phi(t)/t this is the continuous extension.  The components
    take x of shape (n,) or (N, n).
    """

    def components(x):
        grad, norm = _metric_gradient(u, m, x)
        live = norm > FLUX_ZERO_TOL
        scale = np.zeros(norm.shape)
        scale[live] = profile.phi(norm[live]) / norm[live]
        return np.where(live[..., None], scale[..., None] * grad, 0.0)

    return VectorFieldDef(name=f"flux[{profile.name}]({u.name})",
                          components=components)


def phi_laplacian(u: ScalarFieldDef, profile: PhiProfile, m: ChartedManifold,
                  x):
    """Divergence of the flux field at x of shape (n,) or (N, n).

    For profiles singular near zero the evaluation is refused when the
    gradient (nearly) vanishes on the difference stencil of any point, where
    the flux is not differentiable; the error names the first such point.
    """
    x = np.asarray(x, dtype=float)
    if profile.singular_near_zero:
        h = _fd_steps(x)
        probes = [x] + [p for i in range(m.dim) for p in _stencil(m, x, h, i)]
        bad = np.logical_or.reduce(
            [_metric_gradient(u, m, p)[1] < DEGENERATE_GRADIENT_TOL for p in probes])
        if bad.any():
            raise DegenerateGradientError(
                f"gradient of {u.name} vanishes near {_first(x, bad)!r}; "
                f"{profile.name} flux is not differentiable there")
    flux = phi_flux_field(u, profile, m)
    return divergence(flux, m, x, method="trace")


def laplace_beltrami(u: ScalarFieldDef, m: ChartedManifold, x):
    """Independent coordinate-formula route at x of shape (n,) or (N, n):
    (1/sqrt G) d_i (sqrt G g^{ij} d_j u), the coordinate divergence of the
    gradient field built from the analytic gradient."""
    grad = VectorFieldDef(name=f"grad({u.name})",
                          components=lambda y: _metric_gradient(u, m, y)[0])
    return divergence(grad, m, x, method="coordinate")


# ---------------------------------------------------------------------------
# the monotone pairing form


def monotone_form(xi, eta, profile: PhiProfile):
    """h(xi, eta) = <phi(|xi|)/|xi| xi - phi(|eta|)/|eta| eta, xi - eta>.

    Nonnegative for strictly increasing profiles, vanishing only on the
    diagonal.  Takes vectors of shape (d,), giving a float, or batches of
    shape (k, d), giving shape (k,).
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    one = xi.ndim == eta.ndim == 1
    xi, eta = np.atleast_2d(xi), np.atleast_2d(eta)

    def flux(w):
        n = np.linalg.norm(w, axis=1)
        scale = np.zeros_like(n)
        pos = n > 0
        scale[pos] = profile.phi(n[pos]) / n[pos]
        return scale[:, None] * w

    vals = np.sum((flux(xi) - flux(eta)) * (xi - eta), axis=1)
    return float(vals[0]) if one else vals


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
