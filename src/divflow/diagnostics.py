"""Computable probes of the divergence-identity hypotheses.

None of these produce verdicts about measure-theoretic properties; they
report finite evidence (annulus masses, truncation traces, sampled suprema,
return statistics) against the conditions the identities need:

  karp_sequence      annulus-decay quantity (1/r) * mass of |X| on B(2r)\\B(r)
  cutoff_estimate    both sides of the cutoff bound for |integral of
                     phi_r div X| via an explicit ramp with |grad phi| <= C/r
  rate_integrability_ladder
                     truncation ladder of |pairing rate| over the bundle
  x_decay_at_infinity
                     sampled annulus suprema of |X|
  recurrence_fraction
                     fraction of flow samples with a finite-horizon return
  hopf_probe         growth classification of t -> integral of a positive
                     observable along each orbit
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (
    ChartedManifold,
    DomainError,
    VectorFieldDef,
    divergence,
    field_norm,
    pairing_rate_form,
)
from .flow import _states, first_return, integrate_geodesic
from .integrals import (
    IntegralEstimate,
    QuadraticIntegrand,
    RadialShell,
    _uniform_in,
    base_integral,
    base_integrals,
    fiber_integral,
    ladder_integral,
    resolve_patches,
    sample_liouville,
)

__all__ = [
    "AnnulusReport",
    "CutoffReport",
    "RecurrenceStats",
    "HopfProbe",
    "karp_sequence",
    "cutoff_estimate",
    "rate_integrability_ladder",
    "x_decay_at_infinity",
    "recurrence_fraction",
    "hopf_probe",
    "default_observable",
    "CUTOFF_GRAD_CONSTANT",
    "HOPF_LABELS",
]

# quintic smoothstep ramp: |d phi/ds| <= 15/8, surrogates are 1-Lipschitz,
# rounded up to an even 2
CUTOFF_GRAD_CONSTANT = 2.0


@dataclass(frozen=True)
class AnnulusReport:
    """Mass of |X| over one annulus of the radius surrogate."""

    radius: float
    mass: float
    normalized: float          # mass / radius
    stderr: float
    surrogate: str


def annulus(r: float) -> RadialShell:
    """The annulus B(2r) \\ B(r) of the radius surrogate."""
    return RadialShell(float(r), 2.0 * float(r))


def karp_sequence(m: ChartedManifold, field: VectorFieldDef,
                  radii: Sequence[float], order: int = 16) -> list[AnnulusReport]:
    """Annulus-decay reports (1/r) * integral of |X| over B(2r) \\ B(r).

    A sequence sinking to zero is the annulus-decay sufficient condition for
    divergence identities; values bounded away from zero mean the condition
    fails (which by itself decides nothing).  Every annulus is one region of
    one ``base_integrals`` call, so one ``field_norm`` call forms |X| for all.
    """
    if m.radius is None or m.shell is None:
        raise ValueError(f"{m.name} has no radius surrogate / shell parametrization")
    shells = [annulus(r) for r in radii]
    ests = base_integrals(m, lambda x: field_norm(field, m, x), shells, order=order)
    return [AnnulusReport(radius=s.r_lo, mass=est.value, normalized=est.value / s.r_lo,
                          stderr=est.stderr / s.r_lo,
                          surrogate=f"{m.name} radius surrogate")
            for s, est in zip(shells, ests)]


# ---------------------------------------------------------------------------
# cutoff estimate


def _smoothstep(u):
    # exactly 0 and 1 at the clipped ends: -15 + 6 = -9 and 10 - 9 = 1
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def cutoff_bump(m: ChartedManifold, r: float) -> Callable[[np.ndarray], np.ndarray]:
    """C2 radial bump: 1 on the r-ball, 0 outside the 2r-ball, with
    |grad| <= CUTOFF_GRAD_CONSTANT / r.  Takes a stack of chart points."""
    if m.radius is None:
        raise ValueError(f"{m.name} has no radius surrogate")

    def phi(x):
        return _smoothstep(2.0 - m.radius(x) / r)

    return phi


@dataclass(frozen=True)
class CutoffReport:
    r: float
    lhs: float                 # |integral of phi_r div X|
    rhs: float                 # (C/r) * annulus mass of |X|
    lhs_stderr: float
    rhs_stderr: float
    constant: float
    slack: float               # rhs - lhs

    def bound(self, sigma: float) -> float:
        """The right side widened by sigma standard errors of both sides."""
        return self.rhs + sigma * (self.lhs_stderr + self.rhs_stderr)


def cutoff_regions(r: float) -> tuple[RadialShell, RadialShell]:
    """``cutoff_estimate``'s two base integral regions: B(2r), the annulus."""
    return RadialShell(0.0, 2.0 * float(r)), annulus(r)


def cutoff_estimate(m: ChartedManifold, field: VectorFieldDef, r: float,
                    order: int = 16) -> CutoffReport:
    """Both sides of |integral of phi_r div X| <= (C/r) * annulus mass.

    The bound holds because the cutoff integral equals minus the integral of
    g(grad phi_r, X), supported on the annulus where |grad phi_r| <= C/r.
    Both sides are computed independently by quadrature.
    """
    phi = cutoff_bump(m, r)
    ball, ring = cutoff_regions(r)
    lhs_est = base_integral(m, lambda x: phi(x) * divergence(field, m, x), ball, order=order)
    rhs_est = base_integral(m, lambda x: field_norm(field, m, x), ring, order=order)
    c = CUTOFF_GRAD_CONSTANT
    lhs, rhs = abs(lhs_est.value), (c / r) * rhs_est.value
    return CutoffReport(r=float(r), lhs=lhs, rhs=rhs, lhs_stderr=lhs_est.stderr,
                        rhs_stderr=(c / r) * rhs_est.stderr, constant=c, slack=rhs - lhs)


# ---------------------------------------------------------------------------
# integrability ladder for the pairing rate


def rate_integrability_ladder(m: ChartedManifold, field: VectorFieldDef,
                              r0: float = 1.0, rungs: int = 8,
                              order: int = 12, rel_tol: float = 1e-3,
                              ) -> IntegralEstimate:
    """Truncation ladder of |pairing rate| over the unit tangent bundle,
    restricted to base radius <= R on the doubling ladder.

    Each fiber integral of |v @ Q @ v| is exact (``fiber_integral`` of an
    absolute ``QuadraticIntegrand``), so the ladder's ``stderr``, the
    distance of the half from the full base pass, carries no fiber rule
    error.  A converging trace is evidence of integrability; a diverging
    trace is flagged through ``converged=False`` and the recorded trace.
    """
    F = QuadraticIntegrand(partial(pairing_rate_form, field, m), absolute=True)
    return ladder_integral(m, partial(fiber_integral, m, F), r0, rungs, order, rel_tol)


# ---------------------------------------------------------------------------
# decay at infinity


def x_decay_at_infinity(m: ChartedManifold, field: VectorFieldDef,
                        radii: Sequence[float], n_samples: int = 400,
                        seed: int = 0) -> list[dict]:
    """Sampled suprema of |X| over annuli [r, 2r] of the radius surrogate.

    A decreasing-to-zero trace is evidence for uniform decay at infinity; a
    true supremum is not numerically verifiable, so sample counts are
    reported with the values.
    """
    rng = np.random.default_rng(seed)
    out = []
    for r in radii:
        sup = 0.0
        for patch in resolve_patches(m, annulus(r)):
            u = _uniform_in(patch.bounds, rng, (n_samples,))
            # always probe the radial endpoints as well
            u[0, 0], u[min(1, n_samples - 1), 0] = patch.bounds[0]
            sup = max(sup, float(np.max(field_norm(field, m, patch.to_chart(u)))))
        out.append({"radius": float(r), "sup": float(sup), "n_samples": n_samples})
    return out


# ---------------------------------------------------------------------------
# recurrence statistics


@dataclass(frozen=True)
class RecurrenceStats:
    n_samples: int
    n_returned: int
    n_no_return: int
    n_inconclusive: int
    fraction: Optional[float]    # returned / (samples - inconclusive)
    eps: float
    t_min: float
    t_max: float
    radius_cap: Optional[float]
    seed: int


def recurrence_fraction(m: ChartedManifold, n: int, eps: float = 0.05,
                        t_min: float = 1.0, t_max: float = 1000.0,
                        seed: int = 0,
                        radius_cap: Optional[float] = None) -> RecurrenceStats:
    """Fraction of flow-measure samples with a detected return.

    Initial states follow the invariant bundle measure restricted to a
    bounded base region (the cap is recorded: the full measure may be
    infinite).  Orbits truncated before the horizon without a certificate
    are excluded from the fraction and counted separately.  This is
    finite-horizon evidence only, never a recurrence verdict.
    """
    rng = np.random.default_rng(seed)
    results = first_return(m, sample_liouville(m, n, rng, radius_cap=radius_cap),
                           eps=eps, t_min=t_min, t_max=t_max)
    returned = sum(1 for r in results if r.event is not None)
    inconclusive = sum(1 for r in results if r.event is None and not r.conclusive)
    valid = n - inconclusive
    return RecurrenceStats(
        n_samples=n, n_returned=returned, n_no_return=valid - returned,
        n_inconclusive=inconclusive, fraction=(returned / valid) if valid > 0 else None,
        eps=eps, t_min=t_min, t_max=t_max, radius_cap=radius_cap, seed=seed)


# ---------------------------------------------------------------------------
# orbit-growth (Hopf-type) probes


def default_observable(m: ChartedManifold) -> Callable:
    """Strictly positive base observable exp(-3 r), integrable against the
    bundle measure for every shipped manifold (volume growth is at most e^r
    here); constant 1 on manifolds without a radius surrogate.  Takes x of
    shape (n,) or (N, n)."""
    if m.radius is None:
        return lambda x: np.ones(np.shape(x)[:-1])
    radius = m.radius
    return lambda x: np.exp(-3.0 * radius(x))


# the growth labels hopf_probe assigns
HOPF_LABELS = ("convergent-like", "divergent-like", "inconclusive")
# a label needs a fit with r^2 >= HOPF_R2_MIN and a slope within
# HOPF_SLOPE_DELTA of 0 (convergent) or 1 (divergent); a log-trace whose
# standard deviation is below HOPF_FLAT_TOL counts as a plateau with r^2 = 1
HOPF_SLOPE_DELTA = 0.1
HOPF_R2_MIN = 0.99
HOPF_FLAT_TOL = 0.08


@dataclass(frozen=True)
class HopfProbe:
    horizons: tuple[float, ...]
    values: tuple[float, ...]        # I(T) per horizon
    slope: Optional[float]           # log-log fit over the last decade
    r_squared: Optional[float]
    label: str                       # one of HOPF_LABELS
    truncated: bool


def _loglog_fit(T: np.ndarray, I: np.ndarray) -> tuple[float, float]:
    x = np.log(T)
    y = np.log(np.maximum(I, 1e-300))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if float(np.std(y)) < HOPF_FLAT_TOL:
        # flat at resolution: a plateau, which no line fit can grade fairly
        return float(coef[0]), 1.0
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def hopf_probe(m: ChartedManifold, states, f0: Optional[Callable] = None,
               horizons: Optional[Sequence[float]] = None):
    """Growth trace of I(T) = integral over [0, T] of a positive observable
    along the orbit of each state (N, 2n), with a heuristic growth label.

    A plateauing trace marks orbits on which the observable's full-line
    integral looks finite (transient behavior); linear growth marks orbits
    that keep revisiting regions where the observable is large.  Labels are
    configuration-thresholded evidence, not classifications.  The integral
    is carried through one stacked integration to the last horizon and read
    from the continuous extension at each horizon the orbit reached;
    ``f0`` takes x of shape (N, n).  A list of N probes.  An observable
    that is not positive at a state (e^(-3r) underflows to 0 far out) is a
    DomainError naming the first such state.
    """
    if horizons is None:
        horizons = np.geomspace(1.0, 12.0, 9)
    horizons = np.asarray(sorted(float(t) for t in horizons))
    if f0 is None:
        f0 = default_observable(m)
    S = _states(m, states)
    f = np.broadcast_to(f0(S[:, :m.dim]), S.shape[:1])
    if np.any(f <= 0.0):
        i = int(np.argmax(f <= 0.0))
        raise DomainError(f"observable must be strictly positive; it is {f[i]} at "
                          f"state {i}, {S[i].tolist()}")

    traj = integrate_geodesic(m, S, float(horizons[-1]), integrand=lambda x, v: f0(x))
    reached = horizons <= traj.t_end[:, None]
    I = traj.y_at(np.minimum(horizons, traj.t_end[:, None]))[..., -1]
    return [_hopf_label(horizons[reached[i]], I[i][reached[i]], reason is not None)
            for i, reason in enumerate(traj.reasons)]


def _hopf_label(used: np.ndarray, values: np.ndarray, truncated: bool) -> HopfProbe:
    """The probe of one orbit from its integral at the horizons it reached."""
    slope = r2 = None
    label = "inconclusive"
    if len(values) >= 4 and not truncated:
        window = used >= used[-1] / 10.0
        slope, r2 = _loglog_fit(used[window], values[window])
        if r2 >= HOPF_R2_MIN and slope <= HOPF_SLOPE_DELTA:
            label = "convergent-like"
        elif r2 >= HOPF_R2_MIN and slope >= 1.0 - HOPF_SLOPE_DELTA:
            label = "divergent-like"
    return HopfProbe(horizons=tuple(float(t) for t in used),
                     values=tuple(float(v) for v in values),
                     slope=slope, r_squared=r2, label=label, truncated=truncated)
