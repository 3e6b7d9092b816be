"""Geodesic-flow integration, line integrals along orbits, and return-time
probes.

The integrator is an embedded Runge-Kutta 5(4) pair with dense output
(scipy's stepper driven by a local loop so that step budgets, domain exits,
and step-size underflow turn into flagged truncations instead of hangs).
Velocities are never renormalized: speed drift is recorded as a diagnostic,
not corrected, so it stays an honest measure of integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import RK45, OdeSolution, quad
from scipy.optimize import minimize_scalar

from .geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    UnitTangentState,
    VectorFieldDef,
    christoffel,
    field_norm,
    pairing,
    pairing_rate_form,
)

__all__ = [
    "GeodesicTrajectory",
    "ReturnEvent",
    "FirstReturnResult",
    "TruncatedTrajectoryError",
    "integrate_geodesic",
    "birkhoff_integral",
    "path_integral_identity_residual",
    "first_return",
    "endpoint_bound_check",
    "proxy_distance",
    "radius_stretch_constant",
]

RTOL = 1e-9
ATOL = 1e-12
MAX_STEPS = 100_000
QUAD_TOL = 1e-9          # adaptive quadrature of orbit integrals
RETURN_CHUNK = 100.0     # time span first_return integrates at once


class TruncatedTrajectoryError(RuntimeError):
    """An orbit computation needed a time range the integrator could not reach."""


@dataclass
class StepStats:
    n_accepted: int
    n_rejected_est: int
    nfev: int


class GeodesicTrajectory:
    """Solution of the geodesic system on one time span, with dense output.

    ``speed_drift`` is |g(v, v) - 1| sampled at the accepted nodes (the
    initial speed is unit by construction).  ``truncated`` marks orbits that
    stopped before the requested end; ``truncation_reason`` is one of
    "left_domain", "step_limit", "step_underflow", "solver_failed",
    "rhs_failure".
    """

    def __init__(self, m: ChartedManifold, t: np.ndarray,
                 states: np.ndarray, sol: Optional[OdeSolution],
                 truncated: bool, truncation_reason: Optional[str],
                 stats: StepStats):
        self.manifold = m
        self.t = t
        self.states = states
        self.sol = sol
        self.truncated = truncated
        self.truncation_reason = truncation_reason
        self.stats = stats
        self._drift = None

    @property
    def t_start(self) -> float:
        return float(self.t[0])

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def speed_drift(self) -> np.ndarray:
        if self._drift is None:
            n = self.dim
            V = self.states[:, n:]
            g = self.manifold.metric(self.states[:, :n])
            self._drift = np.abs((V[:, None, :] @ g @ V[:, :, None])[:, 0, 0] - 1.0)
        return self._drift

    @property
    def max_speed_drift(self) -> float:
        return float(self.speed_drift.max())

    def _check_time(self, t: float):
        lo, hi = sorted((self.t_start, self.t_end))
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise TruncatedTrajectoryError(
                f"time {t} outside reached span [{lo}, {hi}]"
                + (f" (truncated: {self.truncation_reason})" if self.truncated else ""))

    def state_at(self, t: float) -> UnitTangentState:
        self._check_time(t)
        y = self.sol(t)
        n = self.dim
        return UnitTangentState(x=y[:n], v=y[n:])


def _geodesic_rhs(m: ChartedManifold) -> Callable:
    n = m.dim
    gamma = m.christoffel or (lambda x: christoffel(m, x, method="fd"))

    def rhs(t, y):
        v = y[n:]
        out = np.empty(2 * n)
        out[:n] = v
        out[n:] = -(gamma(y[:n]).reshape(n, n * n) @ np.outer(v, v).ravel())
        return out
    return rhs


def integrate_geodesic(m: ChartedManifold, state: UnitTangentState, t_final: float,
                       t_start: float = 0.0,
                       monitor: Optional[Callable] = None) -> GeodesicTrajectory:
    """Integrate the geodesic system x'' + Gamma(x)(x', x') = 0.

    Returns a trajectory with dense output for event queries.  The orbit is
    truncated (flagged, not raised) when it leaves the chart domain, when
    the step size underflows near a singular boundary, or after MAX_STEPS
    accepted steps.  ``monitor(t, y)`` runs after each accepted step; a
    truthy string return stops the orbit with reason "monitor:<string>".
    """
    if not np.isfinite(t_final):
        raise ValueError("t_final must be finite")
    n = m.dim
    y0 = np.concatenate([state.x, state.v])
    if t_final == t_start:
        raise ValueError("empty time span")
    min_step = max(1e-13, 1e-9 * abs(t_final - t_start))

    rhs = _geodesic_rhs(m)
    solver = RK45(rhs, t_start, y0, t_final, rtol=RTOL, atol=ATOL)
    ts = [t_start]
    ys = [y0]
    segments = []
    reason = None
    while solver.status == "running":
        if len(ts) - 1 >= MAX_STEPS:
            reason = "step_limit"
            break
        try:
            solver.step()
        except (DomainError, MetricError) as _:
            reason = "rhs_failure"
            break
        if solver.status == "failed":
            reason = "solver_failed"
            break
        segments.append(solver.dense_output())
        ts.append(solver.t)
        ys.append(solver.y.copy())
        if not m.domain(solver.y[:n]) or not np.all(np.isfinite(solver.y)):
            reason = "left_domain"
            break
        if abs(ts[-1] - ts[-2]) < min_step:
            reason = "step_underflow"
            break
        if monitor is not None:
            note = monitor(solver.t, solver.y)
            if note:
                reason = f"monitor:{note}"
                break

    t_arr = np.array(ts)
    states = np.array(ys)
    sol = OdeSolution(t_arr, segments) if segments else None
    accepted = len(ts) - 1
    rejected = max(0, (solver.nfev - 1) // 6 - accepted)
    return GeodesicTrajectory(
        m, t_arr, states, sol,
        truncated=reason is not None,
        truncation_reason=reason,
        stats=StepStats(n_accepted=accepted, n_rejected_est=rejected, nfev=solver.nfev),
    )


# ---------------------------------------------------------------------------
# line integrals along orbits


def birkhoff_integral(h, m: ChartedManifold, state: UnitTangentState, T: float,
                      trajectory: Optional[GeodesicTrajectory] = None) -> float:
    """Integral of h(x, v) along the orbit of ``state`` over [0, T] (or
    [T, 0] for negative T), by adaptive quadrature on the dense output."""
    if trajectory is None:
        trajectory = integrate_geodesic(m, state, T)
    lo, hi = (0.0, T) if T >= 0 else (T, 0.0)
    trajectory._check_time(lo)
    trajectory._check_time(hi)
    n = m.dim

    def integrand(t):
        y = trajectory.sol(t)
        return h(y[:n], y[n:])

    val, _err = quad(integrand, lo, hi, epsabs=QUAD_TOL * max(1.0, abs(T)),
                     epsrel=QUAD_TOL, limit=300)
    return float(val)


def _whole_orbit(m: ChartedManifold, state: UnitTangentState,
                 T: float) -> GeodesicTrajectory:
    """The orbit over [0, T]; raises when it stops short."""
    traj = integrate_geodesic(m, state, T)
    if traj.truncated:
        raise TruncatedTrajectoryError(
            f"orbit truncated at t = {traj.t_end} ({traj.truncation_reason})")
    return traj


def _pairing_rate(field: VectorFieldDef, m: ChartedManifold) -> Callable:
    """h(x, v) = g(nabla_v X, v), the derivative of the pairing along orbits."""
    def rate(x, v):
        Q = pairing_rate_form(field, m, x, validate=False)
        return float(v @ Q @ v)
    return rate


def path_integral_identity_residual(field: VectorFieldDef, m: ChartedManifold,
                                    state: UnitTangentState, T: float) -> float:
    """Defect of the fundamental-theorem identity along one orbit.

    The pairing g(X, gamma') has derivative g(nabla_{gamma'} X, gamma')
    along a geodesic, so the orbit integral of the rate must match the
    pairing difference between the endpoints; the residual is pure
    integrator-plus-quadrature error.
    """
    traj = _whole_orbit(m, state, T)
    integral = birkhoff_integral(_pairing_rate(field, m), m, state, T, trajectory=traj)
    end = traj.state_at(T)
    boundary = pairing(field, m, end) - pairing(field, m, state)
    return float(abs(integral - boundary))


def endpoint_bound_check(field: VectorFieldDef, m: ChartedManifold,
                         state: UnitTangentState, s: float) -> tuple[float, float]:
    """Both sides of the two-sided orbit-integral bound.

    lhs = |integral over [-s, s] of the pairing rate|; rhs = |X| at the two
    orbit endpoints.  The lhs telescopes to a pairing difference, and each
    pairing is at most the field norm on unit vectors, so lhs <= rhs up to
    integration error.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    fwd = _whole_orbit(m, state, s)
    bwd = _whole_orbit(m, state, -s)
    rate = _pairing_rate(field, m)
    lhs = abs(birkhoff_integral(rate, m, state, s, trajectory=fwd)
              + birkhoff_integral(rate, m, state, -s, trajectory=bwd))
    rhs = (field_norm(field, m, fwd.state_at(s).x)
           + field_norm(field, m, bwd.state_at(-s).x))
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# recurrence probes


@dataclass(frozen=True)
class ReturnEvent:
    """A detected near-return of an orbit to its initial bundle point."""

    t_star: float
    distance: float
    epsilon: float


@dataclass(frozen=True)
class FirstReturnResult:
    """Outcome of a finite-horizon return search.

    ``event`` is None when no return was found; ``conclusive`` is False when
    the orbit was truncated before the horizon (and no certificate applied),
    so absence of a return is then only one-sided evidence.
    """

    event: Optional[ReturnEvent]
    conclusive: bool
    t_reached: float
    reason: str = ""


def _wrap_diffs(d: np.ndarray, periods) -> np.ndarray:
    for i, L in enumerate(periods):
        if L is not None:
            d[..., i] -= L * np.round(d[..., i] / L)
    return d


def proxy_distance(m: ChartedManifold, Y: np.ndarray,
                   state0: UnitTangentState) -> np.ndarray:
    """Bundle-distance gauge between flow states and a reference state.

    sqrt(position^2 + angle^2) with the position part the wrapped
    chart-Euclidean distance and the angle between chart velocity vectors.
    This is only a topology-compatible gauge for return detection, not the
    bundle metric distance.
    """
    n = m.dim
    Y = np.atleast_2d(Y)
    dx = _wrap_diffs(Y[:, :n] - state0.x, m.periods)
    pos = np.linalg.norm(dx, axis=1)
    V = Y[:, n:]
    nv = np.linalg.norm(V, axis=1) * max(1e-300, float(np.linalg.norm(state0.v)))
    cosang = np.clip((V @ state0.v) / np.maximum(nv, 1e-300), -1.0, 1.0)
    ang = np.arccos(cosang)
    return np.sqrt(pos ** 2 + ang ** 2)


def _refine_return(dist_of_t, ts, ds, idx, eps, t_min):
    # walk forward through the decreasing part of the first sub-eps excursion
    j = idx
    while j + 1 < len(ts) and ds[j + 1] < ds[j]:
        j += 1
    lo = max(ts[max(idx - 1, 0)], t_min)
    hi = ts[min(j + 1, len(ts) - 1)]
    if hi <= lo:
        return float(ts[idx]), float(ds[idx])
    res = minimize_scalar(dist_of_t, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9})
    t_star, d_star = float(res.x), float(res.fun)
    if d_star > eps:     # refinement should not lose the detection
        k = int(np.argmin(ds[idx:j + 1])) + idx
        t_star, d_star = float(ts[k]), float(ds[k])
    return t_star, d_star


def first_return(m: ChartedManifold, state: UnitTangentState, eps: float = 0.05,
                 t_min: float = 1.0, t_max: float = 1000.0) -> FirstReturnResult:
    """Earliest t in [t_min, t_max] at which the orbit re-enters the eps
    ball around its initial state, in the proxy bundle gauge.

    The orbit is integrated in chunks of RETURN_CHUNK and the gauge is
    scanned on a grid of step min(eps / 4, 0.05), then refined to the first local minimum of the sub-eps excursion.
    On manifolds with ``radius_escape_certificate`` the search stops early
    once monotone radial escape makes any later return impossible; absence
    of a return is then conclusive.
    """
    if eps <= 0 or not (0 <= t_min < t_max):
        raise ValueError("need eps > 0 and 0 <= t_min < t_max")
    grid_step = min(eps / 4.0, 0.05)
    n = m.dim
    use_cert = m.radius_escape_certificate and m.radius is not None
    r0 = m.radius(state.x) if use_cert else 0.0

    monitor = None
    if use_cert:
        prev_r = [r0]

        def monitor(t, y):
            # the radius is convex along geodesics here, so a nondecreasing
            # tail with r - r0 > eps rules out later returns
            r = m.radius(y[:n])
            escaped = r >= prev_r[0] and (r - r0) > eps
            prev_r[0] = r
            return "escape" if escaped else None

    t0 = 0.0
    cur = state
    while t0 < t_max:
        t1 = min(t0 + RETURN_CHUNK, t_max)
        traj = integrate_geodesic(m, cur, t1, t_start=t0, monitor=monitor)
        reached = traj.t_end
        scan_hi = min(reached, t1)
        k = max(2, int(math.ceil((scan_hi - t0) / grid_step)) + 1)
        ts = np.linspace(t0, scan_hi, k)
        Y = traj.sol(ts).T
        ds = proxy_distance(m, Y, state)

        mask = (ts >= t_min) & (ds <= eps)
        if np.any(mask):
            idx = int(np.argmax(mask))

            def dist_of_t(t):
                return float(proxy_distance(m, traj.sol(t)[None, :], state)[0])

            t_star, d_star = _refine_return(dist_of_t, ts, ds, idx, eps, t_min)
            return FirstReturnResult(
                event=ReturnEvent(t_star=t_star, distance=d_star, epsilon=eps),
                conclusive=True, t_reached=reached)

        if traj.truncated:
            if traj.truncation_reason == "monitor:escape":
                return FirstReturnResult(event=None, conclusive=True,
                                         t_reached=reached, reason="escape")
            return FirstReturnResult(event=None, conclusive=False,
                                     t_reached=reached,
                                     reason=traj.truncation_reason or "truncated")

        cur = traj.state_at(reached)
        t0 = reached
    return FirstReturnResult(event=None, conclusive=True, t_reached=t_max,
                             reason="horizon")


def radius_stretch_constant(m: ChartedManifold, states: Sequence[UnitTangentState],
                            T: float = 30.0, r_floor: float = 2.0,
                            n_checkpoints: int = 60) -> float:
    """Empirical bound C with travel time <= C * surrogate radius, measured
    on the outbound legs of shot orbits.

    Only checkpoints while the surrogate radius is still increasing count:
    the elapsed time is then a distance witness for the reached point.
    Orbits trapped below ``r_floor`` contribute nothing.  Conservative by
    construction; intended for calibrating annulus estimates that only need
    d <= C r + const.
    """
    if m.radius is None:
        raise ValueError(f"{m.name} has no radius surrogate")
    worst = 1.0
    for st in states:
        traj = integrate_geodesic(m, st, T)
        r_prev = m.radius(st.x)
        for t in np.linspace(T / n_checkpoints, min(T, traj.t_end), n_checkpoints):
            r = m.radius(traj.state_at(t).x)
            if r <= r_prev:   # turning point: the outbound leg has ended
                break
            if r >= r_floor:
                worst = max(worst, (t + m.radius(st.x)) / r)
            r_prev = r
    return float(worst)
