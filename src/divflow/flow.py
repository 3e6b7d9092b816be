"""Geodesic-flow integration, line integrals along orbits, and return-time
probes.

One Dormand-Prince 5(4) stepper advances a stack of N orbits as one
(N, 2n + q) array: chart position, chart velocity and q = 0 or 1 line
integral carried as an extra component.  Each orbit keeps its own step size,
its own accept/reject decisions and its own truncation reason, so an orbit's
result does not depend on the stack it rides in; one orbit is a stack of
one.  The step control is the standard one (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.4) at RTOL/ATOL: RMS error norm, safety factor 0.9,
step factors within [0.2, 10] and no growth on a step that was just
rejected.  The carried integral stays out of the error norm, so carrying it
changes no step.  Every accepted step keeps its
continuous extension (Dormand & Prince, *J. Comput. Appl. Math.* 6, 1980,
with Shampine's quartic interpolant; HNW II.6) for queries between nodes.

Step budgets, domain exits, speed drift and step-size underflow turn into
flagged truncations instead of hangs.  Velocities are never renormalized:
speed drift is recorded at every accepted node as a diagnostic, not
corrected, so it stays an honest measure of integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    UnitTangentState,
    VectorFieldDef,
    _components,
    _field_jacobian,
    christoffel,
    field_norm,
    pairing,
    pairing_rate_form,  # noqa: F401  bound here for perfbench/test_perfbench.py::test_tracer_patches_every_binding_and_restores
    stack_states,
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
]

RTOL = 1e-9
ATOL = 1e-12
MAX_STEPS = 100_000
MAX_SPEED_DRIFT = 1e-4   # |g(v, v) - 1| past which an orbit is truncated
RETURN_CHUNK = 100.0     # time span first_return integrates at once
RETURN_WINDOW = 256      # return-grid points per orbit scanned at once
RETURN_XATOL = 1e-9      # time tolerance of the return refinement

# Dormand-Prince 5(4): stage matrix A (the system is autonomous, so the
# stage nodes are not needed), fifth-order weights B, error weights E over
# the seven (first-same-as-last) stages, and the quartic
# continuous-extension matrix P
A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
              -22 / 525, 1 / 40])
P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 5.0


class TruncatedTrajectoryError(RuntimeError):
    """An orbit computation needed a time range the integrator could not reach."""


@dataclass
class StepStats:
    """Work of one integration, summed over its orbits.  The rejected-step
    count is exact; its name is kept for the readers of these counters."""

    n_accepted: int
    n_rejected_est: int
    nfev: int


class GeodesicTrajectory:
    """The orbits of one stacked integration, with their continuous extension.

    Orbit i ran from its start time toward its ``t_final`` and stopped at
    ``t_end``.  ``reasons[i]`` is None for an orbit that got there, else one
    of "left_domain", "speed_drift", "step_limit", "step_underflow",
    "solver_failed", "rhs_failure" or "monitor".  Over the whole stack:

      truncated          the number of truncated orbits (0 or 1 for one orbit)
      truncation_reason  the first truncated orbit's reason, else None
      stats              accepted and rejected steps and right-hand-side
                         evaluations, summed over the orbits (per orbit in
                         ``n_accepted``, ``n_rejected`` and ``nfev``)
      max_speed_drift    the largest |g(v, v) - 1| over the accepted nodes of
                         every orbit

    ``speed_drift`` is |g(v, v) - 1| at each node (the initial speed is unit
    by construction).  Per-orbit values (``states``, ``speed_drift``,
    ``t_end``, ``y_end``, ``state_at``) carry a leading orbit axis (lists for
    the ragged node arrays), except for a trajectory started from one state
    (x of shape (n,)).  ``y_stops[i, j]`` is orbit i's full
    state (x, v and the carried integral) at the j-th forced step end, NaN
    where the orbit stopped before it.
    """

    def __init__(self, m: ChartedManifold, one: bool, t_start, t_final,
                 node_t, node_y, node_drift, seg_h, seg_Q, n_nodes,
                 reasons, n_accepted, n_rejected, nfev, y_stops):
        self.manifold = m
        self.one = one
        self.n_orbits = len(reasons)
        self.direction = np.sign(t_final - t_start)
        self._t_start = t_start
        self._node_t = node_t
        self._node_y = node_y
        self._node_drift = node_drift
        self._seg_h = seg_h
        self._seg_Q = seg_Q
        self._node_off = np.concatenate([[0], np.cumsum(n_nodes)])
        self.reasons = tuple(reasons)
        self.n_accepted = n_accepted
        self.n_rejected = n_rejected
        self.nfev = nfev
        self.y_stops = y_stops
        self.stats = StepStats(n_accepted=int(n_accepted.sum()),
                               n_rejected_est=int(n_rejected.sum()),
                               nfev=int(nfev.sum()))

    def _out(self, per_orbit):
        return per_orbit[0] if self.one else per_orbit

    def _split(self, node_values) -> list:
        off = self._node_off
        return [node_values[off[i]:off[i + 1]] for i in range(self.n_orbits)]

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def truncated(self) -> int:
        return sum(r is not None for r in self.reasons)

    @property
    def truncation_reason(self) -> Optional[str]:
        return next((r for r in self.reasons if r is not None), None)

    @property
    def states(self):
        return self._out(self._split(self._node_y[:, :2 * self.dim]))

    @property
    def speed_drift(self):
        return self._out(self._split(self._node_drift))

    @property
    def max_speed_drift(self) -> float:
        return float(np.nanmax(self._node_drift))

    @property
    def _t_end(self) -> np.ndarray:
        return self._node_t[self._node_off[1:] - 1]

    @property
    def t_end(self):
        return self._out(self._t_end)

    @property
    def _y_end(self) -> np.ndarray:
        return self._node_y[self._node_off[1:] - 1]

    @property
    def y_end(self):
        """Each orbit's last accepted state, carried integral included."""
        return self._out(self._y_end)

    def _extend(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """States (R, k, d) of orbits ``rows`` at times t (R, k), from the
        continuous extension of the step that holds each time."""
        t0, t1 = self._t_start[rows], self._t_end[rows]
        lo, hi = np.minimum(t0, t1)[:, None], np.maximum(t0, t1)[:, None]
        out = (t < lo - 1e-12) | (t > hi + 1e-12)
        if out.any():
            r = int(np.argmax(out.any(axis=1)))
            reason = self.reasons[rows[r]]
            raise TruncatedTrajectoryError(
                f"time {t[r][out[r]][0]} outside reached span [{lo[r, 0]}, {hi[r, 0]}]"
                + (f" (truncated: {reason})" if reason is not None else ""))
        node = np.empty(t.shape, dtype=np.intp)
        for r, i in enumerate(rows):
            a, b = self._node_off[i], self._node_off[i + 1]
            ends = self.direction[i] * self._node_t[a + 1:b]
            j = np.searchsorted(ends, self.direction[i] * t[r])
            node[r] = a + np.minimum(j, max(b - a - 2, 0))
        # the segment after node j of orbit i is global segment j - i
        seg = node - np.asarray(rows)[:, None]
        y = self._node_y[node]
        stepped = (self._node_off[np.asarray(rows) + 1]
                   - self._node_off[rows] > 1)[:, None]
        if not stepped.any():
            return y
        seg = np.where(stepped, seg, 0)
        h = np.where(stepped, self._seg_h[seg], 1.0)
        x = ((t - self._node_t[node]) / h)[..., None]
        Q = self._seg_Q
        poly = x * (Q[0][seg] + x * (Q[1][seg] + x * (Q[2][seg] + x * Q[3][seg])))
        return y + np.where(stepped[..., None], h[..., None] * poly, 0.0)

    def y_at(self, t):
        """Full states at time t: a scalar, one time per orbit (N,), or a
        grid per orbit (N, k); from the continuous extension."""
        t = np.asarray(t, dtype=float)
        grid = t if t.ndim == 2 else np.broadcast_to(t, (self.n_orbits,))[:, None]
        y = self._extend(np.arange(self.n_orbits), grid)
        return self._out(y if t.ndim == 2 else y[:, 0])

    def state_at(self, t) -> UnitTangentState:
        y = self.y_at(t)
        n = self.dim
        return UnitTangentState(x=y[..., :n], v=y[..., n:2 * n])


# ---------------------------------------------------------------------------
# the stepper


def _rms(z: np.ndarray) -> np.ndarray:
    return np.linalg.norm(z, axis=1) / z.shape[1] ** 0.5


def _contract(G: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gamma(a, b)^k = Gamma^k_ij a^i b^j on stacks, as one flattened
    (n, n*n) product per row.  Keep this summation order: round trips on the
    hyperbolic chart sit at the rounding floor, so another order moves
    them."""
    M, n = a.shape
    return (G.reshape(M, n, n * n) @ (a[:, :, None] * b[:, None, :]).reshape(M, n * n, 1))[..., 0]


def _geodesic_rhs(m: ChartedManifold, integrand) -> Callable:
    """Right-hand side on a stack of states (M, 2n + q): one Christoffel
    call gives both the spray -Gamma(v, v) and, for a carried pairing rate,
    Gamma(v, X)."""
    n = m.dim

    def rhs(Y):
        X, V = Y[:, :n], Y[:, n:2 * n]
        G = christoffel(m, X)
        F = np.empty_like(Y)
        F[:, :n] = V
        F[:, n:2 * n] = -_contract(G, V, V)
        if integrand is not None:
            F[:, 2 * n] = integrand(X, V, G)
        return F
    return rhs


def _pairing_rate(field: VectorFieldDef, m: ChartedManifold) -> Callable:
    """g(nabla_v X, v) = g(J v + Gamma(v, X), v) from the spray's Gamma."""
    def rate(X, V, G):
        W = (_field_jacobian(field, m, X) @ V[..., None])[..., 0] + _contract(
            G, V, _components(field, X))
        return (V[:, None, :] @ m.metric(X) @ W[..., None])[:, 0, 0]
    return rate


def _evaluate(rhs: Callable, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rhs on a stack, and the rows on which it raised; those are redone one
    at a time, so one failing orbit does not stop the others."""
    try:
        return rhs(Y), np.zeros(len(Y), dtype=bool)
    except (DomainError, MetricError):
        F = np.zeros_like(Y)
        bad = np.zeros(len(Y), dtype=bool)
        for i in range(len(Y)):
            try:
                F[i] = rhs(Y[i:i + 1])[0]
            except (DomainError, MetricError):
                bad[i] = True
        return F, bad


def _drift(m: ChartedManifold, Y: np.ndarray) -> np.ndarray:
    n = m.dim
    V = Y[:, n:2 * n]
    return np.abs((V[:, None, :] @ m.metric(Y[:, :n]) @ V[:, :, None])[:, 0, 0] - 1.0)


def _next_end(t, direction, t_final, stops):
    """The nearest forced step end past t: the next stop before or at
    t_final, else t_final; and that stop's index (-1 for t_final)."""
    if stops.size == 0:
        return t_final, None
    k = np.where(direction > 0, np.searchsorted(stops, t, side="right"),
                 np.searchsorted(stops, t, side="left") - 1)
    s = stops[np.clip(k, 0, stops.size - 1)]
    use = (k >= 0) & (k < stops.size) & (direction * (s - t_final) <= 0)
    return np.where(use, s, t_final), np.where(use, k, -1)


def _initial_step(rhs, Y, F, t_span, direction, nx):
    """The standard starting step (HNW II.4) per row, from the first nx
    components; and the rows where its trial right-hand side failed."""
    scale = ATOL + np.abs(Y[:, :nx]) * RTOL
    d0 = _rms(Y[:, :nx] / scale)
    d1 = _rms(F[:, :nx] / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_span)
        F1, bad = _evaluate(rhs, Y + (h0 * direction)[:, None] * F)
        d2 = _rms((F1[:, :nx] - F[:, :nx]) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** (1.0 / 5.0))
    return np.minimum(np.minimum(100 * h0, h1), t_span), bad


def _dormand_prince(m: ChartedManifold, Y0: np.ndarray, t0: np.ndarray,
                    t_final: np.ndarray, integrand, stops: np.ndarray,
                    monitor, one: bool) -> GeodesicTrajectory:
    N, d = Y0.shape
    n = m.dim
    nx = 2 * n
    rhs = _geodesic_rhs(m, integrand)
    reasons: list = [None] * N
    n_acc = np.zeros(N, dtype=np.int64)
    n_rej = np.zeros(N, dtype=np.int64)
    nfev = np.full(N, 2, dtype=np.int64)
    y_stops = np.full((N, stops.size, d), np.nan)
    # node and segment records, one array per stacked step, in step order
    node_i, node_t, node_y = [np.arange(N)], [t0], [Y0]
    node_drift = [_drift(m, Y0)]
    seg_i, seg_h, seg_Q = [], [], []

    direction = np.sign(t_final - t0)
    F, bad = _evaluate(rhs, Y0)
    h_abs, bad1 = _initial_step(rhs, Y0, F, np.abs(t_final - t0), direction, nx)
    for i in np.flatnonzero(bad | bad1):
        reasons[i] = "rhs_failure"
    # the rows still stepping: orbit id, time, state, slope, step size,
    # whether the current step has had a rejection, direction, end time and
    # the step below which an unforced step is an underflow
    live = np.flatnonzero(~(bad | bad1))
    rows = (live, t0[live], Y0[live], F[live], h_abs[live],
            np.zeros(live.size, dtype=bool), direction[live], t_final[live],
            np.maximum(1e-13, 1e-9 * np.abs(t_final - t0))[live])

    while rows[0].size:
        ids, t, y, f, h_abs, rejected, dirn, t_fin, floor = rows
        M = ids.size
        keep = n_acc[ids] < MAX_STEPS
        for r in np.flatnonzero(~keep):
            reasons[ids[r]] = "step_limit"
        # a floor of ten ulps of t: a fresh step is raised to it, a
        # retried step that falls below it fails
        tiny = 10 * np.abs(np.nextafter(t, dirn * np.inf) - t)
        low = h_abs < tiny
        if low.any():
            h_abs = np.where(low & ~rejected, tiny, h_abs)
            for r in np.flatnonzero(keep & low & rejected):
                reasons[ids[r]] = "solver_failed"
                keep[r] = False
        if not keep.all():
            rows = tuple(a[keep] for a in (ids, t, y, f, h_abs, rejected, dirn, t_fin, floor))
            continue

        end, stop = _next_end(t, dirn, t_fin, stops)
        t_new = t + h_abs * dirn
        forced = dirn * (t_new - end) >= 0
        t_new = np.where(forced, end, t_new)
        h = t_new - t
        h_abs = np.abs(h)

        # the stages, one (M, d) slab each; flat views for the weighted sums
        K = np.empty((7, M, d))
        flat = K.reshape(7, M * d)
        K[0] = f
        bad = np.zeros(M, dtype=bool)
        for s in range(1, 6):
            dy = (A[s, :s] @ flat[:s]).reshape(M, d) * h[:, None]
            K[s], b = _evaluate(rhs, y + dy)
            bad |= b
        y_new = y + h[:, None] * (B @ flat[:6]).reshape(M, d)
        K[6], b = _evaluate(rhs, y_new)
        bad |= b
        nfev[ids] += 6

        scale = ATOL + np.maximum(np.abs(y[:, :nx]), np.abs(y_new[:, :nx])) * RTOL
        err = _rms(h[:, None] * (E @ flat).reshape(M, d)[:, :nx] / scale)
        # a zero error norm grows the step by MAX_FACTOR; a NaN one (fmax)
        # shrinks it by MIN_FACTOR
        factor = SAFETY * np.maximum(err, 1e-300) ** ERROR_EXPONENT
        accept = (err < 1) & ~bad
        grow = np.minimum(np.where(rejected, 1.0, MAX_FACTOR), factor)
        h_abs = h_abs * np.where(accept, grow, np.fmax(MIN_FACTOR, factor))
        n_acc[ids[accept]] += 1
        n_rej[ids[~accept & ~bad]] += 1
        keep = ~bad
        for r in np.flatnonzero(bad):
            reasons[ids[r]] = "rhs_failure"

        acc = np.flatnonzero(accept)
        if acc.size:
            sel = slice(None) if acc.size == M else acc
            ia, ya, ta = ids[sel], y_new[sel], t_new[sel]
            seg_i.append(ia)
            seg_h.append(h[sel])
            seg_Q.append((P.T @ K[:, sel].reshape(7, -1)).reshape(4, acc.size, d))
            node_i.append(ia)
            node_t.append(ta)
            node_y.append(ya)
            if stop is not None:
                at_stop = forced[sel] & (stop[sel] >= 0)
                y_stops[ia[at_stop], stop[sel][at_stop]] = ya[at_stop]
            t[sel], y[sel], f[sel] = ta, ya, K[6][sel]

            # after-step checks, in order: domain, drift, underflow, monitor
            out = ~np.asarray(m.domain(ya[:, :n])) | ~np.isfinite(ya).all(axis=1)
            if out.any():
                drift = np.full(acc.size, np.nan)
                drift[~out] = _drift(m, ya[~out])
            else:
                drift = _drift(m, ya)
            node_drift.append(drift)
            over = drift > MAX_SPEED_DRIFT
            # a step cut short at a forced end is not an underflow
            under = ~forced[sel] & (np.abs(h[sel]) < floor[sel])
            stopped = out | over | under
            watched = np.zeros(acc.size, dtype=bool)
            if monitor is not None and not stopped.all():
                go = np.flatnonzero(~stopped)
                watched[go] = monitor(ia[go], ya[go])
            done = dirn[sel] * (ta - t_fin[sel]) >= 0
            for r in np.flatnonzero(stopped | watched | done):
                reasons[ia[r]] = ("left_domain" if out[r] else
                                  "speed_drift" if over[r] else
                                  "step_underflow" if under[r] else
                                  "monitor" if watched[r] else None)
                keep[acc[r]] = False
        rows = (ids, t, y, f, h_abs, ~accept, dirn, t_fin, floor)
        if not keep.all():
            rows = tuple(a[keep] for a in rows)

    order = np.argsort(np.concatenate(node_i), kind="stable")
    n_nodes = np.bincount(np.concatenate(node_i), minlength=N)
    if seg_i:
        seg_order = np.argsort(np.concatenate(seg_i), kind="stable")
        sh = np.concatenate(seg_h)[seg_order]
        sQ = np.concatenate(seg_Q, axis=1)[:, seg_order]
    else:
        sh, sQ = np.empty(0), np.empty((4, 0, d))
    return GeodesicTrajectory(
        m, one, t0, t_final,
        np.concatenate(node_t)[order], np.concatenate(node_y)[order],
        np.concatenate(node_drift)[order], sh, sQ, n_nodes,
        reasons, n_acc, n_rej, nfev, y_stops)


def integrate_geodesic(m: ChartedManifold, states, t_final, t_start=0.0,
                       monitor: Optional[Callable] = None,
                       integrand: Union[Callable, VectorFieldDef, None] = None,
                       stops: Sequence[float] = ()) -> GeodesicTrajectory:
    """Integrate the geodesic system x'' + Gamma(x)(x', x') = 0 for one
    state or a stack of states, each from its ``t_start`` to its
    ``t_final`` (scalars, or one per orbit; each orbit runs in its own time
    direction).

    An orbit is truncated (flagged, not raised) when it leaves the chart
    domain, when its speed drift passes MAX_SPEED_DRIFT, when its step size
    underflows near a singular boundary, or after MAX_STEPS accepted steps.
    ``monitor(orbits, y)`` runs on the orbits (indices into the stack) and
    states of each stacked step's accepted rows; a true entry stops that
    orbit with reason "monitor".  ``integrand`` is carried as an extra state
    component from 0 at ``t_start``: h(x, v) on stacks, or a vector field for
    its pairing rate g(nabla_v X, v).  ``stops`` are forced step ends, at
    which ``y_stops`` records each orbit's state.
    """
    X, V, one = stack_states(states)
    N = len(X)
    t0 = np.broadcast_to(np.asarray(t_start, dtype=float), (N,)).copy()
    t1 = np.broadcast_to(np.asarray(t_final, dtype=float), (N,)).copy()
    if not np.all(np.isfinite(t1)):
        raise ValueError("t_final must be finite")
    if np.any(t1 == t0):
        raise ValueError("empty time span")
    if isinstance(integrand, VectorFieldDef):
        h = _pairing_rate(integrand, m)
    elif integrand is not None:
        def h(X, V, G):
            return integrand(X, V)
    else:
        h = None
    Y0 = np.hstack([X, V] + ([np.zeros((N, 1))] if h is not None else []))
    return _dormand_prince(m, Y0, t0, t1, h, np.sort(np.asarray(stops, dtype=float)),
                           monitor, one)


def _whole(traj: GeodesicTrajectory) -> GeodesicTrajectory:
    """The trajectory, once every orbit reached its end; raises otherwise."""
    for i, reason in enumerate(traj.reasons):
        if reason is not None:
            raise TruncatedTrajectoryError(
                f"orbit truncated at t = {traj._t_end[i]} ({reason})")
    return traj


# ---------------------------------------------------------------------------
# line integrals along orbits


def birkhoff_integral(h: Callable, m: ChartedManifold, states, T: float):
    """Integral of h(x, v) along the orbit of each state over [0, T] (or
    [T, 0] for negative T), carried through the integration; h takes
    stacks x, v (M, n) and returns M values (or one for all)."""
    traj = _whole(integrate_geodesic(m, states, T, integrand=h))
    return traj._out(math.copysign(1.0, T) * traj._y_end[:, -1])


def path_integral_identity_residual(field: VectorFieldDef, m: ChartedManifold,
                                    states, T: float):
    """Defect of the fundamental-theorem identity along each orbit.

    The pairing g(X, gamma') has derivative g(nabla_{gamma'} X, gamma')
    along a geodesic, so the orbit integral of the rate must match the
    pairing difference between the endpoints; the residual is pure
    integrator error.  Raises TruncatedTrajectoryError if any orbit stops
    short of T.
    """
    X, V, one = stack_states(states)
    traj = _whole(integrate_geodesic(m, UnitTangentState(X, V), T, integrand=field))
    end = traj._y_end
    n = m.dim
    boundary = (pairing(field, m, UnitTangentState(end[:, :n], end[:, n:2 * n]))
                - pairing(field, m, UnitTangentState(X, V)))
    residual = np.abs(end[:, -1] - boundary)
    return residual[0] if one else residual


def endpoint_bound_check(field: VectorFieldDef, m: ChartedManifold,
                         states, s: float):
    """Both sides of the two-sided orbit-integral bound, per orbit.

    lhs = |integral over [-s, s] of the pairing rate|; rhs = |X| at the two
    orbit endpoints.  The lhs telescopes to a pairing difference, and each
    pairing is at most the field norm on unit vectors, so lhs <= rhs up to
    integration error.  Both legs run in one stack.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    X, V, one = stack_states(states)
    N = len(X)
    both = UnitTangentState(np.vstack([X, X]), np.vstack([V, V]))
    traj = _whole(integrate_geodesic(m, both, np.repeat([s, -s], N), integrand=field))
    end = traj._y_end
    n = m.dim
    # the backward leg carries the integral from 0 down to -s: minus the
    # integral over [-s, 0]
    lhs = np.abs(end[:N, -1] - end[N:, -1])
    rhs = field_norm(field, m, end[:N, :n]) + field_norm(field, m, end[N:, :n])
    return (lhs[0], rhs[0]) if one else (lhs, rhs)


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
    """Bundle-distance gauge between flow states Y (..., >= 2n) and
    reference states that broadcast against Y's leading axes.

    sqrt(position^2 + angle^2) with the position part the wrapped
    chart-Euclidean distance and the angle between chart velocity vectors.
    This is only a topology-compatible gauge for return detection, not the
    bundle metric distance.
    """
    n = m.dim
    Y = np.atleast_2d(Y)
    x0, v0 = np.asarray(state0.x), np.asarray(state0.v)
    dx = _wrap_diffs(Y[..., :n] - x0, m.periods)
    pos = np.linalg.norm(dx, axis=-1)
    V = Y[..., n:2 * n]
    nv = np.linalg.norm(V, axis=-1) * np.maximum(1e-300, np.linalg.norm(v0, axis=-1))
    cosang = np.clip(np.sum(V * v0, axis=-1) / np.maximum(nv, 1e-300), -1.0, 1.0)
    return np.sqrt(pos ** 2 + np.arccos(cosang) ** 2)


def _golden_min(f: Callable, lo: np.ndarray, hi: np.ndarray,
                xatol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimum of f (a stack of times -> values) on every
    bracket [lo, hi] at once; the best of the last two interior points."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    width = float(np.max(b - a))
    for _ in range(max(0, math.ceil(math.log(max(width, xatol) / xatol)
                                    / -math.log(invphi)))):
        left = fc < fd          # the minimum lies in [a, d]
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c, d = np.where(left, b - invphi * (b - a), d), np.where(left, c, a + invphi * (b - a))
        new = np.where(left, c, d)
        fn = f(new)
        fc, fd = np.where(left, fn, fd), np.where(left, fc, fn)
    best = fc < fd
    return np.where(best, c, d), np.where(best, fc, fd)


def _return_hits(traj, t0, hi, k, t_min, eps, X0, V0) -> list:
    """The first sub-eps point of each orbit's return grid (k points over
    [t0, hi]), scanned RETURN_WINDOW points at a time until found; per hit
    its row, refinement bracket and grid fallbacks (see ``_excursion``)."""
    step = (hi - t0) / (k - 1)

    def gauge(rows, start):
        J = np.minimum(start + np.arange(RETURN_WINDOW), k[rows, None] - 1)
        ts = np.where(J < k[rows, None] - 1, t0 + J * step[rows, None], hi[rows, None])
        ref = UnitTangentState(X0[rows, None], V0[rows, None])
        return ts, proxy_distance(traj.manifold, traj._extend(rows, ts), ref)

    hits = []
    rows, start = np.arange(len(k)), 0
    while rows.size:
        ts, ds = gauge(rows, start)
        hit = ((start + np.arange(RETURN_WINDOW) < k[rows, None])
               & (ts >= t_min) & (ds <= eps))
        found = hit.any(axis=1)
        for r in np.flatnonzero(found):
            hits.append(_excursion(gauge, rows[r], start + int(np.argmax(hit[r])),
                                   k[rows[r]], t_min))
        start += RETURN_WINDOW
        rows = rows[~found & (start < k[rows])]
    return hits


def _excursion(gauge, row, idx, k, t_min) -> tuple:
    """Walk forward from a grid hit at idx through the decreasing part of
    its sub-eps excursion: the row, the refinement bracket, and the grid
    minimum of the walk and the hit itself as fallbacks."""
    first = max(idx - 1, 0)
    ts, ds = (a[0] for a in gauge(np.array([row]), first))
    i = j = idx - first
    while True:
        while j + 1 < len(ds) and ds[j + 1] < ds[j]:
            j += 1
        if j + 1 < len(ds) or first + len(ds) >= k:
            break
        more = gauge(np.array([row]), first + len(ds))
        ts, ds = np.concatenate([ts, more[0][0]]), np.concatenate([ds, more[1][0]])
    g = int(np.argmin(ds[i:j + 1])) + i
    return (row, max(ts[0], t_min), ts[j + 1] if j + 1 < len(ts) else ts[-1],
            (float(ts[g]), float(ds[g])), (float(ts[i]), float(ds[i])))


def first_return(m: ChartedManifold, states, eps: float = 0.05,
                 t_min: float = 1.0, t_max: float = 1000.0):
    """Earliest t in [t_min, t_max] at which each orbit re-enters the eps
    ball around its initial state, in the proxy bundle gauge.

    The undecided orbits are integrated together in chunks of RETURN_CHUNK
    and the gauge is scanned on a grid of step min(eps / 4, 0.05), then
    refined to the first local minimum of the sub-eps excursion.  On
    manifolds with ``radius_escape_certificate`` an orbit's search stops
    early once monotone radial escape makes any later return impossible;
    absence of a return is then conclusive.
    """
    if eps <= 0 or not (0 <= t_min < t_max):
        raise ValueError("need eps > 0 and 0 <= t_min < t_max")
    X0, V0, one = stack_states(states)
    N, n = X0.shape
    grid_step = min(eps / 4.0, 0.05)
    use_cert = m.radius_escape_certificate and m.radius is not None
    if use_cert:
        r0 = np.asarray(m.radius(X0), dtype=float)
        prev_r = r0.copy()
    results: list = [None] * N
    live = np.arange(N)
    cur = UnitTangentState(X0, V0)
    t0 = 0.0
    while live.size:
        t1 = min(t0 + RETURN_CHUNK, t_max)
        monitor = None
        if use_cert:
            def monitor(rows, y, live=live):
                # the radius is convex along geodesics here, so a
                # nondecreasing tail with r - r0 > eps rules out later returns
                orbit = live[rows]
                r = m.radius(y[:, :n])
                escaped = (r >= prev_r[orbit]) & (r - r0[orbit] > eps)
                prev_r[orbit] = r
                return escaped

        traj = integrate_geodesic(m, cur, t1, t_start=t0, monitor=monitor)
        reached = traj._t_end
        hi = np.minimum(reached, t1)
        k = np.maximum(2, np.ceil((hi - t0) / grid_step).astype(np.int64) + 1)
        hits = _return_hits(traj, t0, hi, k, t_min, eps, X0[live], V0[live])
        events = _refine_returns(traj, hits, X0[live], V0[live], eps)
        cont = []
        for r, orbit in enumerate(live):
            reason = traj.reasons[r]
            if r in events:
                t_star, d_star = events[r]
                results[orbit] = FirstReturnResult(
                    event=ReturnEvent(t_star=t_star, distance=d_star, epsilon=eps),
                    conclusive=True, t_reached=float(reached[r]))
            elif reason == "monitor":
                results[orbit] = FirstReturnResult(event=None, conclusive=True,
                                                   t_reached=float(reached[r]),
                                                   reason="escape")
            elif reason is not None:
                results[orbit] = FirstReturnResult(event=None, conclusive=False,
                                                   t_reached=float(reached[r]),
                                                   reason=reason)
            elif t1 >= t_max:
                results[orbit] = FirstReturnResult(event=None, conclusive=True,
                                                   t_reached=t_max, reason="horizon")
            else:
                cont.append(r)
        Y = traj._y_end[cont]
        cur = UnitTangentState(Y[:, :n], Y[:, n:2 * n])
        live = live[cont]
        t0 = t1
    return results[0] if one else results


def _refine_returns(traj, hits, X0, V0, eps) -> dict:
    """Refined (t_star, distance) per row with a hit: golden section on the
    continuous extension over every hit's bracket at once."""
    if not hits:
        return {}
    rows, lo, hi, walk_min, at_hit = (np.array(c) for c in zip(*hits))
    ref = UnitTangentState(X0[rows], V0[rows])
    open_ = hi > lo
    hi = np.where(open_, hi, lo)

    def dist(t):
        y = traj._extend(rows, np.clip(t, lo, hi)[:, None])[:, 0]
        return proxy_distance(traj.manifold, y, ref)

    t_star, d_star = _golden_min(dist, lo, hi, RETURN_XATOL)
    out = {}
    for e, r in enumerate(rows):
        if not open_[e]:
            out[r] = tuple(at_hit[e])
        elif d_star[e] > eps:     # refinement should not lose the detection
            out[r] = tuple(walk_min[e])
        else:
            out[r] = (float(t_star[e]), float(d_star[e]))
    return out

