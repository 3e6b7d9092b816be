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
changes no step.  Every accepted step keeps its continuous extension
(Dormand & Prince, *J. Comput. Appl. Math.* 6, 1980, with Shampine's quartic
interpolant; HNW II.6), the one way to read an orbit between its nodes:
``first_return`` scans its return grid on it, and ``diagnostics.hopf_probe``
reads the carried integral at its horizons.

An orbit stops short of ``t_final`` with a flagged reason instead of a
hang.  Before each attempt: "step_limit" after MAX_STEPS accepted steps, and
"step_underflow" for a step that ``t_final`` does not cut short and that is
below the one floor, the larger of 1e-9 of the span and ten ulps of t.  At
any stage: "rhs_failure" when the right-hand side raises.  After an accepted
step: "left_domain", "speed_drift" past MAX_SPEED_DRIFT, or "monitor".
Velocities are never renormalized: speed drift is recorded at every accepted
node as a diagnostic, not corrected, so it stays an honest measure of
integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    VectorFieldDef,
    _components,
    _field_jacobian,
    christoffel,
    pairing,
    pairing_rate_form,  # noqa: F401  bound here for perfbench/test_perfbench.py::test_tracer_patches_every_binding_and_restores
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
    "proxy_distance",
]

RTOL = 1e-9
ATOL = 1e-12
MAX_STEPS = 100_000
MAX_SPEED_DRIFT = 1e-4   # |g(v, v) - 1| past which an orbit is truncated
RETURN_CHUNK = 100.0     # time span first_return integrates at once
RETURN_WINDOW = 256      # return-grid points per orbit scanned at once

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
    ``t_end``, its last accepted node.  ``reasons[i]`` is None for an orbit
    that got there, else one of six (see the module docstring):
    "left_domain", "speed_drift", "step_limit", "step_underflow",
    "rhs_failure" or "monitor".  Segment k of an orbit, the continuous
    extension of its step from node k, starts at node k; the last node's
    segment is empty.  Over the whole stack:

      truncated          the number of truncated orbits
      truncation_reason  the first truncated orbit's reason, else None
      stats              accepted and rejected steps and right-hand-side
                         evaluations, summed over the orbits (per orbit in
                         ``n_accepted``, ``n_rejected`` and ``nfev``)
      max_speed_drift    the largest |g(v, v) - 1| over the accepted nodes of
                         every orbit

    ``speed_drift`` is |g(v, v) - 1| at each node (the initial speed is unit
    by construction).  Per-orbit values (``t_end``, ``y_end``, ``y_at``,
    and the node lists ``states`` and ``speed_drift``) carry a leading orbit
    axis, for a stack of one orbit too.
    """

    def __init__(self, m: ChartedManifold, t_start, t_final,
                 node_t, node_y, node_drift, seg_h, seg_Q, n_nodes,
                 reasons, n_accepted, n_rejected, nfev):
        self.manifold = m
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
        self.stats = StepStats(n_accepted=int(n_accepted.sum()),
                               n_rejected_est=int(n_rejected.sum()),
                               nfev=int(nfev.sum()))

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
    def states(self) -> list:
        return self._split(self._node_y[:, :2 * self.dim])

    @property
    def speed_drift(self) -> list:
        return self._split(self._node_drift)

    @property
    def max_speed_drift(self) -> float:
        return float(np.nanmax(self._node_drift))

    @property
    def t_end(self) -> np.ndarray:
        return self._node_t[self._node_off[1:] - 1]

    @property
    def y_end(self) -> np.ndarray:
        """Each orbit's last accepted state, carried integral included."""
        return self._node_y[self._node_off[1:] - 1]

    def _nodes(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The node (R, k) of each orbit ``rows`` whose step holds each time
        t (R, k): np.searchsorted(ends, d * t) on the orbit's step ends
        d * node_t[a + 1:b], as one bisection over every row."""
        a = self._node_off[rows][:, None]
        n_ends = self._node_off[rows + 1][:, None] - a - 1
        d = self.direction[rows][:, None]
        key = d * t
        lo = np.zeros(t.shape, dtype=np.intp)
        hi = np.broadcast_to(n_ends, t.shape)
        last = len(self._node_t) - 1
        for _ in range(int(n_ends.max(initial=0)).bit_length()):
            mid = (lo + hi) // 2
            below = d * self._node_t[np.minimum(a + 1 + mid, last)] < key
            open_ = lo < hi
            lo, hi = (np.where(open_ & below, mid + 1, lo),
                      np.where(open_ & ~below, mid, hi))
        return a + np.minimum(lo, np.maximum(n_ends - 1, 0))

    def _extend(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """States (R, k, d) of orbits ``rows`` at times t (R, k), from the
        continuous extension of the step that holds each time."""
        rows = np.asarray(rows)
        t0, t1 = self._t_start[rows], self.t_end[rows]
        lo, hi = np.minimum(t0, t1)[:, None], np.maximum(t0, t1)[:, None]
        out = (t < lo - 1e-12) | (t > hi + 1e-12)
        if out.any():
            r = int(np.argmax(out.any(axis=1)))
            reason = self.reasons[rows[r]]
            raise TruncatedTrajectoryError(
                f"time {t[r][out[r]][0]} outside reached span [{lo[r, 0]}, {hi[r, 0]}]"
                + (f" (truncated: {reason})" if reason is not None else ""))
        node = self._nodes(rows, t)
        h = self._seg_h[node]
        x = ((t - self._node_t[node]) / h)[..., None]
        Q = self._seg_Q
        poly = x * (Q[0][node] + x * (Q[1][node] + x * (Q[2][node] + x * Q[3][node])))
        return self._node_y[node] + h[..., None] * poly

    def y_at(self, t) -> np.ndarray:
        """Full states at time t, from the continuous extension: (N, d) for
        a scalar or one time per orbit (N,), (N, k, d) for a grid per orbit
        (N, k)."""
        t = np.asarray(t, dtype=float)
        grid = t if t.ndim == 2 else np.broadcast_to(t, (self.n_orbits,))[:, None]
        y = self._extend(np.arange(self.n_orbits), grid)
        return y if t.ndim == 2 else y[:, 0]


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


class _PairingRate:
    """g(nabla_v X, v) = g(J v + Gamma(v, X), v) from the spray's Gamma.

    ``Vg`` keeps the rows v @ g of the last call, so the speed-drift record
    at an accepted node reuses the metric of the step's last stage.
    """

    def __init__(self, field: VectorFieldDef, m: ChartedManifold):
        self.field, self.m = field, m
        self.Vg: Optional[np.ndarray] = None

    def __call__(self, X, V, G):
        W = (_field_jacobian(self.field, self.m, X) @ V[..., None])[..., 0] + _contract(
            G, V, _components(self.field, X))
        self.Vg = V[:, None, :] @ self.m.metric(X)
        return (self.Vg @ W[..., None])[:, 0, 0]


def _no_integrand(X, V, G):
    """The carried column's slope where no result reads it."""
    return 0.0


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


def _drift(m: ChartedManifold, Y: np.ndarray, Vg: Optional[np.ndarray] = None) -> np.ndarray:
    """|g(v, v) - 1| per row, from the rows v @ g when already formed."""
    n = m.dim
    V = Y[:, n:2 * n]
    if Vg is None:
        Vg = V[:, None, :] @ m.metric(Y[:, :n])
    return np.abs((Vg @ V[:, :, None])[:, 0, 0] - 1.0)


def _initial_step(rhs, Y, F, t_span, direction, nx):
    """The standard starting step (HNW II.4) per row, from the first nx
    components (so ``rhs`` need not carry the integral); and the rows where
    its trial right-hand side failed."""
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
                    t_final: np.ndarray, integrand, monitor) -> GeodesicTrajectory:
    N, d = Y0.shape
    n = m.dim
    nx = 2 * n
    rhs = _geodesic_rhs(m, integrand)
    # stage 1 has weight zero in B, E and P, and the starting-step trial
    # reads only the first nx columns: the carried slope there is never read
    spray = _geodesic_rhs(m, _no_integrand if integrand is not None else None)
    rate = integrand if isinstance(integrand, _PairingRate) else None
    reasons: list = [None] * N
    n_acc = np.zeros(N, dtype=np.int64)
    n_rej = np.zeros(N, dtype=np.int64)
    nfev = np.full(N, 2, dtype=np.int64)
    # node and segment records, one array per stacked step, in step order
    node_i, node_t, node_y = [np.arange(N)], [t0], [Y0]
    node_drift = [_drift(m, Y0)]
    seg_h, seg_Q = [], []

    direction = np.sign(t_final - t0)
    F, bad = _evaluate(rhs, Y0)
    h_abs, bad1 = _initial_step(spray, Y0, F, np.abs(t_final - t0), direction, nx)
    for i in np.flatnonzero(bad | bad1):
        reasons[i] = "rhs_failure"
    # the rows still stepping: orbit id, time, state, slope, step size,
    # whether the current step has had a rejection, direction, end time and
    # the span floor
    live = np.flatnonzero(~(bad | bad1))
    rows = (live, t0[live], Y0[live], F[live], h_abs[live],
            np.zeros(live.size, dtype=bool), direction[live], t_final[live],
            np.maximum(1e-13, 1e-9 * np.abs(t_final - t0))[live])

    while rows[0].size:
        ids, t, y, f, h_abs, rejected, dirn, t_fin, floor = rows
        M = ids.size
        t_new = t + h_abs * dirn
        # a forced step is cut short to end exactly at t_final
        forced = dirn * (t_new - t_fin) >= 0
        t_new = np.where(forced, t_fin, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        # before each attempt: the step budget, and one floor for a step
        # t_final does not cut short, the larger of the span floor and ten
        # ulps of t
        limit = n_acc[ids] >= MAX_STEPS
        ulps = 10 * np.abs(np.nextafter(t, dirn * np.inf) - t)
        stop = limit | (~forced & (h_abs < np.maximum(floor, ulps)))
        if stop.any():
            for r in np.flatnonzero(stop):
                reasons[ids[r]] = "step_limit" if limit[r] else "step_underflow"
            rows = tuple(a[~stop] for a in rows)
            continue

        # the stages, one (M, d) slab each; flat views for the weighted sums
        K = np.empty((7, M, d))
        flat = K.reshape(7, M * d)
        K[0] = f
        bad = np.zeros(M, dtype=bool)
        for s in range(1, 6):
            dy = (A[s, :s] @ flat[:s]).reshape(M, d) * h[:, None]
            K[s], b = _evaluate(spray if s == 1 else rhs, y + dy)
            bad |= b
        y_new = y + h[:, None] * (B @ flat[:6]).reshape(M, d)
        if rate is not None:
            rate.Vg = None
        K[6], b = _evaluate(rhs, y_new)
        bad |= b
        # the last stage's rows v @ g at y_new, unless it was redone row by row
        Vg = None if rate is None or rate.Vg is None or len(rate.Vg) != M else rate.Vg
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
            seg_h.append(h[sel])
            seg_Q.append((P.T @ K[:, sel].reshape(7, -1)).reshape(4, acc.size, d))
            node_i.append(ia)
            node_t.append(ta)
            node_y.append(ya)
            t[sel], y[sel], f[sel] = ta, ya, K[6][sel]

            # after-step checks, in order: domain, drift, monitor
            out = ~np.asarray(m.domain(ya[:, :n])) | ~np.isfinite(ya).all(axis=1)
            Vga = None if Vg is None else Vg[sel]
            if out.any():
                drift = np.full(acc.size, np.nan)
                drift[~out] = _drift(m, ya[~out], None if Vga is None else Vga[~out])
            else:
                drift = _drift(m, ya, Vga)
            node_drift.append(drift)
            over = drift > MAX_SPEED_DRIFT
            stopped = out | over
            watched = np.zeros(acc.size, dtype=bool)
            if monitor is not None and not stopped.all():
                go = np.flatnonzero(~stopped)
                watched[go] = monitor(ia[go], ya[go])
            for r in np.flatnonzero(stopped | watched | forced[sel]):
                reasons[ia[r]] = ("left_domain" if out[r] else
                                  "speed_drift" if over[r] else
                                  "monitor" if watched[r] else None)
                keep[acc[r]] = False
        rows = (ids, t, y, f, h_abs, ~accept, dirn, t_fin, floor)
        if not keep.all():
            rows = tuple(a[keep] for a in rows)

    # an empty segment ends each orbit, so segment k starts at node k
    seg_h.append(np.ones(N))
    seg_Q.append(np.zeros((4, N, d)))
    order = np.argsort(np.concatenate(node_i), kind="stable")
    seg_order = np.argsort(np.concatenate(node_i[1:] + [np.arange(N)]), kind="stable")
    return GeodesicTrajectory(
        m, t0, t_final,
        np.concatenate(node_t)[order], np.concatenate(node_y)[order],
        np.concatenate(node_drift)[order], np.concatenate(seg_h)[seg_order],
        np.concatenate(seg_Q, axis=1)[:, seg_order],
        np.bincount(np.concatenate(node_i), minlength=N),
        reasons, n_acc, n_rej, nfev)


def _states(m: ChartedManifold, states) -> np.ndarray:
    """``states`` as a float array of shape (N, 2n), N >= 1; a ValueError
    for any other shape."""
    S = np.asarray(states, dtype=float)
    if S.ndim != 2 or len(S) == 0 or S.shape[1] != 2 * m.dim:
        raise ValueError(f"states must have shape (N, {2 * m.dim}) with N >= 1, "
                         f"not {S.shape}")
    return S


def integrate_geodesic(m: ChartedManifold, states, t_final, t_start=0.0,
                       monitor: Optional[Callable] = None,
                       integrand: Union[Callable, VectorFieldDef, None] = None
                       ) -> GeodesicTrajectory:
    """Integrate the geodesic system x'' + Gamma(x)(x', x') = 0 for a stack
    of states (N, 2n), each from its ``t_start`` to its ``t_final`` (scalars,
    or one per orbit; each orbit runs in its own time direction).

    An orbit is truncated (flagged, not raised) for one of six reasons:
    "step_limit" after MAX_STEPS accepted steps; "step_underflow" when a step
    that ``t_final`` does not cut short is below the one floor, the larger of
    1e-9 of the span and ten ulps of t; "rhs_failure" when the right-hand
    side raises; "left_domain"; "speed_drift" past MAX_SPEED_DRIFT; or
    "monitor": ``monitor(orbits, y)`` runs on the orbits (indices into the
    stack) and states of each stacked step's accepted rows, and a true entry
    stops that orbit.  ``integrand`` is carried as an extra state
    component from 0 at ``t_start``: h(x, v) on stacks, or a vector field for
    its pairing rate g(nabla_v X, v).  Steps end where the controller puts
    them (the last one is cut to ``t_final``); read the orbits at other times
    through ``y_at``.
    """
    S = _states(m, states)
    N = len(S)
    t0 = np.broadcast_to(np.asarray(t_start, dtype=float), (N,)).copy()
    t1 = np.broadcast_to(np.asarray(t_final, dtype=float), (N,)).copy()
    if not np.all(np.isfinite(t1)):
        raise ValueError("t_final must be finite")
    if np.any(t1 == t0):
        raise ValueError("empty time span")
    if isinstance(integrand, VectorFieldDef):
        h = _PairingRate(integrand, m)
    elif integrand is not None:
        def h(X, V, G):
            return integrand(X, V)
    else:
        h = None
    Y0 = np.hstack([S] + ([np.zeros((N, 1))] if h is not None else []))
    return _dormand_prince(m, Y0, t0, t1, h, monitor)


def _whole(traj: GeodesicTrajectory) -> GeodesicTrajectory:
    """The trajectory, once every orbit reached its end; raises otherwise."""
    for i, reason in enumerate(traj.reasons):
        if reason is not None:
            raise TruncatedTrajectoryError(
                f"orbit truncated at t = {traj.t_end[i]} ({reason})")
    return traj


# ---------------------------------------------------------------------------
# line integrals along orbits


def birkhoff_integral(h: Callable, m: ChartedManifold, states, T: float):
    """Integral of h(x, v) along the orbit of each state (N, 2n) over
    [0, T] (or [T, 0] for negative T), carried through the integration, as
    (N,); h takes stacks x, v (M, n) and returns M values (or one for
    all)."""
    traj = _whole(integrate_geodesic(m, states, T, integrand=h))
    return math.copysign(1.0, T) * traj.y_end[:, -1]


def path_integral_identity_residual(field: VectorFieldDef, m: ChartedManifold,
                                    states, T: float):
    """Defect of the fundamental-theorem identity along each orbit.

    The pairing g(X, gamma') has derivative g(nabla_{gamma'} X, gamma')
    along a geodesic, so the orbit integral of the rate must match the
    pairing difference between the endpoints; the residual is pure
    integrator error.  One residual per state (N, 2n); raises
    TruncatedTrajectoryError if any orbit stops short of T.
    """
    S = _states(m, states)
    traj = _whole(integrate_geodesic(m, S, T, integrand=field))
    end = traj.y_end
    n = m.dim
    boundary = (pairing(field, m, end[:, :n], end[:, n:2 * n])
                - pairing(field, m, S[:, :n], S[:, n:]))
    return np.abs(end[:, -1] - boundary)


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


def proxy_distance(m: ChartedManifold, Y: np.ndarray, S0: np.ndarray) -> np.ndarray:
    """Bundle-distance gauge between flow states Y (..., >= 2n) and
    reference states S0 (..., 2n) that broadcast against Y's leading axes.

    sqrt(position^2 + angle^2) with the position part the wrapped
    chart-Euclidean distance and the angle between chart velocity vectors.
    This is only a topology-compatible gauge for return detection, not the
    bundle metric distance.
    """
    n = m.dim
    Y = np.atleast_2d(Y)
    S0 = np.asarray(S0)
    x0, v0 = S0[..., :n], S0[..., n:2 * n]
    dx = _wrap_diffs(Y[..., :n] - x0, m.periods)
    pos = np.linalg.norm(dx, axis=-1)
    V = Y[..., n:2 * n]
    nv = np.linalg.norm(V, axis=-1) * np.maximum(1e-300, np.linalg.norm(v0, axis=-1))
    cosang = np.clip(np.sum(V * v0, axis=-1) / np.maximum(nv, 1e-300), -1.0, 1.0)
    return np.sqrt(pos ** 2 + np.arccos(cosang) ** 2)


def _return_hits(traj, t0, hi, k, t_min, eps, S0) -> dict:
    """{row: (t, gauge)} at the first point at or after t_min of each orbit's
    return grid (k points over [t0, hi]) whose gauge is within eps, read from
    the continuous extension RETURN_WINDOW points at a time."""
    step = (hi - t0) / (k - 1)
    hits = {}
    rows, start = np.arange(len(k)), 0
    while rows.size:
        J = start + np.arange(RETURN_WINDOW)
        last = k[rows, None] - 1
        ts = np.where(J < last, t0 + J * step[rows, None], hi[rows, None])
        ds = proxy_distance(traj.manifold, traj._extend(rows, ts), S0[rows, None])
        hit = (J <= last) & (ts >= t_min) & (ds <= eps)
        found = hit.any(axis=1)
        for r in np.flatnonzero(found):
            j = int(np.argmax(hit[r]))
            hits[int(rows[r])] = (float(ts[r, j]), float(ds[r, j]))
        start += RETURN_WINDOW
        rows = rows[~found & (start < k[rows])]
    return hits


def first_return(m: ChartedManifold, states, eps: float = 0.05,
                 t_min: float = 1.0, t_max: float = 1000.0):
    """Earliest t in [t_min, t_max] at which each orbit re-enters the eps
    ball around its initial state, in the proxy bundle gauge; one
    FirstReturnResult per state (N, 2n).

    The undecided orbits are integrated together in chunks of RETURN_CHUNK
    and the gauge is read from the continuous extension on a grid of step
    min(eps / 4, 0.05); the event is the first grid point at or after t_min
    within eps, with its gauge as ``distance`` (no refinement).  On
    manifolds with ``radius_escape_certificate`` an orbit's search stops
    early once monotone radial escape makes any later return impossible;
    absence of a return is then conclusive.
    """
    if eps <= 0 or not (0 <= t_min < t_max):
        raise ValueError("need eps > 0 and 0 <= t_min < t_max")
    S0 = _states(m, states)
    N, n = len(S0), m.dim
    grid_step = min(eps / 4.0, 0.05)
    use_cert = m.radius_escape_certificate and m.radius is not None
    if use_cert:
        r0 = np.asarray(m.radius(S0[:, :n]), dtype=float)
        prev_r = r0.copy()
    results: list = [None] * N
    live = np.arange(N)
    cur = S0
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
        reached = traj.t_end
        hi = np.minimum(reached, t1)
        k = np.maximum(2, np.ceil((hi - t0) / grid_step).astype(np.int64) + 1)
        events = _return_hits(traj, t0, hi, k, t_min, eps, S0[live])
        cont = []
        for r, orbit in enumerate(live):
            reason = traj.reasons[r]
            if r in events:
                results[orbit] = FirstReturnResult(
                    event=ReturnEvent(*events[r], epsilon=eps),
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
        cur = traj.y_end[cont, :2 * n]
        live = live[cont]
        t0 = t1
    return results
