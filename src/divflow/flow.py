"""Geodesic-flow integration, line integrals along orbits, and return-time
probes.

One DOP853 stepper (the Dormand-Prince 8(5,3) pair of Hairer, Norsett &
Wanner, *Solving ODEs I*, II.5, as in Hairer's dop853 code) advances a stack
of N orbits as one (N, 2n + q) array: chart position, chart velocity and
q = 0 or 1 line integral carried as an extra component, forward over one
span [t_start, t_final] for the whole stack: the flow is reversible, so a
backward orbit is the forward orbit of the flipped velocity.  Each orbit keeps
its own step size, its own accept/reject decisions and its own truncation
reason.  Every weighted stage sum is formed per element in one order, so an
orbit's result does not depend on the stack it rides in, bit for bit; one
orbit is a stack of one.  No slope reads the carried column, so a step's
twelve stages run on the geodesic spray alone, which forms Gamma(v, v) and
nothing else, and the carried column's slopes of stages 5 to 12 follow in
one call on the stack of those eight stage states: the carried integrand
h(x, v) is called there only (for the pairing identity, h is
``geometry.pairing_rate`` of a field).  The first four stages
have weight zero in the solution, the error estimates and the extension.
The stages of a step run on the whole stack under one guard: only if an
evaluation raises are they redone row by row, each row a stack of one, so
a step that fails nowhere makes one ``connection`` call per stage and one
call of h.
The step control is the standard one (HNW II.4) at RTOL/ATOL over every
column, the carried integral included: the 5(3) error norm, safety factor
0.9, step factors within [0.2, 10], exponent -1/8 and no growth on a step
that was just rejected.  An orbit is read between its nodes through the
seventh-degree continuous extension (HNW II.6), whose three extra stages
are formed on the first such read, for every step of the trajectory at
once: ``first_return`` scans its return grid on it, reading the position
columns first and the full state only where the gauge can be within eps,
and ``diagnostics.hopf_probe`` reads the carried integral at its horizons,
while the path kinds read end states only and never form it.

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

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    VectorFieldDef,
    pairing,
    pairing_rate,
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
    "return_grid_step",
]

RTOL = 1e-10
ATOL = 1e-12
MAX_STEPS = 100_000
# |g(v, v) - 1| past which an orbit is truncated: ten times the drift the
# tests allow an orbit that stays in its chart (1e-7), and about 1,600 times
# the largest drift of a suite orbit (6.1e-10 at seeds 0 to 2).  Past r = 25
# on the hyperboloid graph chart the spray carries round-off of about
# |x|^2 eps^2 that RTOL no longer sees, so a runaway orbit's drift grows from
# there and passes this bound near r = 29.4; a bound of 1e-4 is reached only
# after about ten times the steps, ground out at r = 29 to 30.
MAX_SPEED_DRIFT = 1e-6
RETURN_CHUNK = 100.0     # time span first_return integrates at once
RETURN_WINDOW = 256      # return-grid points per orbit scanned at once
# the most return-grid steps first_return scans per orbit, t_max over the
# grid step: one torus orbit that returns only near t_max = 1000 at this
# budget (eps 4e-4) took 6.6 s on a 2-core Xeon, where the suite's eps 0.05
# over t_max 1000 scans 80,000 steps
MAX_RETURN_POINTS = 10_000_000

# DOP853 (Hairer's dop853 code).  A is the stage matrix of the twelve stages
# of a step (rows 1 to 11), of the stage at the new state (row 12, the
# eighth-order weights B; it is the next step's first stage) and of the
# continuous extension's three extra stages (rows 13 to 15); the system is
# autonomous, so the stage nodes are not needed.  E5 and E3 are the
# fifth- and third-order error weights over the thirteen stages of a step,
# and D the extension's weights over all sixteen (HNW II.6).  Stages 1 to 4
# have weight zero in B, E5, E3, D and the extra rows.
A = np.zeros((16, 16))
A[1, :1] = [5.26001519587677318785587544488e-2]
A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2, -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]
B = A[12, :12]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [2.44094488188976377952755905512e-1, 7.33846688281611857341361741547e-1,
                   2.20588235294117647058823529412e-2]
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    1.312004499419488073250102996e-2, -1.225156446376204440720569753,
    -4.957589496572501915214079952e-1, 1.664377182454986536961530415,
    -3.503288487499736816886487290e-1, 3.341791187130174790297318841e-1,
    8.192320648511571246570742613e-2, -2.235530786388629525884427845e-2]
E53 = np.stack([E5, E3])
D = np.zeros((4, 16))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-8.4289382761090128651353491142, 5.6671495351937776962531783590e-1,
     -3.0689499459498916912797304727, 2.3846676565120698287728149680,
     2.1170345824450282767155149946, -8.7139158377797299206789907490e-1,
     2.2404374302607882758541771650, 6.3157877876946881815570249290e-1,
     -8.8990336451333310820698117400e-2, 1.8148505520854727256656404962e1,
     -9.1946323924783554000451984436, -4.4360363875948939664310572000],
    [1.0427508642579134603413151009e1, 2.4228349177525818288430175319e2,
     1.6520045171727028198505394887e2, -3.7454675472269020279518312152e2,
     -2.2113666853125306036270938578e1, 7.7334326684722638389603898808,
     -3.0674084731089398182061213626e1, -9.3321305264302278729567221706,
     1.5697238121770843886131091075e1, -3.1139403219565177677282850411e1,
     -9.3529243588444783865713862664, 3.5816841486394083752465898540e1],
    [1.9985053242002433820987653617e1, -3.8703730874935176555105901742e2,
     -1.8917813819516756882830838328e2, 5.2780815920542364900561016686e2,
     -1.1573902539959630126141871134e1, 6.8812326946963000169666922661,
     -1.0006050966910838403183860980, 7.7771377980534432092869265740e-1,
     -2.7782057523535084065932004339, -6.0196695231264120758267380846e1,
     8.4320405506677161018159903784e1, 1.1992291136182789328035130030e1],
    [-2.5693933462703749003312586129e1, -1.5418974869023643374053993627e2,
     -2.3152937917604549567536039109e2, 3.5763911791061412378285349910e2,
     9.3405324183624310003907691704e1, -3.7458323136451633156875139351e1,
     1.0409964950896230045147246184e2, 2.9840293426660503123344363579e1,
     -4.3533456590011143754432175058e1, 9.6324553959188282948394950600e1,
     -3.9177261675615439165231486172e1, -1.4972683625798562581422125276e2]]
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0


class TruncatedTrajectoryError(RuntimeError):
    """An orbit computation needed a time range the integrator could not reach."""


@dataclass
class StepStats:
    """Work of one integration, summed over its orbits.  The rejected-step
    count is exact; its name is kept for the readers of these counters."""

    n_accepted: int
    n_rejected_est: int
    nfev: int


def _wsum(w: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum_j w[j] K[j] over the leading len(w) slabs of a stage stack K
    (stages, M, d).  einsum forms each element in one order whatever M is,
    where a flattened matrix product rounds by the stack's height."""
    return np.einsum("j,j...->...", w, K[:len(w)])


class GeodesicTrajectory:
    """The orbits of one stacked integration, with their continuous extension.

    Every orbit ran forward from the stack's ``t_start`` toward ``t_final``
    and stopped at ``t_end``, its last accepted node.  ``reasons[i]`` is None
    for an orbit that got there, else one of six (see the module docstring):
    "left_domain", "speed_drift", "step_limit", "step_underflow",
    "rhs_failure" or "monitor".  Segment k of an orbit, the continuous
    extension of its step from node k, starts at node k; the last node's
    segment is empty.  The extension's three extra stages are formed for
    every segment at once on the first read between nodes (``y_at``): one
    spray call per stage, forming Gamma(v, v) alone, then one call of the
    carried integrand h(x, v) on the three stages' states of every segment.
    A read in a segment whose extra stage raised is a
    TruncatedTrajectoryError naming "rhs_failure".  Over the whole stack:

      truncated          the number of truncated orbits
      stats              accepted and rejected steps and right-hand-side
                         evaluations of the stepping, summed over the orbits
                         (per orbit in ``n_accepted``, ``n_rejected`` and
                         ``nfev``): two to start and twelve stage states per
                         attempt, however their carried slopes are stacked;
                         the extension's three evaluations per segment are
                         not counted
      max_speed_drift    the largest |g(v, v) - 1| over the accepted nodes of
                         every orbit

    ``speed_drift`` is |g(v, v) - 1| at each node (the initial speed is unit
    by construction), read through the manifold's ``inner``.  Per-orbit
    values (``t_end``, ``y_end``, ``y_at``, and the node lists ``states``
    and ``speed_drift``) carry a leading orbit axis, for a stack of one
    orbit too.
    """

    def __init__(self, m: ChartedManifold, stages: Callable, t_start: float,
                 node_t, node_y, node_drift, seg_h, seg_K, n_nodes,
                 reasons, n_accepted, n_rejected, nfev):
        self.manifold = m
        self.n_orbits = len(reasons)
        self._stages = stages
        self._t_start = t_start
        self._node_t = node_t
        self._node_y = node_y
        self._node_drift = node_drift
        self._seg_h = seg_h
        self._seg_K = seg_K
        self._seg_F: Optional[np.ndarray] = None
        self._seg_failed: Optional[np.ndarray] = None
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
    def truncated(self) -> int:
        return sum(r is not None for r in self.reasons)

    @property
    def states(self) -> list:
        return self._split(self._node_y[:, :2 * self.manifold.dim])

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

    def _dense(self) -> np.ndarray:
        """The interpolant coefficients F (7, S, d) of every segment, formed
        on the first call: the extension's three extra stages for the
        segments of all orbits together (``stages``), then F as in dop853's
        dense output.  An empty segment's F is zero; a segment whose extra
        stage raised is marked failed."""
        if self._seg_F is None:
            K, S = self._seg_K, len(self._seg_h)
            step = np.ones(S, dtype=bool)
            step[self._node_off[1:] - 1] = False
            seg = np.flatnonzero(step)
            Kx = np.concatenate([K[:, seg], np.empty((3, len(seg), K.shape[2]))])
            h = self._seg_h[seg][:, None]
            y0 = self._node_y[seg]
            failed = self._stages(Kx, y0, h[:, 0], range(13, 16))
            dy = self._node_y[seg + 1] - y0
            F = np.zeros((7, S, K.shape[2]))
            F[0, seg] = dy
            F[1, seg] = h * Kx[0] - dy
            F[2, seg] = 2 * dy - h * (Kx[12] + Kx[0])
            for i in range(4):
                F[3 + i, seg] = h * _wsum(D[i], Kx)
            self._seg_failed = np.zeros(S, dtype=bool)
            self._seg_failed[seg[failed]] = True
            self._seg_F, self._seg_K = F, None
        return self._seg_F

    def _nodes(self, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The node (R, k) of each orbit ``rows`` whose step holds each time
        t (R, k): np.searchsorted(node_t[a + 1:b], t) on the orbit's step
        ends, as one bisection over every row."""
        a = self._node_off[rows][:, None]
        n_ends = self._node_off[rows + 1][:, None] - a - 1
        lo = np.zeros(t.shape, dtype=np.intp)
        hi = np.broadcast_to(n_ends, t.shape)
        last = len(self._node_t) - 1
        for _ in range(int(n_ends.max(initial=0)).bit_length()):
            mid = (lo + hi) // 2
            below = self._node_t[np.minimum(a + 1 + mid, last)] < t
            open_ = lo < hi
            lo, hi = (np.where(open_ & below, mid + 1, lo),
                      np.where(open_ & ~below, mid, hi))
        return a + np.minimum(lo, np.maximum(n_ends - 1, 0))

    def _extend(self, rows: np.ndarray, t: np.ndarray, cols=slice(None)) -> np.ndarray:
        """Columns ``cols`` of the states (R, k, d) of orbits ``rows`` at
        times t (R, k), from the continuous extension of the step that holds
        each time.  Each coefficient of F (7, S, d) is gathered for those
        columns alone, one coefficient at a time; a column's value does not
        depend on which others are read."""
        rows = np.asarray(rows)
        hi = self.t_end[rows][:, None]
        out = (t < self._t_start - 1e-12) | (t > hi + 1e-12)
        if out.any():
            r = int(np.argmax(out.any(axis=1)))
            reason = self.reasons[rows[r]]
            raise TruncatedTrajectoryError(
                f"time {t[r][out[r]][0]} outside reached span [{self._t_start}, {hi[r, 0]}]"
                + (f" (truncated: {reason})" if reason is not None else ""))
        node = self._nodes(rows, t)
        F = self._dense()
        failed = self._seg_failed[node]
        if failed.any():
            raise TruncatedTrajectoryError(
                f"continuous extension at time {t[failed][0]} failed (rhs_failure)")
        x = ((t - self._node_t[node]) / self._seg_h[node])[..., None]
        x1 = 1 - x
        # dop853's nested form x (F0 + (1 - x)(F1 + x (F2 + ... + x F6)))
        y = F[6][node, cols] * x
        for j in range(5, -1, -1):
            y = (y + F[j][node, cols]) * (x if j % 2 == 0 else x1)
        return self._node_y[node, cols] + y

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


def _geodesic_rhs(m: ChartedManifold, integrand) -> tuple[Callable, Callable]:
    """The right-hand side on stacks of states (M, 2n + q), in the two forms
    the stepper calls.  The position and velocity columns have the slope
    (v, -Gamma(v, v)), the spray, and the carried column, if any, the
    integrand h(x, v).  No slope reads the carried column, so a run of
    stages is formed on the spray alone, and the carried slopes of the
    stages that need them after it, in one call of h on their (stages * M)
    rows.  A stage's spray forms Gamma(v, v) alone, from one call of the
    manifold's ``connection``.  Each form runs on the whole stack under one
    guard (``_evaluate``): only if an evaluation raises is the stack redone
    row by row.

      slope(Y)             the whole slope (M, 2n + q) of states Y, and the
                           rows on which it failed
      stages(K, y, h, run) K[s] for each stage s of the range ``run`` of
                           rows of A, in turn, from the state
                           y + h sum_j A[s, j] K[j], and the carried slopes
                           of those past the fourth in one stacked call;
                           returns the rows on which an evaluation failed,
                           whose stages of the run are zero.
                           The carried slopes of the first four stay 0:
                           their weights in B, E5, E3 and D are zero
    """
    n = m.dim
    d = 2 * n + (integrand is not None)
    weights = [A[s, :s] for s in range(len(A))]

    def slope(Y):
        F = np.zeros_like(Y)

        def fill(rows):
            X, V = Y[rows, :n], Y[rows, n:2 * n]
            F[rows, :n] = V
            np.negative(m.connection(X, V, V), out=F[rows, n:2 * n])
            if integrand is not None:
                F[rows, 2 * n] = integrand(X, V)
        return F, _evaluate(fill, F)

    def stages(K, y, h, run):
        # the stage states read the carried slopes of the run before they
        # are formed; no slope reads that column
        K[run.start:run.stop, :, 2 * n:] = 0.0
        rated = range(max(run.start, 5), run.stop) if integrand is not None else range(0)

        def fill(rows):
            Kr, yr, hr = K[:, rows], y[rows], h[rows, None]
            M = len(yr)
            # the rated stages' states are formed in place in their rate
            # rows, M rows per stage, stored by column: each component the
            # rate reads is then one contiguous run, where rows stored by
            # state would read it at a stride of a whole row, past the cache
            # on a large stack
            Z = np.empty((d, len(rated) * M)).T
            for s in run:
                step = hr * np.einsum("j,j...->...", weights[s], Kr[:s])
                if s in rated:
                    Ys = np.add(yr, step, out=Z[(s - rated.start) * M:(s - rated.start + 1) * M])
                else:
                    Ys = yr + step
                X, V = Ys[:, :n], Ys[:, n:2 * n]
                Kr[s, :, :n] = V
                np.negative(m.connection(X, V, V), out=Kr[s, :, n:2 * n])
            if rated:
                r = np.empty(len(Z))
                r[:] = integrand(Z[:, :n], Z[:, n:2 * n])
                Kr[rated.start:rated.stop, :, 2 * n] = r.reshape(len(rated), M)
        return _evaluate(fill, K[run.start:run.stop].swapaxes(0, 1))
    return slope, stages


def _evaluate(fill: Callable, out: np.ndarray) -> np.ndarray:
    """fill(rows) on every row of a stack at once (rows = slice(None)),
    writing its results into the rows of ``out`` (leading axis the stack's);
    returns the rows on which it raised.  Only if it raises is each row
    redone alone, fill(slice(i, i + 1)) as a stack of one, with zeros in
    ``out`` for the rows that raise again, so one failing orbit does not
    stop the others."""
    bad = np.zeros(len(out), dtype=bool)
    try:
        fill(slice(None))
    except (DomainError, MetricError):
        for i in range(len(out)):
            try:
                fill(slice(i, i + 1))
            except (DomainError, MetricError):
                bad[i] = True
                out[i] = 0.0
    return bad


def _drift(m: ChartedManifold, Y: np.ndarray) -> np.ndarray:
    """|g(v, v) - 1| per row, through the manifold's ``inner``."""
    n = m.dim
    V = Y[:, n:2 * n]
    return np.abs(m.inner(Y[:, :n], V, V) - 1.0)


def _initial_step(slope, Y, F, t_span):
    """The standard starting step (HNW II.4) per row over every column, and
    the rows where its trial slope failed."""
    scale = ATOL + np.abs(Y) * RTOL
    d0 = _rms(Y / scale)
    d1 = _rms(F / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_span)
        F1, bad = slope(Y + h0[:, None] * F)
        d2 = _rms((F1 - F) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** -ERROR_EXPONENT)
    return np.minimum(np.minimum(100 * h0, h1), t_span), bad


def _error_norm(K: np.ndarray, h: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """dop853's error norm per row, the fifth-order estimate damped by the
    third-order one: h e5 / sqrt(d (e5 + e3 / 100)), where e5 and e3 are
    the squared norms of E5 @ K / scale and E3 @ K / scale; 0 where both
    vanish, NaN where a stage overflowed."""
    e5, e3 = np.square(np.einsum("ej,j...->e...", E53, K) / scale).sum(axis=2)
    denom = e5 + 0.01 * e3
    with np.errstate(divide="ignore", invalid="ignore"):
        err = h * e5 / np.sqrt(denom * scale.shape[1])
    return np.where(denom == 0.0, 0.0, err)


def _dop853(m: ChartedManifold, Y0: np.ndarray, t0: float, t_final: float,
            integrand, monitor) -> GeodesicTrajectory:
    N, d = Y0.shape
    n = m.dim
    slope, stages = _geodesic_rhs(m, integrand)
    reasons: list = [None] * N
    n_acc = np.zeros(N, dtype=np.int64)
    n_rej = np.zeros(N, dtype=np.int64)
    nfev = np.full(N, 2, dtype=np.int64)
    # node and segment records, one array per stacked step, in step order
    node_i, node_t, node_y = [np.arange(N)], [np.full(N, t0)], [Y0]
    node_drift = [_drift(m, Y0)]
    seg_h, seg_K = [], []

    F, bad = slope(Y0)
    h_abs, bad1 = _initial_step(slope, Y0, F, t_final - t0)
    for i in np.flatnonzero(bad | bad1):
        reasons[i] = "rhs_failure"
    floor = max(1e-13, 1e-9 * (t_final - t0))
    # the rows still stepping: orbit id, time, state, slope, step size and
    # whether the current step has had a rejection
    live = np.flatnonzero(~(bad | bad1))
    rows = (live, np.full(live.size, t0), Y0[live], F[live], h_abs[live],
            np.zeros(live.size, dtype=bool))

    while rows[0].size:
        ids, t, y, f, h_abs, rejected = rows
        M = ids.size
        t_new = t + h_abs
        # a forced step is cut short to end exactly at t_final
        forced = t_new >= t_final
        t_new = np.where(forced, t_final, t_new)
        h = h_abs = t_new - t
        # before each attempt: the step budget, and one floor for a step
        # t_final does not cut short, the larger of the span floor and ten
        # ulps of t
        limit = n_acc[ids] >= MAX_STEPS
        ulps = 10 * (np.nextafter(t, np.inf) - t)
        stop = limit | (~forced & (h_abs < np.maximum(floor, ulps)))
        if stop.any():
            for r in np.flatnonzero(stop):
                reasons[ids[r]] = "step_limit" if limit[r] else "step_underflow"
            rows = tuple(a[~stop] for a in rows)
            continue

        # the thirteen stages, one (M, d) slab each; the last is the slope
        # at the new state (B is row 12 of A)
        K = np.empty((13, M, d))
        K[0] = f
        bad = stages(K, y, h, range(1, 13))
        y_new = y + h[:, None] * _wsum(B, K)
        nfev[ids] += 12

        scale = ATOL + np.maximum(np.abs(y), np.abs(y_new)) * RTOL
        err = _error_norm(K, h, scale)
        # a zero error norm grows the step by MAX_FACTOR; a NaN one (fmax)
        # shrinks it by MIN_FACTOR
        factor = SAFETY * np.maximum(err, 1e-300) ** ERROR_EXPONENT
        accept = (err < 1) & ~bad
        grow = np.minimum(np.where(rejected, 1.0, MAX_FACTOR), factor)
        h_abs = h_abs * np.where(accept, grow, np.fmax(MIN_FACTOR, factor))
        n_acc[ids[accept]] += 1
        n_rej[ids[~accept & ~bad]] += 1
        keep = ~bad
        if bad.any():
            for r in np.flatnonzero(bad):
                reasons[ids[r]] = "rhs_failure"

        acc = np.flatnonzero(accept)
        if acc.size:
            sel = slice(None) if acc.size == M else acc
            ia, ya, ta = ids[sel], y_new[sel], t_new[sel]
            seg_h.append(h[sel])
            seg_K.append(K[:, sel])
            node_i.append(ia)
            node_t.append(ta)
            node_y.append(ya)
            t[sel], y[sel], f[sel] = ta, ya, K[12][sel]

            # after-step checks, in order: domain, drift, monitor
            out = ~np.asarray(m.domain(ya[:, :n])) | ~np.isfinite(ya).all(axis=1)
            if out.any():
                drift = np.full(acc.size, np.nan)
                drift[~out] = _drift(m, ya[~out])
            else:
                drift = _drift(m, ya)
            node_drift.append(drift)
            over = drift > MAX_SPEED_DRIFT
            stopped = out | over
            watched = np.zeros(acc.size, dtype=bool)
            if monitor is not None and not stopped.all():
                go = np.flatnonzero(~stopped)
                watched[go] = monitor(ia[go], ya[go])
            ended = stopped | watched | forced[sel]
            if ended.any():
                for r in np.flatnonzero(ended):
                    reasons[ia[r]] = ("left_domain" if out[r] else
                                      "speed_drift" if over[r] else
                                      "monitor" if watched[r] else None)
                    keep[acc[r]] = False
        rows = (ids, t, y, f, h_abs, ~accept)
        if not keep.all():
            rows = tuple(a[keep] for a in rows)

    # an empty segment ends each orbit, so segment k starts at node k
    seg_h.append(np.ones(N))
    seg_K.append(np.zeros((13, N, d)))
    order = np.argsort(np.concatenate(node_i), kind="stable")
    seg_order = np.argsort(np.concatenate(node_i[1:] + [np.arange(N)]), kind="stable")
    return GeodesicTrajectory(
        m, stages, t0,
        np.concatenate(node_t)[order], np.concatenate(node_y)[order],
        np.concatenate(node_drift)[order], np.concatenate(seg_h)[seg_order],
        np.concatenate(seg_K, axis=1)[:, seg_order],
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
                       integrand: Optional[Callable] = None) -> GeodesicTrajectory:
    """Integrate the geodesic system x'' + Gamma(x)(x', x') = 0 for a stack
    of states (N, 2n) forward over one span from ``t_start`` to ``t_final``,
    finite scalars with t_start < t_final (anything else is a ValueError),
    with DOP853 at RTOL and ATOL on every state column.

    An orbit is truncated (flagged, not raised) for one of six reasons:
    "step_limit" after MAX_STEPS accepted steps; "step_underflow" when a step
    that ``t_final`` does not cut short is below the one floor, the larger of
    1e-9 of the span and ten ulps of t; "rhs_failure" when the right-hand
    side raises; "left_domain"; "speed_drift" past MAX_SPEED_DRIFT; or
    "monitor": ``monitor(orbits, y)`` runs on the orbits (indices into the
    stack) and states of each stacked step's accepted rows, and a true entry
    stops that orbit.  ``integrand`` h(x, v), a callable on stacks x, v
    (M, n) such as ``partial(geometry.pairing_rate, field, m)``, is carried
    as an extra state component from 0 at ``t_start``; anything else but
    None is a TypeError before any step.  It sits in the error norm like
    the state, so it shapes the steps.  Steps end where the
    controller puts them (the last one is cut to ``t_final``); read the
    orbits at other times through ``y_at``, whose first call forms the
    continuous extension.
    ``stats.nfev`` counts the stepping's evaluations only.
    """
    if integrand is not None and not callable(integrand):
        raise TypeError(f"integrand must be a callable h(x, v) or None, "
                        f"not {type(integrand).__name__}")
    S = _states(m, states)
    if np.ndim(t_start) or np.ndim(t_final) or not -np.inf < t_start < t_final < np.inf:
        raise ValueError(f"need one finite forward span, not [{t_start}, {t_final}]")
    Y0 = np.hstack([S] + ([np.zeros((len(S), 1))] if integrand is not None else []))
    return _dop853(m, Y0, float(t_start), float(t_final), integrand, monitor)


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
    [0, T], T > 0, carried through the integration, as (N,); h takes stacks
    x, v (M, n) and returns M values (or one for all)."""
    return _whole(integrate_geodesic(m, states, T, integrand=h)).y_end[:, -1]


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
    traj = _whole(integrate_geodesic(m, S, T, integrand=partial(pairing_rate, field, m)))
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
    S0 = np.asarray(S0)
    x0, v0 = S0[..., :n], S0[..., n:2 * n]
    dx = _wrap_diffs(Y[..., :n] - x0, m.periods)
    pos = np.linalg.norm(dx, axis=-1)
    V = Y[..., n:2 * n]
    nv = np.linalg.norm(V, axis=-1) * np.maximum(1e-300, np.linalg.norm(v0, axis=-1))
    cosang = np.clip(np.sum(V * v0, axis=-1) / np.maximum(nv, 1e-300), -1.0, 1.0)
    return np.sqrt(pos ** 2 + np.arccos(cosang) ** 2)


def return_grid_step(eps: float, t_max: float) -> float:
    """The step of first_return's return grid, min(eps / 4, 0.05); a
    ValueError when [0, t_max] holds more than MAX_RETURN_POINTS such steps
    (or eps / 4 underflows to 0)."""
    step = min(eps / 4.0, 0.05)
    if not t_max <= MAX_RETURN_POINTS * step:
        raise ValueError(
            f"eps {eps!r} and t_max {t_max!r} need a return grid of step {step!r}, "
            f"past the budget of {MAX_RETURN_POINTS} steps per orbit: "
            f"raise eps or lower t_max")
    return step


def _return_hits(traj, t0, hi, k, t_min, eps, S0) -> dict:
    """{row: (t, gauge)} at the first point at or after t_min of each orbit's
    return grid (k points over [t0, hi]) whose gauge is within eps, read from
    the continuous extension RETURN_WINDOW points at a time.  A window reads
    the n position columns alone.  The wrapped position distance p, formed
    as ``proxy_distance`` forms it, bounds the gauge from below in floating
    point too: sqrt(fl(p^2)) <= sqrt(fl(p^2 + angle^2)) by monotone
    rounding.  So the full state and its gauge are formed only at the points
    where sqrt(fl(p^2)) <= eps, with the bits a full read gives."""
    m = traj.manifold
    n = m.dim
    step = (hi - t0) / (k - 1)
    hits = {}
    rows, start = np.arange(len(k)), 0
    while rows.size:
        J = start + np.arange(RETURN_WINDOW)
        last = k[rows, None] - 1
        ts = np.where(J < last, t0 + J * step[rows, None], hi[rows, None])
        dx = _wrap_diffs(traj._extend(rows, ts, slice(0, n)) - S0[rows, None, :n], m.periods)
        near = (J <= last) & (ts >= t_min) & (np.sqrt(np.linalg.norm(dx, axis=-1) ** 2) <= eps)
        ds = np.full(ts.shape, np.inf)
        if near.any():
            r, j = np.nonzero(near)
            ds[r, j] = proxy_distance(m, traj._extend(rows[r], ts[r, j, None])[:, 0], S0[rows[r]])
        hit = ds <= eps
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
    min(eps / 4, 0.05) (``return_grid_step``: a ValueError past
    MAX_RETURN_POINTS steps over [0, t_max]); the event is the first grid
    point at or after t_min within eps, with its gauge as ``distance`` (no
    refinement).  The scan reads positions first and forms the gauge only
    where the position part alone is within eps.  On manifolds with
    ``radius_escape_certificate`` an orbit's search stops early once
    monotone radial escape makes any later return impossible; absence of a
    return is then conclusive.
    """
    if eps <= 0 or not (0 <= t_min < t_max):
        raise ValueError("need eps > 0 and 0 <= t_min < t_max")
    grid_step = return_grid_step(eps, t_max)
    S0 = _states(m, states)
    N, n = len(S0), m.dim
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
