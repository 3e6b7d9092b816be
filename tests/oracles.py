"""Oracles and state constructors that only the tests use.

States are the package's (N, 2n) arrays: positions in columns :n,
velocities in columns n:2n.
"""

import numpy as np

from divflow.flow import _whole, integrate_geodesic
from divflow.geometry import _quadratic, field_norm, metric_at, pairing_rate_form

UNIT_SPEED_TOL = 1e-10


def unit_states(m, x, v, normalize: bool = False) -> np.ndarray:
    """States (N, 2n) from positions and velocities of shape (n,) or
    (N, n), enforcing g(v, v) = 1 within UNIT_SPEED_TOL.

    With ``normalize=True`` each velocity is rescaled to unit g-norm first.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    speed2 = (v[:, None, :] @ metric_at(m, x) @ v[:, :, None])[:, 0, 0]
    if normalize:
        if np.any(speed2 <= 0):
            raise ValueError("cannot normalize a null velocity")
        v = v / np.sqrt(speed2)[:, None]
        speed2 = np.ones(len(v))
    if np.any(np.abs(speed2 - 1.0) > UNIT_SPEED_TOL):
        raise ValueError(
            f"velocity is not unit: g(v,v) = {speed2!r} (tol {UNIT_SPEED_TOL})")
    return np.hstack([x, v])


def state_at(traj, t) -> np.ndarray:
    """Positions and velocities of every orbit of ``traj`` at time t, from
    the continuous extension: (N, 2n) for a scalar t."""
    return traj.y_at(t)[..., :2 * traj.dim]


def pairing_rates(field, m, x, V) -> np.ndarray:
    """Pairing rates g(nabla_v X, v) = v @ Q(x) @ v of directions V (N, k, n)
    at points x (N, n), shape (N, k): the derivative of the pairing along
    the geodesic flow, and the bundle integrand F(x, V) of the fiber lemma.

    The rate vanishes for Killing fields and equals the conformal factor on
    unit vectors for conformal fields; its fiber average over unit
    directions is (omega_{n-1} / n) * div X.
    """
    return _quadratic(pairing_rate_form(field, m, x), V)


def endpoint_bound_check(field, m, states, s: float):
    """Both sides of the two-sided orbit-integral bound, per orbit of the
    states (N, 2n).

    lhs = |integral over [-s, s] of the pairing rate|; rhs = |X| at the two
    orbit endpoints.  The lhs telescopes to a pairing difference, and each
    pairing is at most the field norm on unit vectors, so lhs <= rhs up to
    integration error.  Both legs run in one stack.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    N = len(states)
    both = np.vstack([states, states])
    traj = _whole(integrate_geodesic(m, both, np.repeat([s, -s], N), integrand=field))
    end = traj.y_end
    n = m.dim
    # the backward leg carries the integral from 0 down to -s: minus the
    # integral over [-s, 0]
    lhs = np.abs(end[:N, -1] - end[N:, -1])
    rhs = field_norm(field, m, end[:N, :n]) + field_norm(field, m, end[N:, :n])
    return lhs, rhs
