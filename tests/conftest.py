import numpy as np
import pytest

from divflow import zoo
from divflow.flow import integrate_geodesic


@pytest.fixture(scope="session")
def torus():
    return zoo.manifold("torus")


@pytest.fixture(scope="session")
def revolution():
    return zoo.manifold("revolution:1/(1+x^2)")


@pytest.fixture(scope="session")
def hyperbolic():
    return zoo.manifold("hyperbolic")


@pytest.fixture(scope="session")
def ex2():
    return zoo.manifold("warp:ex2")


@pytest.fixture(scope="session")
def ex3():
    return zoo.manifold("warp:ex3")


@pytest.fixture(scope="session")
def ex4():
    return zoo.manifold("warp:ex4")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _radius_stretch_constant(m, states, T=30.0, r_floor=2.0, n_checkpoints=60):
    """Empirical bound C with travel time <= C * surrogate radius, measured
    on the outbound legs of shot orbits.

    Only checkpoints while the surrogate radius is still increasing count:
    the elapsed time is then a distance witness for the reached point.
    Orbits trapped below ``r_floor`` contribute nothing.  Conservative by
    construction; it calibrates annulus estimates that only need
    d <= C r + const.
    """
    traj = integrate_geodesic(m, states, T)
    n = m.dim
    r0 = np.asarray(m.radius(states[:, :n]), dtype=float)
    first = T / n_checkpoints
    ts = first + (np.minimum(T, traj.t_end) - first)[:, None] * np.linspace(0.0, 1.0, n_checkpoints)
    r = np.asarray(m.radius(traj.y_at(ts)[..., :n]), dtype=float)
    # checkpoints before the first turning point, where the outbound leg ends
    outbound = np.cumprod(np.diff(np.hstack([r0[:, None], r]), axis=1) > 0, axis=1) > 0
    use = outbound & (r >= r_floor)
    worst = np.where(use, (ts + r0[:, None]) / np.where(use, r, 1.0), 1.0)
    return float(max(1.0, worst.max()))


@pytest.fixture(scope="session")
def radius_stretch_constant():
    """The stretch-constant oracle of the annulus-decay tests."""
    return _radius_stretch_constant
