"""Numerical checks of divergence identities on non-compact Riemannian
manifolds, driven by the geodesic flow on the unit tangent bundle."""

__version__ = "0.1.0"

# bound here only for perfbench/test_perfbench.py::test_tracer_patches_every_binding_and_restores
from .geometry import metric_at  # noqa: E402,F401
