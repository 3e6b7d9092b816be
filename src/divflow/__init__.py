"""Numerical checks of divergence identities on non-compact Riemannian
manifolds, driven by the geodesic flow on the unit tangent bundle."""

__version__ = "0.1.0"

from .geometry import (
    ChartedManifold,
    DomainError,
    MetricError,
    UnitTangentState,
    VectorFieldDef,
    christoffel,
    covariant_derivative,
    divergence,
    field_norm,
    metric_at,
    orthonormal_frame,
    pairing,
    pairing_rate,
    unit_state,
    volume_density,
)
from .integrals import (
    ChartBox,
    FiberRule,
    IntegralEstimate,
    RadialShell,
    base_integral,
    fiber_integral,
    fiber_rule,
    fubini_consistency,
    ladder_integral,
    omega,
    sample_liouville,
    sample_states,
    sm_integral,
    sm_ladder,
)
from .flow import (
    FirstReturnResult,
    GeodesicTrajectory,
    ReturnEvent,
    birkhoff_integral,
    endpoint_bound_check,
    first_return,
    integrate_geodesic,
    path_integral_identity_residual,
)
from .diagnostics import (
    AnnulusReport,
    CutoffReport,
    HopfProbe,
    RecurrenceStats,
    cutoff_estimate,
    hopf_probe,
    karp_sequence,
    rate_integrability_ladder,
    recurrence_fraction,
    x_decay_at_infinity,
)
from .potential import (
    PhiProfile,
    ScalarFieldDef,
    laplace_beltrami,
    mean_curvature_profile,
    monotone_form,
    p_laplace_profile,
    phi_flux_field,
    phi_laplacian,
    young_gap,
)
from . import zoo
