"""qslkit: minimum gate times in SU(N) under positive-homogeneous constraints.

A resource constraint on a time-dependent Hamiltonian is a degree-1
positive-homogeneous function F on the traceless anti-Hermitian matrices,
imposed as F(-1j*H_t) = kappa.  This package computes the resulting minimum
implementation times for special unitary gates, classifies the constraints
for which constant Hamiltonians are always time optimal (the conjugation
invariant ones), and checks the per-gate geodesic condition when they are
not.
"""

from .constraints import (
    Constraint,
    EnergyStats,
    EnergyUncertainty,
    GeometricMean,
    GroundShiftedMoment,
    Max,
    Min,
    PowerMean,
    Randers,
    Schatten,
    SpectralRange,
    Sum,
    basis_state,
    check_homogeneity,
    energy_stats,
    evaluate,
)
from .errors import (
    ConfigError,
    DegenerateBranchTieError,
    DimensionMismatchError,
    IdentityGateError,
    InvalidParameterError,
    InvariantViolationError,
    NoConvergenceError,
    NotNormalError,
    OptimizerDidNotConvergeError,
    QslError,
    StepUnderflowError,
    TooFewSamplesError,
)
from .gates import identity, orthogonalizer, parse_gate_spec, qft
from .gatetime import (
    SpeedLimitResult,
    Trajectory,
    action,
    analytic_bounds,
    conj_min_time,
    gate_time,
)
from .geometry import (
    GeodesicReport,
    InvarianceReport,
    TensorProbe,
    check_ad_invariance,
    fundamental_tensor,
    fundamental_tensor_estimate,
    gate_geodesic_check,
    geodesic_vector_check,
    kink_margin,
    sample_generic_probe,
)
from .linalg import (
    LogBranch,
    SpectralDecomposition,
    basis_coords,
    commutator,
    eig_normal,
    expm,
    from_coords,
    haar_su,
    log_branches,
    principal_log,
    random_algebra_element,
    require_algebra_element,
    require_special_unitary,
    su_basis,
)

__version__ = "0.1.0"
