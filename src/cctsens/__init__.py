"""Critical clearing times and sensitivities for constrained dynamical systems."""

from .errors import (
    BracketCollapse,
    CctError,
    ConfigError,
    DegenerateGeometry,
    DimensionMismatch,
    EmptyCombinedBoundary,
    InconclusiveRun,
    ModeChangedAcrossStep,
    NoEquilibriumFound,
    NoFiniteCct,
    NumericalBlowup,
    OutOfRange,
    SingularJacobian,
    StiffnessFailure,
    TangentialIntersection,
    UnsupportedMode,
)
from .model import (
    ConstrainedSystem,
    Constraint,
    EquilibriumClass,
    EquilibriumResult,
    Phase,
    PhaseDynamics,
    SmibParams,
    eval_f,
    eval_jacobians,
    find_equilibrium,
    sep_sensitivity,
    smib_system,
    system_from_expressions,
)
from .integrator import (
    Event,
    EventConfig,
    EventKind,
    IntegrationOptions,
    SensitivityBundle,
    Trajectory,
    integrate,
    integrate_lanes,
    integrate_with_sensitivities,
)
from .cct import (
    CctOptions,
    CriticalResult,
    InstabilityMode,
    PostFaultClassification,
    classify_post_fault,
    classify_post_faults,
    clearing_outcome,
    compute_cct,
)
from .boundary import (
    BoundaryPoint,
    CellClass,
    GridSpec,
    PseudoEpClass,
    PseudoEpKind,
    SrGrid,
    classify_grid_point,
    classify_grid_points,
    classify_pseudo_ep,
    combined_H,
    combined_constraints,
    eval_H,
    sample_stability_region,
)
from .sensitivity import (
    FaultSensitivityMatrices,
    PostFaultMatrices,
    SensitivityResult,
    cct_sensitivity,
    cct_sensitivity_mode1,
    cct_sensitivity_mode2,
    fault_matrices,
    post_matrices,
)
from .validate import (
    ORACLE_CSV_HEADER,
    OracleReport,
    compare,
    compare_abs,
    fd_cct_slope,
    fd_trajectory_sensitivity,
    oracle_csv_row,
    oracle_suite,
    scan_cct,
)

__version__ = "0.1.0"
