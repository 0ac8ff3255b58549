"""Unified (q, s)-entropies with continuity bounds and a verification harness."""

from .errors import (
    DimMismatch,
    DomainError,
    EntropyKitError,
    FloatRange,
    IncompleteMeasurement,
    InvalidIndex,
    NonHermitian,
    NotDiagonal,
    NotPositive,
    OutOfValidity,
    PureState,
)
from .tolerances import TOL, Tolerances
from .linops import (
    DensityOperator,
    GeneralizedMeasurement,
    HermitianOperator,
    OrthogonalResolution,
    ProbabilityDistribution,
    PureStateEnsemble,
    apply_generalized,
    density_operators,
    diagonal_density,
    ensemble_from_state,
    maximally_mixed,
    partial_trace,
    pinch,
    purify,
    random_density,
    random_resolution,
    random_unitary,
    read_density,
    read_matrix,
    tensor,
    trace_distance,
    write_matrix,
)
from .entropies import (
    UnifiedParams,
    binary_tsallis,
    q_log,
    renyi,
    tsallis,
    type_q_entropy,
    unified_classical,
    unified_from_power_sum,
    unified_quantum,
)
from .bounds import (
    BoundSpec,
    eta_q,
    fannes_range,
    fannes_tsallis_high_q,
    fannes_tsallis_low_q,
    kappa_s,
    lipschitz_bound,
    low_q_threshold,
    max_unified,
    stability_ratio_bound,
    thermodynamic_ratio_limit,
    unified_fannes_bound,
)
from .verify import (
    ALL_CHECKS,
    CheckReport,
    StabilityExample,
    qubit_measurement_decrease,
    report_ok,
    run_check,
    stability_ratio,
)

__version__ = "0.1.0"
