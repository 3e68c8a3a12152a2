"""Discrete-logarithm toolkit built around the 360-degree arc projection.

Rotor solvers (real-projection and integer-field) with exact operation
instrumentation, independent oracle solvers, and a benchmark harness for
empirical complexity and precision measurement.
"""

from .numerics import (
    EXACT,
    FLOAT64_DEGREES,
    InvalidModulusError,
    NumericMode,
    default_tolerance,
    fixed_point,
    parse_mode,
)
from .oracles import (
    NotAUnitError,
    bsgs_solve,
    multiplicative_order,
    naive_solve,
)
from .rotor import (
    DlogInstance,
    InvalidInstanceError,
    OpCounters,
    RotorState,
    SolveReason,
    SolveReport,
    initial_projected_state,
    initial_state,
    rotor_solve_int,
    rotor_solve_real,
    rotor_step,
)
from .bench import (
    CSV_COLUMNS,
    EmitError,
    EquivalenceResult,
    FitResult,
    GeneratedInstance,
    InsufficientDataError,
    ScanBucket,
    ScanReport,
    SweepConfig,
    SweepRecord,
    emit_results,
    fit_complexity,
    generate_instance,
    is_prime,
    least_k,
    precision_scan,
    run_sweep,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "DlogInstance",
    "EXACT",
    "EmitError",
    "EquivalenceResult",
    "FLOAT64_DEGREES",
    "FitResult",
    "GeneratedInstance",
    "InsufficientDataError",
    "InvalidInstanceError",
    "InvalidModulusError",
    "NotAUnitError",
    "NumericMode",
    "OpCounters",
    "RotorState",
    "ScanBucket",
    "ScanReport",
    "SolveReason",
    "SolveReport",
    "SweepConfig",
    "SweepRecord",
    "bsgs_solve",
    "default_tolerance",
    "emit_results",
    "fit_complexity",
    "fixed_point",
    "generate_instance",
    "initial_projected_state",
    "initial_state",
    "is_prime",
    "least_k",
    "multiplicative_order",
    "naive_solve",
    "parse_mode",
    "precision_scan",
    "rotor_solve_int",
    "rotor_solve_real",
    "rotor_step",
    "run_sweep",
    "verify_equivalence",
]
