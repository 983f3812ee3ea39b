"""Deterministic partition-based global optimization.

The solver trisects a normalized box domain the dividing-rectangles way,
estimates a local Lipschitz constant per partition by blending its own
absolute slopes with the ledger-wide maximum, selects partitions through
the resulting lower bounds, and optionally refines promising small
partitions with a derivative-free coordinate search.
"""

from .geometry import (
    BoxDomain,
    DomainViolationError,
    ObjectiveError,
    ObjectiveHandle,
    PartitionLedger,
    StopRule,
    denormalize_point,
    normalize_point,
)
from .lipschitz import blend_constants, global_slope_max
from .local_search import LocalResult, coordinate_descent_minimize, gate_local_search
from .manifest import load_manifest, problem_from_record, write_manifest
from .metrics import (
    BenchmarkReport,
    RunRecord,
    auoc,
    run_benchmark,
    step_curve,
    variable_importance,
)
from .partitioning import (
    SamplePlan,
    divide_partition,
    init_root,
)
from .problems import TestProblem, classical_problem, classical_suite, shift_minimizer
from .schoen import schoen_generate
from .selection import (
    SelectionOutcome,
    select_halo,
    select_potentially_optimal,
)
from .solver import RunTrace, SolverConfig, run

__all__ = [
    "BoxDomain",
    "DomainViolationError",
    "ObjectiveError",
    "ObjectiveHandle",
    "PartitionLedger",
    "StopRule",
    "normalize_point",
    "denormalize_point",
    "init_root",
    "divide_partition",
    "SamplePlan",
    "global_slope_max",
    "blend_constants",
    "SelectionOutcome",
    "select_halo",
    "select_potentially_optimal",
    "LocalResult",
    "gate_local_search",
    "coordinate_descent_minimize",
    "SolverConfig",
    "RunTrace",
    "run",
    "TestProblem",
    "classical_problem",
    "classical_suite",
    "shift_minimizer",
    "schoen_generate",
    "load_manifest",
    "write_manifest",
    "problem_from_record",
    "RunRecord",
    "BenchmarkReport",
    "step_curve",
    "auoc",
    "variable_importance",
    "run_benchmark",
]
