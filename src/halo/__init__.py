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
)
from .manifest import load_manifest, problem_from_record, write_manifest
from .metrics import (
    BenchmarkReport,
    RunRecord,
    auoc,
    run_benchmark,
    step_curve,
    variable_importance,
)
from .problems import TestProblem, classical_problem, classical_suite, shift_minimizer
from .schoen import schoen_generate
from .solver import RunTrace, SolverConfig, run

__all__ = [
    "BoxDomain",
    "DomainViolationError",
    "ObjectiveError",
    "ObjectiveHandle",
    "PartitionLedger",
    "StopRule",
    "denormalize_point",
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
