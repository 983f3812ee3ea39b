"""The outer optimization loop: select, sample, divide, update, refine.

Three variants share the loop.  ``halo`` selects through blended local
Lipschitz constants, ``hlo`` uses the single global estimate for every
partition, and ``direct`` uses potentially-optimal hyperrectangles with no
local search.  Runs are fully deterministic: identical configuration and
objective produce bitwise-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import ObjectiveError, ObjectiveHandle, PartitionLedger, StopRule
from .lipschitz import blend_constants, global_slope_max
from .local_search import RUN, SELECT_FOR_DIVISION, gate_local_search, start_local_search
from .partitioning import divide_partition, evaluate_samples, init_root, plan_samples
from .selection import select_halo, select_potentially_optimal

VARIANTS = ("halo", "hlo", "direct")

STATUS_SOLVED = "solved"
STATUS_BUDGET = "budget_exhausted"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_STALLED = "stalled"

# Relative improvement a potentially-optimal partition must promise (direct).
DIRECT_EPSILON_REL = 1e-4


@dataclass
class SolverConfig:
    """Knobs of a solver run; variant-specific fields are ignored elsewhere."""

    variant: str = "halo"
    beta: float = 1e-4
    stop: StopRule = field(default_factory=StopRule)
    local_search_enabled: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.beta >= 0.0:  # NaN fails too
            raise ValueError("beta must be nonnegative")


@dataclass
class EvalRecord:
    """One objective evaluation: 1-based index, normalized point, value, incumbent."""

    index: int
    point: np.ndarray
    value: float
    best: float


@dataclass
class IterationRecord:
    index: int
    selected: tuple[int, ...]
    partition_count: int
    global_constant: float


@dataclass
class RunTrace:
    """Full record of a run; ``best`` is nonincreasing along ``evals``."""

    evals: list[EvalRecord]
    iterations: list[IterationRecord]
    status: str
    best_value: float
    best_point: Optional[np.ndarray]
    n_evals: int
    n_local_searches: int
    n_local_evals: int
    ledger: Optional[PartitionLedger]


class _SolvedSignal(Exception):
    """Internal: the incumbent reached the stop tolerance mid-operation."""


def relative_error(value: float, known_optimum: float) -> float:
    """Signed error against the known optimum, absolute when it is ~0."""
    if abs(known_optimum) < 1e-12:
        return value - known_optimum
    return (value - known_optimum) / abs(known_optimum)


def _is_solved(best: float, known_optimum: Optional[float], tol: float) -> bool:
    if known_optimum is None or not np.isfinite(best):
        return False
    return relative_error(best, known_optimum) <= tol


def run(obj: ObjectiveHandle, cfg: SolverConfig) -> RunTrace:
    """Run the configured variant on ``obj`` until a stop rule fires.

    Each iteration has three steps.  Select: choose partitions from the
    current ledger snapshot.  Refine (halo/hlo only): a lowest-bound or
    lowest-value winner goes through ``gate_local_search``; if the gate
    lets it run, the divisions pending so far are made and
    ``start_local_search`` runs from it.  Divide: every other chosen
    partition, and the largest-box winner in any case, is sampled, divided
    and has its slopes refreshed, in blocks: all of an iteration's, or,
    when a local search starts, the ones chosen before it and then the
    rest.  The solved check fires after every single evaluation, so the
    evaluation count at which a problem is solved is exact; sampling
    pre-checks the budget so a division either happens completely or not
    at all, and the first division that does not fit ends the run.

    An iteration that chooses nothing ends the run with ``stalled``: the
    ledger would not change, so every later iteration would choose nothing
    too.  Only ``direct`` can stall, when a NaN or -inf value makes every
    class fail the potentially-optimal test; ``halo`` and ``hlo`` always
    choose their largest-box winner.  The empty iteration is not recorded,
    so ``iterations`` holds only iterations that chose something.
    """
    stop = cfg.stop
    evals: list[EvalRecord] = []
    iterations: list[IterationRecord] = []
    best = np.inf
    best_point: Optional[np.ndarray] = None
    n_local = 0
    n_local_evals = 0
    ledger: Optional[PartitionLedger] = None

    def record(point: np.ndarray, value: float) -> None:
        nonlocal best, best_point
        improved = value < best
        if improved:
            best = value
            best_point = point.copy()
        evals.append(EvalRecord(obj.eval_count, point.copy(), value, best))
        # solved status depends on ``best`` alone, so only a new incumbent can reach it
        if improved and _is_solved(best, obj.known_optimum, stop.rel_error_tol):
            raise _SolvedSignal

    def make_trace(status: str) -> RunTrace:
        return RunTrace(
            evals=evals,
            iterations=iterations,
            status=status,
            best_value=float(best),
            best_point=best_point,
            n_evals=len(evals),
            n_local_searches=n_local,
            n_local_evals=n_local_evals,
            ledger=ledger,
        )

    excluded: set[int] = set()  # partitions near which no local search may start
    pending: list[int] = []  # partitions chosen for division, not yet sampled
    budget_hit = False

    def divide_pending() -> None:
        """Sample and divide the pending block, or its longest prefix that fits the budget.

        If the sampling stops early, the divisions completed before the
        stopping one still reach the ledger.
        """
        nonlocal budget_hit
        if not pending:
            return
        plan = plan_samples(ledger, pending, stop.max_fun_evals - obj.eval_count)
        budget_hit = len(plan.parent_ids) < len(pending)
        pending.clear()
        try:
            evaluate_samples(plan, obj, on_eval=record)
        finally:
            divide_partition(ledger, plan)

    status = STATUS_ITER_LIMIT
    try:
        ledger = init_root(obj, on_eval=record)
        if obj.eval_count >= stop.max_fun_evals:
            return make_trace(STATUS_BUDGET)
        for k in range(stop.max_iter):
            g_const = global_slope_max(ledger)
            if cfg.variant == "direct":
                chosen = select_potentially_optimal(ledger, DIRECT_EPSILON_REL)
                if not chosen:
                    status = STATUS_STALLED
                    break
                seeds, largest = (), None
            else:
                # hlo replaces every local constant by the global one
                constants = blend_constants(ledger, g_const) if cfg.variant == "halo" else g_const
                outcome = select_halo(ledger, constants)
                chosen, largest = outcome.chosen, outcome.largest_best
                seeds = (outcome.lowest_bound, outcome.lowest_value) if cfg.local_search_enabled else ()

            # Divisions wait in one block until the iteration ends or a local
            # search starts: the search's exclusion ball must see their
            # children, and its evaluations come after their samples.
            for pid in chosen:
                if pid in seeds:
                    decision = gate_local_search(pid, ledger, excluded, cfg.beta)
                    if decision == RUN:
                        divide_pending()
                        if budget_hit or obj.eval_count >= stop.max_fun_evals:
                            break
                        n_local += 1
                        mark = len(evals)
                        try:
                            start_local_search(
                                pid, ledger, obj, excluded, stop.max_fun_evals - obj.eval_count, on_eval=record
                            )
                        finally:
                            n_local_evals += len(evals) - mark
                    # the largest-box mandate still forces a division
                    if decision != SELECT_FOR_DIVISION and pid != largest:
                        continue
                pending.append(pid)
            divide_pending()

            iterations.append(IterationRecord(k, tuple(chosen), len(ledger), g_const))
            if budget_hit or obj.eval_count >= stop.max_fun_evals:
                status = STATUS_BUDGET
                break
    except _SolvedSignal:
        status = STATUS_SOLVED
    except ObjectiveError as err:
        err.partial_trace = make_trace("aborted")
        raise
    return make_trace(status)
