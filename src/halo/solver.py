"""The outer optimization loop: select, sample, divide, update, refine.

Three variants share the loop.  ``halo`` selects through blended local
Lipschitz constants, ``hlo`` uses the single global estimate for every
partition, and ``direct`` uses potentially-optimal hyperrectangles with no
local search.  Runs are fully deterministic: identical configuration and
objective produce bitwise-identical traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import ObjectiveError, ObjectiveHandle, PartitionLedger, StopRule
from .lipschitz import global_slope_max
from .local_search import RUN, SELECT_FOR_DIVISION, gate_local_search, start_local_search
from .partitioning import divide_partition, init_root
from .selection import CarriedBounds, select_halo, select_potentially_optimal

VARIANTS = ("halo", "hlo", "direct")

STATUS_SOLVED = "solved"
STATUS_BUDGET = "budget_exhausted"
STATUS_ITER_LIMIT = "iter_limit"
STATUS_STALLED = "stalled"

# Relative improvement a potentially-optimal partition must promise (direct).
DIRECT_EPSILON_REL = 1e-4


@dataclass
class SolverConfig:
    """Knobs of a solver run; ``beta`` gates the local search of halo/hlo, and 0 turns it off."""

    variant: str = "halo"
    beta: float = 1e-4
    stop: StopRule = field(default_factory=StopRule)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.beta >= 0.0:  # NaN fails too
            raise ValueError("beta must be nonnegative")


@dataclass(slots=True)
class EvalRecord:
    """One objective evaluation: 1-based index, normalized point, value, incumbent.

    A run stores no records: ``RunTrace.evals`` builds one from the trace's
    columns each time an evaluation is read.
    """

    index: int
    point: np.ndarray
    value: float
    best: float


class EvalView(Sequence):
    """Read-only sequence of ``EvalRecord`` over a trace's three evaluation columns.

    Indexing and iteration build each record when it is read; a slice
    gives a list of records.
    """

    __slots__ = ("_points", "_values", "_bests")

    def __init__(self, points: list[np.ndarray], values: list[float], bests: list[float]):
        self._points, self._values, self._bests = points, values, bests

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        n = len(self._values)
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        j = i + n if i < 0 else i
        if not 0 <= j < n:
            raise IndexError(f"evaluation {i} out of range for a trace of {n}")
        return EvalRecord(j + 1, self._points[j], self._values[j], self._bests[j])

    def __iter__(self):
        for k, row in enumerate(zip(self._points, self._values, self._bests), start=1):
            yield EvalRecord(k, *row)


@dataclass
class IterationRecord:
    index: int
    selected: tuple[int, ...]
    partition_count: int
    global_constant: float


@dataclass
class RunTrace:
    """Full record of a run: evaluation ``i + 1`` is row ``i`` of three columns.

    ``eval_points`` holds the read-only normalized points, each a row of the
    block it was sampled in, kept without a copy; ``eval_values`` and
    ``eval_best`` hold Python floats, the value and the incumbent, which is
    nonincreasing.  ``evals`` reads the columns as ``EvalRecord`` objects.
    Points are in normalized [0, 1]^N units; ``handle.to_problem_units(trace.best_point)`` maps back.
    """

    eval_points: list[np.ndarray]
    eval_values: list[float]
    eval_best: list[float]
    iterations: list[IterationRecord]
    status: str
    best_value: float
    best_point: Optional[np.ndarray]
    n_evals: int
    n_local_searches: int
    n_local_evals: int
    ledger: Optional[PartitionLedger]

    @property
    def evals(self) -> EvalView:
        """Every evaluation as an ``EvalRecord``, built when it is read."""
        return EvalView(self.eval_points, self.eval_values, self.eval_best)


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
    current ledger snapshot.  Refine (halo/hlo, off at ``beta = 0``): a
    lowest-bound or lowest-value winner goes through ``gate_local_search``;
    if the gate lets it run, the divisions pending so far are made and
    ``start_local_search`` runs from it.  Divide: every other chosen
    partition, and the largest-box winner in any case, is sampled, divided
    and has its slopes refreshed, in blocks: all of an iteration's, or,
    when a local search starts, the ones chosen before it and then the
    rest.  The solved check fires after every single evaluation, so the
    evaluation count at which a problem is solved is exact; a block is
    cut to the longest prefix whose evaluations fit the budget before any
    of it is sampled, so a division either happens completely or not at
    all, and the first division that does not fit ends the run.  The budget
    counts the run's own evaluations, so each run on a handle gets all of it.

    An iteration that chooses nothing ends the run with ``stalled``: the
    ledger would not change, so every later iteration would choose nothing
    too.  Only ``direct`` can stall, when a NaN or -inf value makes every
    class fail the potentially-optimal test; ``halo`` and ``hlo`` always
    choose their largest-box winner.  The empty iteration is not recorded,
    so ``iterations`` holds only iterations that chose something.
    """
    stop = cfg.stop
    points: list[np.ndarray] = []
    values: list[float] = []
    bests: list[float] = []
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
            best_point = point
        # every caller hands over a read-only point (``OnEval``), so it is kept as it is,
        # incumbent included; the row count is the run's own evaluation count
        points.append(point)
        values.append(value)
        bests.append(best)
        # solved status depends on ``best`` alone, so only a new incumbent can reach it
        if improved and _is_solved(best, obj.known_optimum, stop.rel_error_tol):
            raise _SolvedSignal

    def make_trace(status: str) -> RunTrace:
        return RunTrace(
            eval_points=points,
            eval_values=values,
            eval_best=bests,
            iterations=iterations,
            status=status,
            best_value=float(best),
            best_point=best_point,
            n_evals=len(values),
            n_local_searches=n_local,
            n_local_evals=n_local_evals,
            ledger=ledger,
        )

    # hlo replaces every local constant by the global one
    carried = CarriedBounds(blend=cfg.variant == "halo")
    excluded: set[int] = set()  # partitions near which no local search may start
    pending: list[int] = []  # partitions chosen for division, not yet sampled

    def divide_pending() -> bool:
        """Sample and divide the pending block, or its longest prefix that fits the budget.

        A box of depth ``d`` has ``n - d % n`` longest sides, since its levels
        lie in ``{k, k + 1}``, and costs two evaluations per longest side.  If
        the sampling stops early, the divisions completed before the stopping
        one still reach the ledger.  Returns whether the run must end.
        """
        cut = False
        if pending:
            n = ledger.dim
            room = stop.max_fun_evals - len(values)
            fits = 0
            for d in ledger.depths[pending].tolist():
                room -= 2 * (n - d % n)
                if room < 0:
                    break
                fits += 1
            block = pending[:fits]
            cut = fits < len(pending)
            pending.clear()
            divide_partition(ledger, block, obj, on_eval=record)
        return cut or len(values) >= stop.max_fun_evals

    status = STATUS_ITER_LIMIT
    try:
        ledger = init_root(obj, on_eval=record)
        if len(values) >= stop.max_fun_evals:
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
                outcome = select_halo(ledger, g_const, carried)
                chosen, largest = outcome.chosen, outcome.largest_best
                seeds = (outcome.lowest_bound, outcome.lowest_value)

            # Divisions wait in one block until the iteration ends or a local
            # search starts: the search's exclusion ball must see their
            # children, and its evaluations come after their samples.
            for pid in chosen:
                if pid in seeds:
                    decision = gate_local_search(pid, ledger, excluded, cfg.beta)
                    if decision == RUN:
                        spent = divide_pending()
                        if spent:
                            break
                        n_local += 1
                        mark = len(values)
                        try:
                            start_local_search(
                                pid, ledger, obj, excluded, stop.max_fun_evals - mark, on_eval=record
                            )
                        finally:
                            n_local_evals += len(values) - mark
                    # the largest-box mandate still forces a division
                    if decision != SELECT_FOR_DIVISION and pid != largest:
                        continue
                pending.append(pid)
            else:  # the budget held through every local search: divide the rest
                spent = divide_pending()

            iterations.append(IterationRecord(k, tuple(chosen), len(ledger), g_const))
            if spent:
                status = STATUS_BUDGET
                break
    except _SolvedSignal:
        status = STATUS_SOLVED
    except ObjectiveError as err:
        err.partial_trace = make_trace("aborted")
        raise
    return make_trace(status)
