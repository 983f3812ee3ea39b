"""Benchmark orchestration and summary metrics.

The operational characteristic c(gamma) is the fraction of problems solved
within gamma evaluations; its normalized area (AUOC) is the headline score
of a benchmark run.  Variable importance condenses a run's slope ledger
into one nonnegative vector per problem that sums to one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import PartitionLedger
from .local_search import EXCLUSION_RADIUS
from .manifest import problem_from_record
from .solver import DIRECT_EPSILON_REL, STATUS_SOLVED, RunTrace, SolverConfig, relative_error, run


@dataclass
class RunRecord:
    """Outcome of one solver run on one benchmark problem."""

    problem: str
    n: int
    variant: str
    solved: bool
    fevals: int
    best_value: float
    rel_error: float
    importance: Optional[list[float]] = None
    error: Optional[str] = None
    n_local_searches: int = 0


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function c(gamma), jumping at solve eval counts."""

    jumps: np.ndarray  # sorted eval counts of the solved runs
    total: int

    def value(self, gamma: float) -> float:
        return float(np.searchsorted(self.jumps, gamma, side="right")) / self.total


def step_curve(records: Sequence[RunRecord]) -> StepCurve:
    if not records:
        raise ValueError("no run records")
    jumps = np.sort([r.fevals for r in records if r.solved])
    return StepCurve(jumps=np.asarray(jumps, dtype=float), total=len(records))


def auoc(curve: StepCurve, gamma_max: float) -> float:
    """Exact normalized area under the step curve on [0, gamma_max]."""
    if gamma_max <= 0:
        raise ValueError("gamma_max must be positive")
    area = math.fsum(
        (gamma_max - j) for j in curve.jumps if j <= gamma_max
    )
    return area / (gamma_max * curve.total)


def reporting_grid(records: Sequence[RunRecord], gamma_max: float) -> np.ndarray:
    """Jump locations plus gamma_max: where the curve is worth tabulating."""
    jumps = sorted({float(r.fevals) for r in records if r.solved and r.fevals <= gamma_max})
    if not jumps or jumps[-1] != gamma_max:
        jumps.append(float(gamma_max))
    return np.asarray(jumps)


def variable_importance(ledger: PartitionLedger) -> np.ndarray:
    """Mean slope row normalized to sum to one; uniform when all slopes are 0."""
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    mean = ledger.slopes.mean(axis=0)
    total = math.fsum(mean)
    if total == 0.0:
        return np.full(ledger.dim, 1.0 / ledger.dim)
    return mean / total


@dataclass
class BenchmarkReport:
    rows: list[RunRecord]
    percent_solved: float
    average_evals_solved: Optional[float]
    auoc: float
    gamma_max: int
    metadata: dict = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "metadata": self.metadata,
            "aggregate": {
                "problems": len(self.rows),
                "percent_solved": self.percent_solved,
                "average_evals_solved": self.average_evals_solved,
                "auoc": self.auoc,
                "gamma_max": self.gamma_max,
            },
            "rows": [asdict(r) for r in self.rows],
        }


REPORT_COLUMNS = ("problem", "N", "variant", "solved", "fevals", "best_f", "rel_err")


def report_table(report: BenchmarkReport) -> list[tuple]:
    return [
        (r.problem, r.n, r.variant, r.solved, r.fevals, r.best_value, r.rel_error)
        for r in report.rows
    ]


def record_from_trace(problem_name: str, n: int, variant: str, trace: RunTrace,
                      known_optimum: Optional[float]) -> RunRecord:
    rel = float("nan") if known_optimum is None else relative_error(trace.best_value, known_optimum)
    importance = None
    if trace.ledger is not None:
        importance = [float(v) for v in variable_importance(trace.ledger)]
    return RunRecord(
        problem=problem_name,
        n=n,
        variant=variant,
        solved=trace.status == STATUS_SOLVED,
        fevals=trace.n_evals,
        best_value=trace.best_value,
        rel_error=rel,
        importance=importance,
        n_local_searches=trace.n_local_searches,
    )


def _run_one(record: dict, cfg: SolverConfig) -> RunRecord:
    handle = None
    try:
        problem = problem_from_record(record)
        handle = problem.make_handle()
        trace = run(handle, cfg)
    except Exception as exc:  # a failed problem must not sink the batch
        n = record.get("n")
        return RunRecord(
            problem=record.get("name", "?"),
            n=n if isinstance(n, int) else 0,
            variant=cfg.variant,
            solved=False,
            fevals=0 if handle is None else handle.eval_count,
            best_value=float("nan"),
            rel_error=float("nan"),
            error=f"{type(exc).__name__}: {exc}",
        )
    return record_from_trace(problem.name, problem.n, cfg.variant, trace, problem.known_optimum)


def run_benchmark(
    manifest: Sequence[dict], cfg: SolverConfig, parallelism: int = 1
) -> BenchmarkReport:
    """Run every manifest problem under ``cfg`` and aggregate the outcomes.

    Each run owns its objective handle and solver state, so results do not
    depend on ``parallelism``; rows keep manifest order.
    """
    if not manifest:
        raise ValueError("empty manifest")
    if parallelism > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(_run_one, manifest, [cfg] * len(manifest)))
    else:
        rows = [_run_one(record, cfg) for record in manifest]
    return build_report(rows, cfg)


def build_report(rows: list[RunRecord], cfg: SolverConfig) -> BenchmarkReport:
    solved = [r for r in rows if r.solved]
    percent = 100.0 * len(solved) / len(rows)
    avg = math.fsum(r.fevals for r in solved) / len(solved) if solved else None
    gamma_max = cfg.stop.max_fun_evals
    meta = {
        "variant": cfg.variant,
        "beta": cfg.beta,
        "exclusion_radius": EXCLUSION_RADIUS,
        "max_fun_evals": cfg.stop.max_fun_evals,
        "rel_error_tol": cfg.stop.rel_error_tol,
        "direct_epsilon_rel": DIRECT_EPSILON_REL,
        "average_evals_note": "average over solved runs only; failed runs excluded",
    }
    return BenchmarkReport(
        rows=rows,
        percent_solved=percent,
        average_evals_solved=avg,
        auoc=auoc(step_curve(rows), gamma_max),
        gamma_max=gamma_max,
        metadata=meta,
    )
