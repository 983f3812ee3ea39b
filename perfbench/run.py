"""Fixed-budget benchmark of the halo solver, run from the repository root.

    python3 perfbench/run.py --workload rastrigin4-halo --seed 0 --seconds 30 --trace 0

One process, one solve at a time (a closed loop with a single client).
After an untimed warm-up pass, the workload is repeated while another pass
fits in ``--seconds``, and medians are reported.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the workload runs once untraced and once under
``tracer.SpanTracer``, and the JSON holds per-layer metrics.  See README.md.

Every solve is checked: its evaluation-trace digest must match
``golden.json`` at the default seed (the first repetition's digest at any
other seed), the traced run must reproduce the untraced digests, the
objective replayed at the traced points must return the recorded values
bit for bit, and each trace must be well formed.  A solve that raises,
reports an error or changes its digest counts as failed.

The benchmark imports ``halo`` from ``src/`` of this checkout and changes
nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN_SCHOEN = ROOT / "benchmarks" / "schoen30.jsonl"
WORK_DIR = HERE / ".work"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 0
SETUP_PROBES = 15
RASTRIGIN_N = 4
SCHOEN_PER_DIM = 15  # schoen30.jsonl: 15 problems at n=2, then 15 at n=3
SOLVED_TOL = 1e-4  # the solver's default relative-error tolerance
CHECK_SPAN = "perfbench.check"  # the benchmark's own per-solve checks, left out of traced wall


@dataclass(frozen=True)
class Workload:
    """One fixed input set; ``shifts`` > 0 means shifted rastrigin, else the Schoen mix."""

    name: str
    variants: tuple[str, ...]
    budget: int
    shifts: int = 0


WORKLOADS = {
    # Large ledgers, many cheap iterations: ledger-wide reads dominate.
    "rastrigin4-halo": Workload("rastrigin4-halo", ("halo",), 30000, shifts=1),
    # Many divisions per iteration; potentially-optimal selection dominates.
    # Three 10k-evaluation solves: at 30k a shifted solve needs 0.7x-1.3x the
    # median iteration count, too wide a spread for a per-seed timing.
    "rastrigin4-direct": Workload("rastrigin4-direct", ("direct",), 10000, shifts=3),
    # 90 small ledgers under every variant: per-run and per-division cost.
    "schoen30-mix": Workload("schoen30-mix", ("halo", "hlo", "direct"), 4000),
}

# Spans reported per layer, each as .calls, .self_s and .us_per_call.
SPANS = (
    "geometry.PartitionLedger.half_diagonals",
    "geometry.PartitionLedger.append",
    "geometry.denormalize_point",
    "lipschitz.slope_norms",
    "lipschitz.global_slope_max",
    "lipschitz.blend_constants",
    "selection.select_potentially_optimal",
    "selection.select_halo",
    "selection.select_hlo",
    "partitioning.sample_partition",
    "partitioning.divide_partition",
    "partitioning.division_order",
    "lipschitz.update_slopes_on_division",
    "geometry.ObjectiveHandle.eval_normalized",
    "local_search.gate_local_search",
    "local_search.coordinate_descent_minimize",
    "metrics.run_benchmark",
    "metrics.record_from_trace",
    "metrics.build_report",
    "manifest.load_manifest",
    "manifest.problem_from_record",
    "objective",
)
SPAN_FIELDS = (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "overhead_us_per_eval": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{span}.{f}": unit for span in SPANS for f, unit in SPAN_FIELDS},
    "solver.run.self_s": "s",
    "solver.iterations": "count",
    "selection.rows_per_call": "rows",
    "selection.chosen_per_call": "count",
    "partitioning.divisions": "count",
    "partitioning.children_per_division": "count",
    "local_search.evals": "count",
    "local_search.run_ratio": "ratio",
    "local_search.improved_ratio": "ratio",
    "objective.replay_s": "s",
    "geometry.ledger_rows": "rows",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "quality.best_f": "f",
    "quality.solved_runs": "count",
    "quality.auoc": "ratio",
}


class BenchError(RuntimeError):
    """The checkout cannot run the benchmark."""


@dataclass
class RepStats:
    """What one pass over a workload's solves measured and produced."""

    wall_s: float = 0.0
    replay_s: float = 0.0
    evals: int = 0
    iterations: int = 0
    ledger_rows: int = 0
    local_evals: int = 0
    records: list = field(default_factory=list)  # RunRecord per solve
    digests: dict = field(default_factory=dict)


def import_halo():
    """Import ``halo`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "halo" / "__init__.py").is_file():
        raise BenchError(f"no halo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import halo

    if Path(halo.__file__).resolve().parent != SRC / "halo":
        raise BenchError(f"imported halo from {halo.__file__}, expected {SRC / 'halo'}")
    return halo


def schoen_records(halo, seed: int) -> list[dict]:
    """Manifest for ``seed``; seed 0 reproduces ``benchmarks/schoen30.jsonl``."""
    base = 2 * SCHOEN_PER_DIM * seed
    return halo.manifest.schoen_manifest(2, SCHOEN_PER_DIM, base) + halo.manifest.schoen_manifest(
        3, SCHOEN_PER_DIM, base + SCHOEN_PER_DIM
    )


def prepare_manifest(halo, wl: Workload, seed: int) -> Optional[Path]:
    """Path of the Schoen manifest to load, written first for non-default seeds."""
    if wl.shifts:
        return None
    if seed == DEFAULT_SEED:
        return FROZEN_SCHOEN
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"schoen30-seed{seed}.jsonl"
    halo.write_manifest(path, schoen_records(halo, seed))
    return path


def build_problems(halo, wl: Workload, seed: int, manifest: Optional[Path]) -> tuple[list, list]:
    """The problems (and Schoen manifest records) a workload solves."""
    if wl.shifts:
        base = halo.classical_problem("rastrigin", RASTRIGIN_N)
        problems = [halo.shift_minimizer(base, wl.shifts * seed + j) for j in range(wl.shifts)]
        return problems, []
    records = halo.load_manifest(manifest)
    return [halo.problem_from_record(r) for r in records], records


def setup_probe(workload: str, seed: str, manifest: str) -> None:
    """Print the time to import halo and build the problems and handles.

    Runs in a fresh interpreter that has numpy, but not halo, imported.
    """
    t0 = time.perf_counter()
    halo = import_halo()
    problems, _ = build_problems(halo, WORKLOADS[workload], int(seed), Path(manifest) if manifest else None)
    for p in problems:
        p.make_handle()
    print(repr(time.perf_counter() - t0))


def setup_probe_time(wl: Workload, seed: int, manifest: Optional[Path]) -> float:
    """``setup_probe`` in a fresh interpreter; returns the seconds it printed.

    Bytecode caching stays on, as for users: only the first probe compiles.
    """
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; run.setup_probe(*sys.argv[1:])"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run(
        [sys.executable, "-c", code, wl.name, str(seed), str(manifest or "")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


OnSolve = Callable[[str, object, object, Optional[str]], None]


def run_rep(halo, wl: Workload, problems: list, records: list, on_solve: OnSolve,
            rep: RepStats, between: Callable[[], None] = lambda: None) -> None:
    """Solve every problem of the workload once, adding batch times and reports to ``rep``.

    A batch is one shifted solve or one variant's ``run_benchmark``; ``between``
    runs after each.  ``on_solve(name, handle, trace, error)`` sees every
    solve as it ends and its time is left out of ``rep.wall_s``, so the
    benchmark checks each trace and drops it before the next solve starts,
    as ``halo bench`` does.
    """
    cfgs = [halo.SolverConfig(variant=v, stop=halo.StopRule(max_fun_evals=wl.budget)) for v in wl.variants]
    if wl.shifts:
        for p in problems:
            rep.wall_s += solve_shifted(halo, cfgs[0], p, on_solve)
            between()
    else:
        for cfg in cfgs:
            wall_s, report = run_manifest(halo, cfg, records, on_solve)
            rep.wall_s += wall_s
            rep.records += report.rows
            between()


def solve_shifted(halo, cfg, problem, on_solve: OnSolve) -> float:
    handle = problem.make_handle()
    handle.known_optimum = None  # no early stop: every solve spends the full budget
    trace = error = None
    t0 = time.perf_counter()
    try:
        trace = halo.run(handle, cfg)
    except Exception as exc:
        error = repr(exc)
    wall = time.perf_counter() - t0
    on_solve(f"{cfg.variant}/{problem.name}-shift{problem.shift_seed}", handle, trace, error)
    return wall


def run_manifest(halo, cfg, records: list, on_solve: OnSolve) -> tuple:
    """``metrics.run_benchmark`` on the manifest, handing each solve to ``on_solve``."""
    solver_run = halo.metrics.run
    paused = 0.0
    started = 0

    def capture(handle, cfg):
        nonlocal paused, started
        name = f"{cfg.variant}/{records[started]['name']}"
        started += 1
        trace = error = None
        try:
            trace = solver_run(handle, cfg)
            return trace
        except Exception as exc:
            error = repr(exc)
            raise
        finally:
            t0 = time.perf_counter()
            on_solve(name, handle, trace, error)
            paused += time.perf_counter() - t0

    halo.metrics.run = capture
    try:
        t0 = time.perf_counter()
        report = halo.run_benchmark(records, cfg, parallelism=1)
        wall = time.perf_counter() - t0 - paused
    finally:
        halo.metrics.run = solver_run
    for row in report.rows[started:]:  # failed before its solve began
        on_solve(f"{row.variant}/{row.problem}", None, None, row.error)
    return wall, report


def trace_digest(trace) -> str:
    """sha256 over (index, value, best, normalized point bytes) of every evaluation."""
    h = hashlib.sha256()
    for e in trace.evals:
        h.update(struct.pack("<qdd", e.index, e.value, e.best))
        h.update(np.ascontiguousarray(e.point, dtype="<f8").tobytes())
    return h.hexdigest()


def trace_well_formed(trace, budget: int) -> bool:
    """Indices run 1..n within budget and ``best`` is the running minimum."""
    best = np.inf
    for i, e in enumerate(trace.evals, start=1):
        best = min(best, e.value)
        if e.index != i or e.best != best:
            return False
    return trace.n_evals == len(trace.evals) <= budget


def replay_objective(handle, trace) -> tuple[float, bool]:
    """Time the bare evaluator at every traced point; check it returns the traced values.

    Points are denormalized the way ``ObjectiveHandle.eval_normalized`` does
    it, before the clock starts.
    """
    denormalize = sys.modules["halo.geometry"].denormalize_point
    points = [denormalize(np.clip(e.point, 0.0, 1.0), handle.domain) for e in trace.evals]
    evaluator = handle.evaluator
    t0 = time.perf_counter()
    values = [evaluator(x) for x in points]
    seconds = time.perf_counter() - t0
    expected = [e.value for e in trace.evals]
    return seconds, np.asarray(values, float).tobytes() == np.asarray(expected, float).tobytes()


def load_golden(workload: str) -> dict[str, str]:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())["digests"].get(workload, {})


class Tally:
    """Failure accounting and correctness checks for one benchmark run."""

    def __init__(self, halo, wl: Workload, problems: list, reference: dict[str, str], pin: bool):
        self.wl = wl
        self.run_record = halo.RunRecord
        self.relative_error = halo.solver.relative_error  # bound now: tracing wraps the module's name
        self.optimum = {f"{wl.variants[0]}/{p.name}-shift{p.shift_seed}": p.known_optimum for p in problems}
        self.reference = dict(reference)  # solve name -> expected digest
        self.pin = pin  # no reference yet: the first digest of each solve becomes it
        self.replay = True
        self.rep = RepStats()
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def on_solve(self, name: str, handle, trace, error: Optional[str]) -> None:
        """Check one finished solve and add what it produced to ``self.rep``."""
        self.attempted += 1
        if trace is None or error is not None:
            self.failed += 1
            return
        rep = self.rep
        digest = rep.digests[name] = trace_digest(trace)
        if self.pin:
            self.reference.setdefault(name, digest)
        if digest != self.reference.get(name):
            self.failed += 1
        self.check("traces well formed", trace_well_formed(trace, self.wl.budget))
        rep.evals += trace.n_evals
        rep.iterations += len(trace.iterations)
        rep.ledger_rows += len(trace.ledger)
        rep.local_evals += trace.n_local_evals
        if self.wl.shifts:
            rep.records.append(self.score_blind(name, trace))
        if self.replay:
            seconds, same = replay_objective(handle, trace)
            rep.replay_s += seconds
            self.check("objective replay matches trace", same)

    def score_blind(self, name: str, trace):
        """RunRecord of a solve run blind to its optimum: solved at the first eval within tolerance."""
        opt, err = self.optimum[name], self.relative_error
        hit = next((e.index for e in trace.evals if err(e.best, opt) <= SOLVED_TOL), None)
        return self.run_record(name, RASTRIGIN_N, self.wl.variants[0], hit is not None,
                               hit or self.wl.budget, trace.best_value, err(trace.best_value, opt))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def quality(halo, wl: Workload, rep: RepStats) -> dict[str, float]:
    """Deterministic outcome of the solves: best value, runs solved, AUOC."""
    return {
        "quality.best_f": min(r.best_value for r in rep.records),
        "quality.solved_runs": sum(r.solved for r in rep.records),
        "quality.auoc": halo.auoc(halo.step_curve(rep.records), wl.budget),
    }


def per_layer(summary: dict, counters: dict, rep: RepStats) -> dict[str, float]:
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(span: str) -> int:
        return summary.get(span, {"calls": 0})["calls"]

    out: dict[str, float] = {}
    for span in SPANS:
        s = summary.get(span, {"calls": 0, "self_s": 0.0})
        out[f"{span}.calls"] = s["calls"]
        out[f"{span}.self_s"] = s["self_s"]
        out[f"{span}.us_per_call"] = 1e6 * ratio(s["self_s"], s["calls"])
    divisions = calls("partitioning.divide_partition")
    searches = calls("local_search.coordinate_descent_minimize")
    out.update({
        "solver.run.self_s": summary.get("solver.run", {"self_s": 0.0})["self_s"],
        "solver.iterations": rep.iterations,
        "selection.rows_per_call": ratio(counters["selection.rows"], counters["selection.calls"]),
        "selection.chosen_per_call": ratio(counters["selection.chosen"], counters["selection.calls"]),
        "partitioning.divisions": divisions,
        "partitioning.children_per_division": ratio(counters["partitioning.children"], divisions),
        "local_search.evals": rep.local_evals,
        "local_search.run_ratio": ratio(counters["local_search.runs"], counters["local_search.gate_calls"]),
        # a search cut short by the solved signal found a new incumbent, so it beat f0
        "local_search.improved_ratio": ratio(
            counters["local_search.improved"] + searches - counters["local_search.completed"], searches
        ),
        "geometry.ledger_rows": rep.ledger_rows,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    wl = WORKLOADS[args.workload]
    try:
        halo = import_halo()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    clock = time.perf_counter
    manifest = prepare_manifest(halo, wl, args.seed)
    t0 = clock()
    problems, records = build_problems(halo, wl, args.seed, manifest)
    build_s = clock() - t0
    default = args.seed == DEFAULT_SEED
    tally = Tally(halo, wl, problems, load_golden(wl.name) if default else {}, pin=not default)
    if manifest == FROZEN_SCHOEN:
        tally.check("frozen manifest reproduced", records == schoen_records(halo, DEFAULT_SEED))

    setup_times: list[float] = []

    def probe_setup() -> None:
        # between batches, so the median samples the whole run
        if not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe_time(wl, args.seed, manifest))

    if not args.trace:
        setup_probe_time(wl, args.seed, manifest)  # fills the bytecode cache; not counted
    # The first pass is checked but not timed: a process's first solves run
    # about 10% slower while the allocator and caches settle.
    tally.rep = RepStats()
    run_rep(halo, wl, problems, records, tally.on_solve, tally.rep, probe_setup)
    reps: list[RepStats] = []
    start = clock()
    while True:
        tally.rep = rep = RepStats()
        run_rep(halo, wl, problems, records, tally.on_solve, rep, probe_setup)
        reps.append(rep)
        walls = [r.wall_s for r in reps]
        if args.trace or clock() - start + statistics.median(walls) > args.seconds:
            break
    if not rep.evals:  # every solve failed: there is nothing to measure
        print(json.dumps({"correct": False, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}))
        return 0
    wall = statistics.median(walls)
    replay = statistics.median(r.replay_s for r in reps)

    lines = [f"workload {wl.name} seed {args.seed} variants {','.join(wl.variants)} "
             f"budget {wl.budget} solves {len(rep.digests)} reps {len(reps)}"]
    lines += [f"digest {name} {d}" for name, d in rep.digests.items()]
    lines.append(f"info wall_s {wall!r} s (median of {len(walls)}: {walls})")
    lines.append(f"info evals {rep.evals} count")

    if not args.trace:
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe_time(wl, args.seed, manifest))
        metrics = {
            "setup_s": statistics.median(setup_times),
            "evals_per_s": rep.evals / wall,
            "overhead_us_per_eval": 1e6 * (wall - replay) / rep.evals,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        lines += [f"info {k} {v!r}" for k, v in quality(halo, wl, rep).items()]
    else:
        from tracer import SpanTracer

        untraced_wall = build_s + rep.wall_s
        tracer = SpanTracer()
        tally.rep = traced = RepStats()
        tally.replay = False  # the evaluator is wrapped now
        with tracer:
            t0 = clock()
            problems, records = build_problems(halo, wl, args.seed, manifest)
            traced.wall_s = clock() - t0
            run_rep(halo, wl, problems, records, tracer.wrap(CHECK_SPAN, tally.on_solve), traced)
        tally.check("traced run reproduces untraced digests", traced.digests == rep.digests)
        summary = tracer.summary()
        metrics = per_layer(summary, tracer.counters, traced)
        metrics.update(quality(halo, wl, traced))
        metrics.update({
            "objective.replay_s": replay,
            "trace.wall_s": traced.wall_s,
            "trace.overhead_ratio": traced.wall_s / untraced_wall,
            "trace.coverage": (tracer.root_s() - summary[CHECK_SPAN]["total_s"]) / traced.wall_s,
        })
        units = PER_LAYER_UNITS
        shares = sorted((v["self_s"], k) for k, v in summary.items() if v["calls"] and k != CHECK_SPAN)
        lines += [f"span {k} self_s {t!r} share {t / traced.wall_s:.4f} calls {summary[k]['calls']}"
                  for t, k in reversed(shares)]
    lines += [f"check {name} {'ok' if ok else 'FAILED'}" for name, ok in tally.checks.items()]
    lines += [f"metric {k} {metrics[k]!r} {u}" for k, u in units.items()]
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
