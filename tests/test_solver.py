import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from halo.geometry import BoxDomain, ObjectiveError, ObjectiveHandle, StopRule
from halo.problems import classical_problem, shift_minimizer
import halo.solver
from halo.solver import (
    STATUS_BUDGET,
    STATUS_ITER_LIMIT,
    STATUS_SOLVED,
    STATUS_STALLED,
    EvalRecord,
    SolverConfig,
    run,
)

from conftest import ledger_bytes, trace_bytes, unit_handle


def rastrigin_like(x):
    return float(10 * x.size + np.sum((3 * x - 1) ** 2 - 10 * np.cos(2 * np.pi * (3 * x - 1))))


def test_iteration_zero_counts_any_objective():
    for fn in (lambda x: float(np.sum(x)), lambda x: float(np.prod(x + 1)), rastrigin_like):
        h = unit_handle(fn, 2)
        trace = run(h, SolverConfig(stop=StopRule(max_fun_evals=5, max_iter=10)))
        assert trace.n_evals == 5
        assert len(trace.ledger) == 5


def test_budget_one_stops_after_root():
    h = unit_handle(lambda x: 1.0, 3)
    trace = run(h, SolverConfig(stop=StopRule(max_fun_evals=1)))
    assert trace.status == STATUS_BUDGET
    assert trace.n_evals == 1
    assert len(trace.ledger) == 1


def test_check_stop_examples():
    cfg = SolverConfig(beta=0.0, stop=StopRule(max_fun_evals=500, rel_error_tol=1e-4))
    # relative error against a nonzero optimum: stops at the first eval within 1e-4,
    # which is 2e-4 in absolute terms here
    trace = run(unit_handle(lambda x: 2.0 + float(x[0] - 0.2) ** 2, 1, known_optimum=2.0), cfg)
    assert trace.status == STATUS_SOLVED
    assert trace.evals[-1].best - 2.0 <= 2e-4 < trace.evals[-2].best - 2.0
    # an optimum that is never approached within 1e-4 keeps the run going
    trace = run(unit_handle(lambda x: 2.0 + float(x[0] - 0.2) ** 2, 1, known_optimum=1.9), cfg)
    assert trace.status == STATUS_BUDGET
    # absolute error when the optimum is zero
    trace = run(unit_handle(lambda x: float(x[0] - 0.2) ** 2, 1, known_optimum=0.0), cfg)
    assert trace.status == STATUS_SOLVED
    assert trace.evals[-1].best <= 1e-4 < trace.evals[-2].best


def test_check_stop_budget():
    h = unit_handle(lambda x: float(x[0]), 1, known_optimum=-1.0)
    trace = run(h, SolverConfig(stop=StopRule(max_fun_evals=10)))
    # root plus four divisions of two points each: a fifth would pass 10
    assert trace.status == STATUS_BUDGET
    assert trace.n_evals == h.eval_count == 9


def test_determinism_bitwise():
    prob = shift_minimizer(classical_problem("rastrigin", 2), seed=5)
    traces = []
    for _ in range(2):
        h = prob.make_handle()
        traces.append(run(h, SolverConfig(variant="halo", stop=StopRule(max_fun_evals=1500))))
    a, b = traces
    assert a.status == b.status and a.n_evals == b.n_evals
    for ra, rb in zip(a.evals, b.evals):
        assert ra.value == rb.value and ra.best == rb.best
        assert np.array_equal(ra.point, rb.point)
    assert [it.selected for it in a.iterations] == [it.selected for it in b.iterations]


def test_best_so_far_nonincreasing():
    h = unit_handle(rastrigin_like, 2)
    trace = run(h, SolverConfig(stop=StopRule(max_fun_evals=500)))
    bests = [r.best for r in trace.evals]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))


def test_eval_accounting_identity():
    # evals = 1 (root) + 2|P| per division + local-search evals, exactly
    for variant in ("halo", "hlo", "direct"):
        h = unit_handle(rastrigin_like, 2)
        cfg = SolverConfig(variant=variant, beta=1e-2, stop=StopRule(max_fun_evals=900))
        trace = run(h, cfg)
        assert trace.status == STATUS_BUDGET
        sampling_evals = len(trace.ledger) - 1  # every sampled point became a center
        assert trace.n_evals == 1 + sampling_evals + trace.n_local_evals
        assert trace.n_evals == h.eval_count


@pytest.mark.parametrize("variant", halo.solver.VARIANTS)
def test_each_run_on_one_handle_gets_the_whole_budget(variant):
    h = unit_handle(rastrigin_like, 2)
    cfg = SolverConfig(variant=variant, beta=1e-2, stop=StopRule(max_fun_evals=300))
    first = run(h, cfg)
    second = run(h, cfg)
    assert first.status == STATUS_BUDGET
    assert trace_bytes(second) == trace_bytes(first)
    assert h.eval_count == first.n_evals + second.n_evals


@pytest.mark.parametrize("variant", halo.solver.VARIANTS)
def test_calls_before_a_run_leave_its_trace_unchanged(variant):
    # at this budget, a run with one evaluation less ends differently under every variant
    cfg = SolverConfig(variant=variant, beta=1e-2, stop=StopRule(max_fun_evals=293))
    used = unit_handle(rastrigin_like, 2)
    used.evaluate([0.5, 0.5])
    assert trace_bytes(run(used, cfg)) == trace_bytes(run(unit_handle(rastrigin_like, 2), cfg))


def test_constant_objective_halo_hlo_traces_coincide():
    # constant f keeps every slope at zero, where the two rules agree
    t = {}
    for variant in ("halo", "hlo"):
        h = unit_handle(lambda x: 2.0, 2)
        t[variant] = run(h, SolverConfig(variant=variant, beta=0.0,
                                         stop=StopRule(max_fun_evals=400)))
    assert [r.value for r in t["halo"].evals] == [r.value for r in t["hlo"].evals]
    assert [it.selected for it in t["halo"].iterations] == [it.selected for it in t["hlo"].iterations]
    for ra, rb in zip(t["halo"].evals, t["hlo"].evals):
        assert np.array_equal(ra.point, rb.point)


def branin_traces():
    """Early-stopping branin solves at beta 1e-2; halo and hlo start local searches."""
    cfgs = [SolverConfig(variant=v, beta=1e-2, stop=StopRule(max_fun_evals=3000)) for v in halo.solver.VARIANTS]
    return [run(classical_problem("branin", 2).make_handle(), cfg) for cfg in cfgs]


def test_run_builds_no_eval_record(monkeypatch):
    def refuse(*args):
        raise AssertionError("run built an EvalRecord")

    with monkeypatch.context() as patch:
        patch.setattr(halo.solver, "EvalRecord", refuse)
        traces = branin_traces()
    assert [t.status for t in traces] == [STATUS_SOLVED] * 3
    assert [t.n_local_evals > 0 for t in traces] == [True, True, False]
    for t in traces:
        records = list(t.evals)
        assert len(records) == t.n_evals and all(type(r) is EvalRecord for r in records)


def test_trace_points_are_read_only():
    for trace in branin_traces():
        for e in trace.evals:
            assert not e.point.flags.writeable
            with pytest.raises(ValueError):
                e.point[0] = 0.5


def test_evals_view_reads_the_columns():
    trace = branin_traces()[0]
    evals, n = trace.evals, trace.n_evals
    assert len(evals) == len(trace.eval_points) == len(trace.eval_best) == n
    assert evals[0].index == 1 and evals[-1].index == n == evals[n - 1].index
    assert [e.index for e in evals[3:9:2]] == [4, 6, 8]
    assert [e.index for e in evals] == list(range(1, n + 1))
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            evals[i]

    def record_bytes(view):
        return [(e.index, e.value, e.best, e.point.tobytes()) for e in view]

    assert record_bytes(trace.evals) == record_bytes(trace.evals)
    for i, e in enumerate(evals):
        assert e.point is trace.eval_points[i]
        assert (e.value, e.best) == (trace.eval_values[i], trace.eval_best[i])
        assert type(e.value) is float and type(e.best) is float


def largest_half_diagonal(max_iter):
    """The largest half diagonal after the denseness run, cut at ``max_iter`` iterations."""
    stop = StopRule(max_fun_evals=5000, max_iter=max_iter)
    trace = run(unit_handle(rastrigin_like, 2), SolverConfig(variant="halo", beta=0.0, stop=stop))
    return float(trace.ledger.half_diagonals().max()), len(trace.iterations)


def test_denseness_10x10_grid_5000_evals():
    h = unit_handle(rastrigin_like, 2)
    cfg = SolverConfig(variant="halo", beta=0.0,
                       stop=StopRule(max_fun_evals=5000))
    trace = run(h, cfg)
    points = np.array([r.point for r in trace.evals])
    cells = set()
    for p in points:
        cells.add((min(int(p[0] * 10), 9), min(int(p[1] * 10), 9)))
    assert len(cells) == 100
    diags = trace.ledger.half_diagonals()
    assert diags.max() < np.sqrt(2.0) / 2.0
    # the largest half diagonal never grows: read it after 1, 10, 100 and all iterations
    runs = [largest_half_diagonal(k) for k in (1, 10, 100, len(trace.iterations))]
    assert [count for _, count in runs] == [1, 10, 100, len(trace.iterations)]
    max_diags = [diag for diag, _ in runs]
    assert max_diags[-1] == diags.max()
    assert all(b <= a for a, b in zip(max_diags, max_diags[1:]))
    assert max_diags[-1] < max_diags[0]


def test_solved_status_absolute_fallback():
    prob = shift_minimizer(classical_problem("sphere", 2), seed=3)
    h = prob.make_handle()
    trace = run(h, SolverConfig(variant="halo", stop=StopRule(max_fun_evals=2000)))
    assert trace.status == STATUS_SOLVED
    assert abs(trace.best_value - 0.0) <= 1e-4


def test_iter_limit_status():
    h = unit_handle(lambda x: float(np.sum(x)), 2)
    trace = run(h, SolverConfig(stop=StopRule(max_fun_evals=10_000, max_iter=3)))
    assert trace.status == STATUS_ITER_LIMIT
    assert len(trace.iterations) == 3


@pytest.mark.parametrize(
    "fn, evals",
    [
        (lambda x: np.nan if x[0] > 0.7 else float(np.sum((x - 0.3) ** 2)), 5),
        (lambda x: -np.inf if x[1] < 0.2 else float(np.sum((x - 0.3) ** 2)), 45),
    ],
    ids=["nan", "minus-inf"],
)
def test_direct_stalls_when_selection_chooses_nothing(fn, evals):
    # a NaN incumbent or a -inf one makes every size class fail the
    # potentially-optimal test; the default iteration limit would spin on
    # empty iterations for minutes.  Dividing next to a -inf value still
    # makes inf - inf slopes, which numpy flags as invalid; that is the open
    # non-finite policy, not what this test checks.
    start = time.perf_counter()
    with np.errstate(invalid="ignore"):
        trace = run(unit_handle(fn, 2), SolverConfig(variant="direct", stop=StopRule(max_fun_evals=1000)))
    assert time.perf_counter() - start < 1.0
    assert trace.status == STATUS_STALLED
    assert trace.n_evals == evals
    assert trace.iterations and all(it.selected for it in trace.iterations)


def test_solved_check_fires_mid_iteration():
    # the objective is solved at a sampled point: the run must stop there
    prob = shift_minimizer(classical_problem("sphere", 1), seed=9)
    h = prob.make_handle()
    trace = run(h, SolverConfig(variant="halo", stop=StopRule(max_fun_evals=30000)))
    assert trace.status == STATUS_SOLVED
    assert trace.evals[-1].best <= 1e-4
    assert all(r.best > 1e-4 for r in trace.evals[:-1])


def test_objective_failure_attaches_partial_trace():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] > 7:
            raise RuntimeError("sensor died")
        return float(np.sum(x))

    h = ObjectiveHandle(flaky, BoxDomain([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ObjectiveError) as info:
        run(h, SolverConfig(stop=StopRule(max_fun_evals=100)))
    partial = info.value.partial_trace
    assert partial is not None
    assert partial.status == "aborted"
    assert partial.n_evals == 7
    assert h.eval_count == 7


def test_direct_variant_divides_all_potentially_optimal():
    h = unit_handle(rastrigin_like, 2)
    cfg = SolverConfig(variant="direct", stop=StopRule(max_fun_evals=600))
    trace = run(h, cfg)
    assert trace.status == STATUS_BUDGET
    assert trace.n_local_searches == 0
    # slopes are still maintained for analytics
    assert trace.ledger.slopes.max() > 0.0


def test_variant_validation():
    with pytest.raises(ValueError):
        SolverConfig(variant="annealing")


def test_beta_validation():
    for beta in (-1e-4, float("nan")):
        with pytest.raises(ValueError):
            SolverConfig(beta=beta)
    for beta in (0.0, np.inf):
        SolverConfig(beta=beta)


# Under direct, iteration 2 of rastrigin_like in 2-D divides the block
# (0, 1, 2, 4, 6) with 4, 2, 4, 4 and 4 evaluations: ids 0 and 1 take
# evaluations 8-13, id 2 takes 14-17.


def direct_run(handle, budget):
    return run(handle, SolverConfig(variant="direct", stop=StopRule(max_fun_evals=budget)))


def rastrigin_like_until(call, action):
    """``rastrigin_like`` that hands its ``call``-th evaluation to ``action``."""
    calls = {"n": 0}

    def fn(x):
        calls["n"] += 1
        return action() if calls["n"] == call else rastrigin_like(x)

    return fn


def test_block_budget_divides_the_prefix_that_fits():
    reference = direct_run(unit_handle(rastrigin_like, 2), 13)
    assert reference.iterations[-1].selected == (0, 1, 2, 4, 6)
    # 3 evaluations are left for id 2, which needs 4: it gets none
    h = unit_handle(rastrigin_like, 2)
    trace = direct_run(h, 16)
    assert trace.status == STATUS_BUDGET
    assert trace.n_evals == h.eval_count == 13
    assert len(trace.ledger) == 13
    assert ledger_bytes(trace.ledger) == ledger_bytes(reference.ledger)


def test_solve_mid_block_writes_the_divisions_completed_before_it():
    h = unit_handle(rastrigin_like_until(15, lambda: -1.0), 2, known_optimum=-1.0)
    trace = direct_run(h, 100)
    assert trace.status == STATUS_SOLVED and trace.n_evals == 15
    # ids 0 and 1 are divided, id 2, stopped after two of its points, is not
    reference = direct_run(unit_handle(rastrigin_like, 2), 13)
    assert ledger_bytes(trace.ledger) == ledger_bytes(reference.ledger)


def test_objective_error_mid_block_keeps_the_completed_divisions():
    def fail():
        raise RuntimeError("sensor died")

    h = unit_handle(rastrigin_like_until(15, fail), 2)
    with pytest.raises(ObjectiveError) as info:
        direct_run(h, 100)
    partial = info.value.partial_trace
    assert partial.n_evals == 14
    reference = direct_run(unit_handle(rastrigin_like, 2), 13)
    assert ledger_bytes(partial.ledger) == ledger_bytes(reference.ledger)


def test_run_imports_no_module_beyond_import_halo():
    # a lazily imported module, such as numpy.ma behind np.unique, stays
    # resident after the first solve that needs it; and only a benchmark
    # with more than one job needs multiprocessing
    code = """
import sys
import numpy as np
import halo
print("multiprocessing" in sys.modules)
before = set(sys.modules)
runs = []
for variant in halo.solver.VARIANTS:
    h = halo.ObjectiveHandle(lambda x: float(((x - 0.3) ** 2).sum() - np.cos(9 * x).sum()),
                             halo.BoxDomain(np.zeros(2), np.ones(2)))
    cfg = halo.SolverConfig(variant=variant, beta=1e-2, stop=halo.StopRule(max_fun_evals=2000))
    trace = halo.run(h, cfg)
    runs.append((trace.status, trace.n_local_searches > 0))
print(runs)
print(sorted(set(sys.modules) - before))
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    multiprocessing_loaded, runs, new_modules = out.stdout.splitlines()
    assert multiprocessing_loaded == "False"
    # the halo and hlo runs start local searches
    assert runs == "[('budget_exhausted', True), ('budget_exhausted', True), ('budget_exhausted', False)]"
    assert new_modules == "[]"
