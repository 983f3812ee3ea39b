import itertools
from pathlib import Path

import numpy as np

import halo.local_search as local_search_mod
from halo.geometry import HALF_SIDES, PartitionLedger, StopRule
from halo.local_search import (
    EXCLUSION_RADIUS,
    LOCAL_SEARCH_BUDGET_PER_DIM,
    RUN,
    SELECT_FOR_DIVISION,
    SKIP_DIVISION_ONLY,
    coordinate_descent_minimize,
    gate_local_search,
    start_local_search,
)
from halo.manifest import load_manifest, problem_from_record
from halo.solver import SolverConfig, run

from conftest import unit_handle


def small_ledger(centers, level=9):
    # level 9: half sides 2.5e-5, half diagonal 3.6e-5, below beta = 1e-4
    ledger = PartitionLedger(2)
    for c in centers:
        ledger.append(c, [level, level], 0.0)
    return ledger


def test_gate_large_partition_divides():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [1, 1], 0.0)  # half diagonal 0.24
    excluded = set()
    assert gate_local_search(0, ledger, excluded, 1e-4) == SELECT_FOR_DIVISION
    assert excluded == set()


def gate_then_start(pid, ledger, excluded):
    """Gate ``pid`` and, on RUN, start a one-evaluation search from it."""
    decision = gate_local_search(pid, ledger, excluded, 1e-4)
    if decision == RUN:
        start_local_search(pid, ledger, unit_handle(lambda x: 0.0, ledger.dim), excluded, 1)
    return decision


def test_gate_runs_when_registry_empty():
    ledger = small_ledger([[0.5, 0.5], [0.9, 0.9]])
    excluded = set()
    assert gate_local_search(0, ledger, excluded, 1e-4) == RUN
    assert excluded == set()  # the gate only decides
    start_local_search(0, ledger, unit_handle(lambda x: 0.0, 2), excluded, 1)
    assert 0 in excluded
    assert 1 not in excluded  # far away, not swept up


def test_gate_run_collects_points_within_radius():
    near = [0.5 + 5e-5, 0.5]
    ledger = small_ledger([[0.5, 0.5], near, [0.9, 0.9]])
    excluded = set()
    assert gate_then_start(0, ledger, excluded) == RUN
    assert excluded == {0, 1}


def test_gate_skips_near_previous_start():
    near = [0.5 + 5e-5, 0.5]
    ledger = small_ledger([[0.5, 0.5], near])
    excluded = set()
    assert gate_then_start(0, ledger, excluded) == RUN
    decision = gate_local_search(1, ledger, excluded, 1e-4)
    assert decision == SKIP_DIVISION_ONLY
    assert excluded == {0, 1}


def test_gate_member_skips_itself_forever():
    ledger = small_ledger([[0.5, 0.5]])
    excluded = set()
    assert gate_then_start(0, ledger, excluded) == RUN
    for _ in range(3):
        assert gate_local_search(0, ledger, excluded, 1e-4) == SKIP_DIVISION_ONLY


def test_start_spends_at_most_the_capped_budget():
    # every call returns a new lowest value, so the search never converges
    # and only its budget stops it
    for n in (1, 3):
        cap = LOCAL_SEARCH_BUDGET_PER_DIM * n
        for budget in (37, cap - 1, cap, cap + 1, 10**6):
            calls = itertools.count()
            h = unit_handle(lambda x: -float(next(calls)), n)
            ledger = PartitionLedger(n)
            ledger.append(np.full(n, 0.5), np.zeros(n, dtype=int), 0.5)
            result = start_local_search(0, ledger, h, set(), budget)
            assert result.evals == h.eval_count == min(budget, cap)


def test_start_takes_f0_from_the_ledger_and_skips_the_center():
    # the stored value is below anything the objective returns: the search
    # cannot improve on it, and it never evaluates the center to learn it
    center = np.array([0.5, 0.25])
    ledger = PartitionLedger(2)
    ledger.append(center, [1, 1], -1e300)
    points = []
    h = unit_handle(lambda x: float(np.sum(x)), 2)
    result = start_local_search(0, ledger, h, set(), 500, on_eval=lambda q, v: points.append(q.copy()))
    assert result.value == -1e300
    assert np.array_equal(result.point, center)
    assert points and len(points) == h.eval_count == result.evals
    assert not any(np.array_equal(q, center) for q in points)


def test_start_first_step_is_half_diagonal_floored_at_1e3():
    big = float(np.linalg.norm(HALF_SIDES[[1, 1]]))
    small = float(np.linalg.norm(HALF_SIDES[[9, 9]]))
    assert small < 1e-3 < big
    for levels, step in (([1, 1], big), ([9, 9], 1e-3)):
        ledger = PartitionLedger(2)
        ledger.append([0.5, 0.5], levels, 0.0)
        points = []
        h = unit_handle(lambda x: float(np.sum(x)), 2)
        start_local_search(0, ledger, h, set(), 1, on_eval=lambda q, v: points.append(q.copy()))
        # the positive step on coordinate 0 comes first
        assert [q.tolist() for q in points] == [[0.5 + step, 0.5]]


def test_start_excludes_rows_written_just_before_it():
    ledger = small_ledger([[0.5, 0.5], [0.9, 0.9]])
    excluded = set()
    assert gate_local_search(0, ledger, excluded, 1e-4) == RUN
    # rows appended between the gate and the start, as a division would
    ledger.append([0.5, 0.5 - 5e-5], [10, 10], 0.0)
    ledger.append([0.5, 0.5 + 2e-4], [10, 10], 0.0)
    start_local_search(0, ledger, unit_handle(lambda x: 0.0, 2), excluded, 1)
    assert excluded == {0, 2}


def test_coordinate_descent_on_parabola():
    h = unit_handle(lambda x: (float(x[0]) - 0.3) ** 2, 1)
    result = coordinate_descent_minimize(h, np.array([0.5]), budget=500, tol=1e-8)
    assert result.converged
    assert abs(result.point[0] - 0.3) <= 1e-6
    assert result.value < 1e-12
    assert result.evals == h.eval_count


def test_coordinate_descent_constant_function():
    h = unit_handle(lambda x: 3.25, 2)
    result = coordinate_descent_minimize(h, np.array([0.4, 0.6]), budget=500)
    assert result.converged
    assert np.array_equal(result.point, [0.4, 0.6])
    assert result.value == 3.25


def test_coordinate_descent_projects_at_bound():
    # descent direction points out of the box: stay feasible, never increase
    h = unit_handle(lambda x: -float(x[0]), 1)
    result = coordinate_descent_minimize(h, np.array([1.0]), budget=200)
    assert 0.0 <= result.point[0] <= 1.0
    assert result.point[0] == 1.0
    assert result.value <= -1.0 + 1e-15


def test_coordinate_descent_budget_exhaustion_flagged():
    h = unit_handle(lambda x: float(np.sum((x - 0.123) ** 2)), 3)
    result = coordinate_descent_minimize(h, np.full(3, 0.9), budget=7)
    assert not result.converged
    assert result.evals == 7


def test_coordinate_descent_monotone():
    h = unit_handle(lambda x: float(np.sum(np.sin(5 * x) + x**2)), 2)
    x0 = np.array([0.8, 0.2])
    f0 = h.eval_normalized(x0)
    result = coordinate_descent_minimize(h, x0, budget=400, f0=f0)
    assert result.value <= f0 + 1e-15


def test_no_two_starts_within_radius_over_full_run():
    # multimodal objective with a reachable optimum drives several searches
    fn = lambda x: float(np.sum((x - 0.31) ** 2) * (1.0 + 0.5 * np.sin(20.0 * x[0])))
    h = unit_handle(fn, 2)
    cfg = SolverConfig(variant="halo", beta=1e-1, stop=StopRule(max_fun_evals=4000))
    starts = []
    original = local_search_mod.coordinate_descent_minimize

    def spy(obj, x0, **kwargs):
        starts.append(np.array(x0))
        return original(obj, x0, **kwargs)

    local_search_mod.coordinate_descent_minimize = spy
    try:
        run(h, cfg)
    finally:
        local_search_mod.coordinate_descent_minimize = original
    assert len(starts) >= 2
    for i in range(len(starts)):
        for j in range(i + 1, len(starts)):
            assert np.linalg.norm(starts[i] - starts[j]) > EXCLUSION_RADIUS


def test_beta_zero_starts_no_local_search_past_the_underflow_level():
    # branin trisected past level 339, where the squares of the half sides underflow
    manifest = Path(__file__).resolve().parents[1] / "benchmarks" / "classical20.jsonl"
    handle = problem_from_record(load_manifest(manifest)[9]).make_handle()
    trace = run(handle, SolverConfig(variant="halo", beta=0.0, stop=StopRule(max_fun_evals=4000)))
    assert trace.ledger.levels.max() >= 339
    assert trace.n_local_searches == 0
