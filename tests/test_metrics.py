import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halo.geometry import PartitionLedger, StopRule
from halo.manifest import schoen_manifest
from halo.metrics import (
    RunRecord,
    auoc,
    build_report,
    run_benchmark,
    step_curve,
    variable_importance,
)
from halo.solver import SolverConfig


def record(solved, fevals, name="p", n=2):
    return RunRecord(name, n, "halo", solved, fevals, 0.0, 0.0)


def test_oc_all_solved_at_ten():
    records = [record(True, 10) for _ in range(4)]
    grid = [0, 5, 9, 10, 50, 100]
    c = [step_curve(records).value(g) for g in grid]
    assert c == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def test_oc_none_solved():
    records = [record(False, 30000) for _ in range(3)]
    c = [step_curve(records).value(g) for g in [0, 10, 100, 30000]]
    assert c == [0.0] * 4


def test_oc_two_of_four():
    records = [record(True, 5), record(True, 15), record(False, 100), record(False, 100)]
    c = [step_curve(records).value(g) for g in [10, 20]]
    assert c == [0.25, 0.5]


def test_auoc_all_solved_at_zero():
    curve = step_curve([record(True, 0) for _ in range(5)])
    assert auoc(curve, 100.0) == 1.0


def test_auoc_none_solved():
    curve = step_curve([record(False, 100) for _ in range(5)])
    assert auoc(curve, 100.0) == 0.0


def test_auoc_half_at_half():
    records = [record(True, 50), record(True, 50), record(False, 100), record(False, 100)]
    assert auoc(step_curve(records), 100.0) == pytest.approx(0.25)


def test_auoc_in_unit_interval_and_monotone_in_solved():
    rng = np.random.default_rng(5)
    records = [record(bool(rng.integers(2)), int(rng.integers(1, 1000))) for _ in range(30)]
    value = auoc(step_curve(records), 1000.0)
    assert 0.0 <= value <= 1.0
    more = records + [record(True, 500)]
    assert auoc(step_curve(more), 1000.0) >= value * len(records) / len(more)
    # adding a solved run never lowers the un-normalized solved mass
    added = auoc(step_curve(records + [record(True, 1)]), 1000.0)
    base_counts = sum(r.solved for r in records)
    assert added * (len(records) + 1) >= value * len(records)


@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=5000)), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_oc_nondecreasing_step_function(outcomes):
    records = [record(s, f) for s, f in outcomes]
    grid = np.arange(0, 5001, 97)
    curve = step_curve(records)
    c = np.array([curve.value(g) for g in grid])
    assert np.all(np.diff(c) >= 0.0)
    assert np.all((0.0 <= c) & (c <= 1.0))
    # jumps only at observed solve counts
    solve_counts = {f for s, f in outcomes if s}
    for gamma in grid[:-1]:
        left = curve.value(float(gamma) - 0.5)
        right = curve.value(float(gamma))
        if right != left:
            assert gamma in solve_counts


def test_variable_importance_mean_rows():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 0], 0.0, [2.0, 1.0])
    ledger.append([0.5, 0.5], [0, 0], 0.0, [4.0, 1.0])
    vi = variable_importance(ledger)
    assert np.allclose(vi, [0.75, 0.25])
    assert math.fsum(vi) == pytest.approx(1.0, abs=1e-12)


def test_variable_importance_single_row():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 0], 0.0, [0.0, 5.0])
    assert np.allclose(variable_importance(ledger), [0.0, 1.0])


def test_variable_importance_degenerate_uniform():
    ledger = PartitionLedger(4)
    ledger.append(np.full(4, 0.5), [0, 0, 0, 0], 0.0)
    assert np.allclose(variable_importance(ledger), 0.25)


def test_run_benchmark_single_sphere_like():
    manifest = schoen_manifest(n=2, count=1, base_seed=0)
    cfg = SolverConfig(variant="halo", stop=StopRule(max_fun_evals=3000))
    report = run_benchmark(manifest, cfg)
    assert len(report.rows) == 1
    assert report.percent_solved == 100.0
    assert report.auoc > 0.0
    assert report.rows[0].importance is not None
    assert math.fsum(report.rows[0].importance) == pytest.approx(1.0, abs=1e-12)


def test_run_benchmark_empty_manifest():
    with pytest.raises(ValueError, match="empty manifest"):
        run_benchmark([], SolverConfig())


def test_run_benchmark_parallel_matches_serial():
    manifest = schoen_manifest(n=2, count=4, base_seed=10)
    cfg = SolverConfig(variant="halo", stop=StopRule(max_fun_evals=800))
    serial = run_benchmark(manifest, cfg, parallelism=1)
    parallel = run_benchmark(manifest, cfg, parallelism=2)
    assert [r.problem for r in serial.rows] == [r.problem for r in parallel.rows]
    for a, b in zip(serial.rows, parallel.rows):
        assert a.solved == b.solved and a.fevals == b.fevals
        assert a.best_value == b.best_value


def test_failed_problem_recorded_not_raised():
    manifest = schoen_manifest(n=2, count=2, base_seed=0)
    manifest[1] = dict(manifest[1])
    manifest[1]["known_optimum"] += 1.0  # integrity check will reject this row
    # no integer dimension to report: the row says n=0
    manifest += [{"name": "bad-n", "family": "classical", "function": "sphere", "n": n} for n in (None, "two", [2])]
    cfg = SolverConfig(stop=StopRule(max_fun_evals=200))
    report = run_benchmark(manifest, cfg)
    assert report.rows[1].error is not None
    assert not report.rows[1].solved
    assert report.rows[0].error is None
    for row in report.rows[2:]:
        assert row.error is not None and (row.problem, row.n) == ("bad-n", 0)


def test_aggregation_order_independent():
    rows = [record(True, 10, name=f"p{i}") for i in range(5)] + [record(False, 99, name="q")]
    cfg = SolverConfig(stop=StopRule(max_fun_evals=100))
    a = build_report(list(rows), cfg)
    b = build_report(list(reversed(rows)), cfg)
    assert a.percent_solved == b.percent_solved
    assert a.average_evals_solved == b.average_evals_solved
    assert a.auoc == b.auoc


def test_average_evals_note_in_metadata():
    cfg = SolverConfig(stop=StopRule(max_fun_evals=100))
    report = build_report([record(True, 10)], cfg)
    assert "solved runs only" in report.metadata["average_evals_note"]
