"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Derived budgets and
thresholds were measured once on this implementation and are frozen here;
all runs are deterministic, so the numbers are exact, not statistical.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest

import halo.solver
from halo.geometry import HALF_SIDES, BoxDomain, ObjectiveHandle, StopRule
from halo.lipschitz import blend, blend_constants, global_slope_max
from halo.local_search import SELECT_FOR_DIVISION
from halo.manifest import load_manifest
from halo.metrics import auoc, run_benchmark, step_curve, variable_importance
from halo.metrics import RunRecord
from halo.partitioning import divide_partition, init_root
from halo.problems import classical_problem, rastrigin, shift_minimizer
from halo.selection import select_halo, select_potentially_optimal
from halo.solver import SolverConfig, run

from conftest import class_diagonals, cut_order, random_ledger, unit_handle
from oracles import brute_force_halo_selection, kgrid_potentially_optimal

SCHOEN30 = "benchmarks/schoen30.jsonl"
CLASSICAL20 = "benchmarks/classical20.jsonl"

# Frozen after first measurement on this implementation (deterministic):
SCHOEN_BUDGET = 4000          # criterion 7/10 runs; measured solve rates 24-28/30
CLASSICAL_BUDGET = 6000       # criterion 8 manifest cap; measured 12/20 halo wins
BRANIN_DIRECT_BUDGET = 200    # criterion 8; DIRECT solves branin at eval 189
SPHERE_LS_BUDGET = 500        # criterion 6; measured solved at eval 92


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="session")
def schoen_reports():
    """Benchmark runs shared by criteria 7, 9 and 10, keyed (variant, beta)."""
    records = load_manifest(SCHOEN30)
    reports = {}
    for variant, beta in (("halo", 1e-4), ("hlo", 1e-4), ("halo", 1e-2), ("halo", 1e-6)):
        cfg = SolverConfig(variant=variant, beta=beta, stop=StopRule(max_fun_evals=SCHOEN_BUDGET))
        reports[(variant, beta)] = run_benchmark(records, cfg)
    return reports


@pytest.fixture(scope="session")
def classical_reports():
    """HALO and DIRECT over the frozen 20-problem classical manifest."""
    records = load_manifest(CLASSICAL20)
    out = {}
    for variant in ("halo", "direct"):
        cfg = SolverConfig(variant=variant, stop=StopRule(max_fun_evals=CLASSICAL_BUDGET))
        out[variant] = run_benchmark(records, cfg)
    return out


def test_criterion_1_iteration_zero_trace():
    with criterion(1, "iteration-zero trace: 5 evals, 5 partitions, exact size pattern"):
        for fn in (lambda x: float(np.sum(x)), lambda x: float(np.cos(9 * x[0]) * x[1])):
            h = unit_handle(fn, 2)
            trace = run(h, SolverConfig(stop=StopRule(max_fun_evals=5, max_iter=2)))
            assert trace.n_evals == 5
            assert len(trace.ledger) == 5
            got = sorted(tuple(sorted(row)) for row in HALF_SIDES[trace.ledger.levels].tolist())
            third = 0.5 / 3.0
            expected = sorted(
                [(third, third)] * 3 + [(third, 0.5)] * 2
            )
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-12)


def test_criterion_2_affine_slope_exactness():
    with criterion(2, "affine slopes exact per division; global max reaches gradient norm"):
        a = np.array([3.0, -2.0, 0.5])
        h = unit_handle(lambda x: float(a @ x), 3)
        ledger = init_root(h)
        all_coords_divided = False
        for _ in range(15):
            pid = int(np.argmax(ledger.half_diagonals()))
            before = ledger.levels[pid].copy()
            coords = cut_order(ledger, before, divide_partition(ledger, pid, h))
            for coord in coords:
                assert abs(ledger.slopes[pid][coord] - abs(a[coord])) <= 1e-12
            if set(coords) == {0, 1, 2}:
                all_coords_divided = True
            if all_coords_divided:
                assert abs(global_slope_max(ledger) - np.linalg.norm(a)) <= 1e-9


def test_criterion_3_blend_bracketing():
    with criterion(3, "blend stays between its arguments on 1e4 random triples"):
        rng = np.random.default_rng(2024)
        alphas = rng.uniform(0.0, 1.0, 10_000)
        alphas[alphas == 0.0] = 1.0  # alpha is in (0, 1]
        globals_ = rng.uniform(0.0, 1e6, 10_000)
        locals_ = rng.uniform(0.0, 1e6, 10_000)
        for a, g, s in zip(alphas, globals_, locals_):
            out = blend(a, g, s)
            assert min(g, s) - 1e-9 <= out <= max(g, s) + 1e-9
        for g, s in zip(globals_[:100], locals_[:100]):
            assert blend(1.0, g, s) == g


def test_criterion_4_selection_oracle_equivalence():
    with criterion(4, "selection matches brute force on 1000 random ledgers"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            ledger = random_ledger(rng, n, int(rng.integers(1, 21)))
            constants = blend_constants(ledger, global_slope_max(ledger))
            outcome = select_halo(ledger, constants)
            q1, q2, q3 = brute_force_halo_selection(
                ledger.values.tolist(), ledger.half_diagonals().tolist(), constants.tolist()
            )
            expected = []
            for q in (q1, q2, q3):
                if q not in expected:
                    expected.append(q)
            assert outcome.chosen == expected

            got = set(select_potentially_optimal(ledger, 1e-4))
            oracle = kgrid_potentially_optimal(
                ledger.values.tolist(), class_diagonals(ledger), 1e-4, n_grid=10_000
            )
            assert got == oracle


def test_criterion_5_denseness():
    with criterion(5, "3000-eval run covers every cell of an 8x8 grid"):
        # multimodal objective, optimum unknown to the solver so it never stops early
        h = ObjectiveHandle(
            lambda x: float(rastrigin(x)), BoxDomain([-5.12, -5.12], [5.12, 5.12])
        )
        cfg = SolverConfig(variant="halo", beta=0.0,
                           stop=StopRule(max_fun_evals=3000))
        trace = run(h, cfg)
        cells = {
            (min(int(r.point[0] * 8), 7), min(int(r.point[1] * 8), 7)) for r in trace.evals
        }
        assert len(cells) == 64
        assert trace.ledger.half_diagonals().max() < np.sqrt(2.0) / 2.0


def test_criterion_6_local_search_gate(monkeypatch):
    with criterion(6, "beta=0 is bit-identical to a gate that divides every box; shifted sphere solves in budget"):
        objective = lambda x: float(np.sum((x - 0.37) ** 2))
        t_zero = run(
            unit_handle(objective, 2),
            SolverConfig(variant="halo", beta=0.0, stop=StopRule(max_fun_evals=800)),
        )
        # a run with no local search: every chosen id is divided, in order
        with monkeypatch.context() as m:
            m.setattr(halo.solver, "gate_local_search", lambda *args: SELECT_FOR_DIVISION)
            t_off = run(
                unit_handle(objective, 2),
                SolverConfig(variant="halo", stop=StopRule(max_fun_evals=800)),
            )
        assert t_zero.n_local_searches == 0
        assert len(t_zero.evals) == len(t_off.evals)
        for a, b in zip(t_zero.evals, t_off.evals):
            assert a.value == b.value and a.best == b.best
            assert np.array_equal(a.point, b.point)

        prob = shift_minimizer(classical_problem("sphere", 2), seed=3)
        trace = run(
            prob.make_handle(),
            SolverConfig(variant="halo", beta=1e-4, stop=StopRule(max_fun_evals=SPHERE_LS_BUDGET)),
        )
        assert trace.status == "solved"
        assert trace.n_evals <= SPHERE_LS_BUDGET


def test_criterion_7_variant_ordering(schoen_reports):
    with criterion(7, "halo solves at least as many schoen problems as hlo, no slower"):
        halo = schoen_reports[("halo", 1e-4)]
        hlo = schoen_reports[("hlo", 1e-4)]
        halo_solved = sum(r.solved for r in halo.rows)
        hlo_solved = sum(r.solved for r in hlo.rows)
        assert halo_solved >= hlo_solved
        common = [(a, b) for a, b in zip(halo.rows, hlo.rows) if a.solved and b.solved]
        assert common
        avg_halo = math.fsum(a.fevals for a, _ in common) / len(common)
        avg_hlo = math.fsum(b.fevals for _, b in common) / len(common)
        assert avg_halo <= 1.1 * avg_hlo
        print(
            f"    halo {halo_solved}/30 solved (avg {avg_halo:.0f} evals on common), "
            f"hlo {hlo_solved}/30 (avg {avg_hlo:.0f})",
            end=" ",
        )


def test_criterion_8_direct_baseline(classical_reports):
    with criterion(8, "DIRECT solves branin in frozen budget; halo beats it on >= 60%"):
        trace = run(
            classical_problem("branin", 2).make_handle(),
            SolverConfig(variant="direct", stop=StopRule(max_fun_evals=BRANIN_DIRECT_BUDGET)),
        )
        assert trace.status == "solved"

        halo_rows = classical_reports["halo"].rows
        direct_rows = classical_reports["direct"].rows
        wins = sum(
            1 for a, b in zip(halo_rows, direct_rows) if a.solved and a.fevals <= b.fevals
        )
        assert wins / len(halo_rows) >= 0.60
        print(f"    halo no-worse on {wins}/{len(halo_rows)} problems", end=" ")


def test_criterion_9_metrics(schoen_reports, classical_reports):
    with criterion(9, "AUOC trivial cases exact; OC nondecreasing on all outputs"):
        def rec(solved, fevals):
            return RunRecord("p", 2, "halo", solved, fevals, 0.0, 0.0)

        assert auoc(step_curve([rec(True, 0)] * 3), 100.0) == 1.0
        assert auoc(step_curve([rec(False, 100)] * 3), 100.0) == 0.0
        half = [rec(True, 50), rec(True, 50), rec(False, 100), rec(False, 100)]
        assert auoc(step_curve(half), 100.0) == 0.25

        reports = list(schoen_reports.values()) + list(classical_reports.values())
        for report in reports:
            grid = np.linspace(0, report.gamma_max, 500)
            curve = step_curve(report.rows)
            c = [curve.value(g) for g in grid]
            assert np.all(np.diff(c) >= 0.0)
            assert 0.0 <= report.auoc <= 1.0


def test_criterion_10_beta_sensitivity(schoen_reports):
    with criterion(10, "solved percentage spread <= 15 points across beta grid"):
        percentages = [
            schoen_reports[("halo", beta)].percent_solved for beta in (1e-2, 1e-4, 1e-6)
        ]
        spread = max(percentages) - min(percentages)
        assert spread <= 15.0
        print(
            "    solved% by beta {1e-2,1e-4,1e-6}: "
            + ", ".join(f"{p:.1f}" for p in percentages)
            + f" (spread {spread:.1f})",
            end=" ",
        )


def test_criterion_11_variable_importance():
    with criterion(11, "importance favors the stiff coordinate and sums to one"):
        h = ObjectiveHandle(
            lambda x: float(100.0 * x[0] ** 2 + x[1] ** 2),
            BoxDomain([0.0, 0.0], [1.0, 1.0]),
        )
        trace = run(h, SolverConfig(variant="halo", stop=StopRule(max_fun_evals=500)))
        vi = variable_importance(trace.ledger)
        assert abs(math.fsum(vi) - 1.0) <= 1e-12
        assert vi[0] > vi[1]
        assert vi[0] > 0.9
