import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halo.solver
from halo.geometry import PartitionLedger, StopRule
from halo.lipschitz import blend_constants, global_slope_max, lower_bounds
from halo.selection import select_halo, select_potentially_optimal
from halo.solver import SolverConfig, run

from conftest import class_diagonals, random_ledger, random_levels, random_objective, unit_handle
from oracles import brute_force_halo_selection, kgrid_potentially_optimal, per_class_potentially_optimal

EPSILONS = (0.0, 1e-4, 0.5)


def ledger_from_rows(rows):
    """rows: (levels, value, slopes) triples, all same dimension."""
    n = len(rows[0][0])
    ledger = PartitionLedger(n)
    for levels, value, slopes in rows:
        ledger.append(np.full(n, 0.5), levels, value, slopes)
    return ledger


def test_single_partition_gets_all_flags():
    ledger = ledger_from_rows([([0, 0], 1.0, [0.0, 0.0])])
    outcome = select_halo(ledger, np.array([0.0]))
    assert outcome.chosen == [0]
    assert outcome.lowest_bound == outcome.lowest_value == outcome.largest_best == 0


def test_equal_diagonals_and_constants_pick_lower_value():
    ledger = ledger_from_rows(
        [([0, 0], 1.0, [0.0, 0.0]), ([0, 0], 2.0, [0.0, 0.0])]
    )
    outcome = select_halo(ledger, np.array([1.0, 1.0]))
    assert outcome.chosen == [0]
    assert outcome.lowest_bound == outcome.lowest_value == outcome.largest_best == 0


def test_three_partition_worked_example():
    # A(value .9, levels (1, 1)), B(1.0, root), C(.5, levels (1, 1)); half
    # diagonals .236, .707, .236 and all constants 1:
    # bounds A=.664 B=.293 C=.264 -> crit1=C, crit2=C, crit3=B
    ledger = PartitionLedger(2)
    for value, level in ((0.9, 1), (1.0, 0), (0.5, 1)):
        ledger.append([0.5, 0.5], [level, level], value)
    constants = np.ones(3)
    outcome = select_halo(ledger, constants)
    assert outcome.chosen == [2, 1]
    assert outcome.lowest_bound == outcome.lowest_value == 2
    assert outcome.largest_best == 1


def test_hlo_three_partition_worked_example():
    # same ledger as above under the shared global constant 1: outcome {C, B}
    ledger = PartitionLedger(2)
    for value, level in ((0.9, 1), (1.0, 0), (0.5, 1)):
        ledger.append([0.5, 0.5], [level, level], value)
    outcome = select_halo(ledger, 1.0)
    assert outcome.chosen == [2, 1]


def test_hlo_single_partition():
    ledger = ledger_from_rows([([0, 0], 1.0, [0.0, 0.0])])
    assert select_halo(ledger, 3.0).chosen == [0]


def test_brute_force_agreement(rng):
    for _ in range(150):
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
        assert (outcome.lowest_bound, outcome.lowest_value, outcome.largest_best) == (q1, q2, q3)


def test_hlo_equals_halo_when_slope_norms_equal(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        ledger = PartitionLedger(n)
        count = int(rng.integers(1, 15))
        norm = float(rng.uniform(0.5, 3.0))
        for _ in range(count):
            slopes = np.zeros(n)
            slopes[0] = norm  # every row has the same norm
            ledger.append(rng.uniform(0, 1, n), random_levels(rng, n, 1), rng.uniform(-2, 2), slopes)
        g = global_slope_max(ledger)
        constants = blend_constants(ledger, g)
        a = select_halo(ledger, constants)
        b = select_halo(ledger, g)
        assert a.chosen == b.chosen


def test_scalar_constant_is_every_local_constant_replaced(rng):
    # hlo passes the global constant as a scalar: it must act as that
    # constant repeated for every partition
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ledger = random_ledger(rng, n, int(rng.integers(1, 25)))
        g = float(rng.uniform(0.0, 10.0))
        full = np.full(len(ledger), g)
        assert lower_bounds(ledger, g).tobytes() == lower_bounds(ledger, full).tobytes()
        a, b = select_halo(ledger, g), select_halo(ledger, full)
        assert a == b


def test_selection_scale_invariance(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        ledger = random_ledger(rng, n, int(rng.integers(2, 20)))
        scale = float(rng.uniform(0.01, 100.0))
        scaled = PartitionLedger(n)
        for i in range(len(ledger)):
            scaled.append(
                ledger.centers[i],
                ledger.levels[i],
                scale * ledger.values[i],
                scale * ledger.slopes[i],
            )
        base = select_halo(ledger, blend_constants(ledger, global_slope_max(ledger)))
        big = select_halo(scaled, blend_constants(scaled, global_slope_max(scaled)))
        assert base.chosen == big.chosen


def test_dedup_at_most_three(rng):
    for _ in range(100):
        ledger = random_ledger(rng, 2, int(rng.integers(1, 25)))
        outcome = select_halo(ledger, blend_constants(ledger, global_slope_max(ledger)))
        assert 1 <= len(outcome.chosen) <= 3
        assert len(set(outcome.chosen)) == len(outcome.chosen)


def test_criterion3_picks_lowest_bound_not_lowest_constant():
    # two max-diagonal partitions; bounds prefer one, constants the other
    ledger = PartitionLedger(1)
    ledger.append([0.5], [0], 5.0, [0.2])   # low constant, bad bound
    ledger.append([0.5], [0], 0.0, [3.0])   # high constant, good bound
    constants = np.array([0.2, 3.0])
    assert select_halo(ledger, constants).largest_best == 1


def test_potentially_optimal_single():
    ledger = ledger_from_rows([([0, 0], 1.0, [0.0, 0.0])])
    assert select_potentially_optimal(ledger, 1e-4) == [0]


def test_potentially_optimal_dominated_same_size():
    ledger = ledger_from_rows(
        [([0, 0], 1.0, [0.0, 0.0]), ([0, 0], 2.0, [0.0, 0.0])]
    )
    assert select_potentially_optimal(ledger, 0.0) == [0]


def test_potentially_optimal_three_point_hull():
    # (halfdiag, value) = (1/18, 1.0), (1/6, 0.9), (1/2, 1.5) with eps = 0:
    # the first point is cut off by the hull, the other two survive
    ledger = PartitionLedger(1)
    ledger.append([0.5], [2], 1.0)
    ledger.append([0.5], [1], 0.9)
    ledger.append([0.5], [0], 1.5)
    got = select_potentially_optimal(ledger, 0.0)
    assert got == [1, 2]
    oracle = kgrid_potentially_optimal([1.0, 0.9, 1.5], [0.5 / 9, 0.5 / 3, 0.5], 0.0)
    assert set(got) == oracle


def test_potentially_optimal_kgrid_agreement(rng):
    for _ in range(60):
        n = int(rng.integers(1, 4))
        ledger = random_ledger(rng, n, int(rng.integers(1, 21)))
        for eps in (0.0, 1e-4):
            got = select_potentially_optimal(ledger, eps)
            oracle = kgrid_potentially_optimal(
                ledger.values.tolist(), class_diagonals(ledger), eps, n_grid=2000
            )
            assert set(got) == oracle
        assert got == sorted(got)


def test_potentially_optimal_epsilon_prunes_near_incumbent():
    # big box barely above f_min passes eps=0 but fails a huge eps
    ledger = PartitionLedger(1)
    ledger.append([0.5], [1], 1.0)
    ledger.append([0.5], [0], 1.0000001)
    assert select_potentially_optimal(ledger, 0.0) == [0, 1]
    got = select_potentially_optimal(ledger, 0.5)  # eps_abs = 0.5
    assert 0 not in got


def test_permuted_sides_form_one_size_class():
    # same sides in another order: the norms differ in the last bit, yet the
    # boxes are one size, so the one with the lower value wins both rules
    ledger = PartitionLedger(4)
    ledger.append(np.full(4, 0.5), [1, 1, 1, 0], 0.0)
    ledger.append(np.full(4, 0.5), [0, 1, 1, 1], 1.0)
    ledger.append(np.full(4, 0.5), [2, 2, 2, 2], 0.5)
    diags = ledger.half_diagonals()
    assert diags[0] < diags[1]
    assert select_potentially_optimal(ledger, 0.0) == [0]
    outcome = select_halo(ledger, np.zeros(3))
    assert outcome.largest_best == 0


def assert_matches_per_class_loop(ledger):
    for eps in EPSILONS:
        expected = per_class_potentially_optimal(ledger.depths, ledger.half_diagonals(), ledger.values, eps)
        assert select_potentially_optimal(ledger, eps) == expected


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=1, max_value=600),
    variant=st.sampled_from(("direct", "halo")),
)
@settings(max_examples=40, deadline=None)
def test_potentially_optimal_matches_per_class_loop_on_run_ledgers(seed, n, budget, variant):
    cfg = SolverConfig(variant=variant, beta=1e-2, stop=StopRule(max_fun_evals=budget))
    assert_matches_per_class_loop(run(unit_handle(random_objective(seed, n), n), cfg).ledger)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_potentially_optimal_matches_per_class_loop_on_random_ledgers(seed, n, count):
    assert_matches_per_class_loop(random_ledger(np.random.default_rng(seed), n, count))


# a small pool makes ties, all-equal ledgers and f_min == 0 common
EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]),
    st.floats(min_value=-10.0, max_value=10.0),
)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=3),
    values=st.lists(EDGE_VALUES, min_size=1, max_size=30),
)
@example(seed=0, n=2, values=[1.0] * 6)
@example(seed=1, n=1, values=[0.0, 3.0, 0.0, 1.0])
@example(seed=2, n=3, values=[np.nan, 1.0, 0.5, np.nan])
@example(seed=3, n=2, values=[np.inf, -np.inf, np.inf, 0.0])
@settings(max_examples=200, deadline=None)
def test_potentially_optimal_matches_per_class_loop_on_edge_values(seed, n, values):
    rng = np.random.default_rng(seed)
    ledger = PartitionLedger(n)
    for value in values:
        ledger.append(rng.uniform(0.0, 1.0, n), random_levels(rng, n), value)
    assert_matches_per_class_loop(ledger)


def test_potentially_optimal_matches_per_class_loop_along_a_direct_run(monkeypatch):
    # every selection of a 4-D solve, where rows of one depth hold the same
    # sides in different orders and so differ in half diagonal by an ulp
    split_classes = []

    def checked(ledger, epsilon_rel):
        assert_matches_per_class_loop(ledger)
        diags, depths = ledger.half_diagonals(), ledger.depths
        split_classes.append(any(np.ptp(diags[depths == d]) > 0.0 for d in set(depths.tolist())))
        return select_potentially_optimal(ledger, epsilon_rel)

    monkeypatch.setattr(halo.solver, "select_potentially_optimal", checked)
    cfg = SolverConfig(variant="direct", stop=StopRule(max_fun_evals=2000))
    run(unit_handle(random_objective(0, 4), 4), cfg)
    assert any(split_classes)
