import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halo.geometry import (
    HALF_SIDES,
    MAX_LEVEL,
    BoxDomain,
    DomainViolationError,
    ObjectiveError,
    ObjectiveHandle,
    PartitionLedger,
    StopRule,
    denormalize_point,
    half_diagonal_table,
)
from halo.partitioning import divide_partition

from conftest import ledger_bytes, tiles_cube, unit_handle


def test_denormalize_midpoint():
    d = BoxDomain([-5.0, 0.0], [5.0, 10.0])
    assert np.allclose(denormalize_point([0.5, 0.5], d), [0.0, 5.0])


def test_denormalize_ones_gives_upper():
    d = BoxDomain([-2.0, 3.0], [7.0, 4.0])
    assert np.array_equal(denormalize_point(np.ones(2), d), d.upper)


def test_denormalize_third():
    d = BoxDomain([0.0], [3.0])
    assert np.allclose(denormalize_point([1.0 / 3.0], d), [1.0])


def test_denormalize_range_check():
    d = BoxDomain([0.0], [1.0])
    with pytest.raises(DomainViolationError):
        denormalize_point([1.1], d)


def test_round_trip_many_random_points():
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        lower = rng.uniform(-100.0, 0.0, n)
        upper = lower + rng.uniform(0.1, 200.0, n)
        d = BoxDomain(lower, upper)
        q = rng.uniform(0.0, 1.0, (100, n))
        for row in q:
            back = (denormalize_point(row, d) - d.lower) / d.widths
            assert np.all(np.abs(back - row) <= 1e-12)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=4, seed=1783028)  # width 0.0119 next to a bound of 330.9: the error is 1.43e-12
@settings(max_examples=50, deadline=None)
def test_round_trip_hypothesis(n, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1e3, 1e3, n)
    upper = lower + rng.uniform(1e-3, 1e3, n)
    d = BoxDomain(lower, upper)
    q = rng.uniform(0.0, 1.0, n)
    # the product, the sum and the difference each round by at most an ulp of
    # the largest bound, which the division by the width scales up; the
    # division adds half an ulp of q.  Both terms carry a margin.
    bound = 4.0 * np.spacing(np.maximum(np.abs(d.lower), np.abs(d.upper))) / d.widths + 2.0 * np.spacing(q)
    assert np.all(np.abs((denormalize_point(q, d) - d.lower) / d.widths - q) <= bound)


def test_box_domain_validation():
    with pytest.raises(ValueError):
        BoxDomain([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        BoxDomain([], [])
    for lower, upper in (([-np.inf], [0.0]), ([0.0, 0.0], [1.0, np.inf])):
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(lower, upper)
    # finite bounds whose width overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        BoxDomain([-1e308], [1e308])


def test_domain_widths_are_computed_once_and_read_only():
    d = BoxDomain([-3.0, 2.0, 0.5], [1.0, 4.0, 2.0])
    assert d.widths.tobytes() == (d.upper - d.lower).tobytes()
    assert d.widths is d.widths
    with pytest.raises(ValueError):
        d.widths[0] = 1.0


def test_stop_rule_validation():
    StopRule()
    StopRule(max_fun_evals=np.int64(20), max_iter=np.int32(3))
    with pytest.raises(ValueError):
        StopRule(max_fun_evals=0)
    with pytest.raises(ValueError):
        StopRule(rel_error_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(max_iter=0)
    with pytest.raises(ValueError):
        StopRule(rel_error_tol=float("nan"))


@pytest.mark.parametrize("limits", [
    {"max_iter": 2.5}, {"max_fun_evals": 20.5}, {"max_fun_evals": True}, {"max_iter": False},
    {"max_fun_evals": 20.0}, {"max_iter": np.bool_(True)}, {"max_fun_evals": "20"},
])
def test_stop_rule_rejects_limits_that_are_not_integers(limits):
    with pytest.raises(ValueError, match="must be an integer"):
        StopRule(**limits)


def test_eval_count_increments_once_per_call():
    calls = []
    h = ObjectiveHandle(lambda x: calls.append(1) or float(x[0]), BoxDomain([0.0], [2.0]))
    h.evaluate([1.0])
    h.eval_normalized([0.25])
    assert h.eval_count == len(calls) == 2


def test_eval_count_starts_at_zero_and_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        ObjectiveHandle(lambda x: 0.0, BoxDomain([0.0], [1.0]), eval_count=1)
    assert ObjectiveHandle(lambda x: 0.0, BoxDomain([0.0], [1.0]), 0.5).known_optimum == 0.5


def test_eval_normalized_denormalizes():
    seen = []
    h = ObjectiveHandle(lambda x: seen.append(x.copy()) or 0.0, BoxDomain([10.0], [20.0]))
    h.eval_normalized([0.5])
    assert np.allclose(seen[0], [15.0])


def test_to_problem_units_clips_to_the_faces_and_checks_the_shape():
    h = ObjectiveHandle(lambda x: 0.0, BoxDomain([10.0, -1.0], [20.0, 1.0]))
    block = np.array([[-1e-17, 0.5], [1.0 + 1e-15, 1.0]])
    assert np.array_equal(h.to_problem_units(block), [[10.0, 0.0], [20.0, 1.0]])
    for bad in ([0.5, 0.5, 0.5], [[[0.5, 0.5]]]):
        with pytest.raises(DomainViolationError):
            h.to_problem_units(bad)
    with pytest.raises(DomainViolationError):
        h.eval_normalized([0.5, 0.5, 0.5])
    assert h.eval_count == 0


def test_objective_error_wraps_and_does_not_count():
    def bad(x):
        raise RuntimeError("boom")

    h = ObjectiveHandle(bad, BoxDomain([0.0], [1.0]))
    with pytest.raises(ObjectiveError):
        h.evaluate([0.5])
    assert h.eval_count == 0


def test_ledger_ids_dense_and_append_only():
    ledger = PartitionLedger(2)
    ids = [ledger.append(np.full(2, 0.5), [0, 0], float(i)) for i in range(100)]
    assert ids == list(range(100))
    assert len(ledger) == 100
    # growth must preserve earlier rows
    assert ledger.values[0] == 0.0 and ledger.values[99] == 99.0
    assert ledger.half_diagonals()[5] == pytest.approx(np.sqrt(2.0) / 2.0)


def test_ledger_slope_norms_survive_growth():
    ledger = PartitionLedger(2)
    for i in range(100):  # past the initial capacity of 64 rows
        ledger.append(np.full(2, 0.5), [0, 0], 0.0, [3.0 * i, 4.0 * i])
    norms = ledger.slope_norms()
    assert norms.tolist() == [5.0 * i for i in range(100)]
    assert norms.tobytes() == np.linalg.norm(ledger.slopes, axis=1).tobytes()


def test_ledger_views_are_read_only():
    ledger = PartitionLedger(2)
    ledger.append(np.full(2, 0.5), [0, 0], 1.0, [3.0, 4.0])
    views = (
        ledger.centers,
        ledger.levels,
        ledger.values,
        ledger.slopes,
        ledger.depths,
        ledger.half_diagonals(),
        ledger.slope_norms(),
    )
    for view in views:
        with pytest.raises(ValueError):
            view[0] = 0
    ledger.append(np.full(2, 0.5), [1, 1], 2.0, [0.0, 1.0])
    assert ledger.values.tolist() == [1.0, 2.0]
    assert ledger.slope_norms().tolist() == [5.0, 1.0]


def test_ledger_partition_copies_are_detached():
    ledger = PartitionLedger(1)
    ledger.append([0.5], [0], 1.0, [2.0])
    sides = HALF_SIDES[ledger.levels]
    sides[0, 0] = 99.0
    assert HALF_SIDES[ledger.levels[0, 0]] == 0.5
    assert ledger.half_diagonals()[0] == 0.5


def test_ledger_rejects_negative_slopes():
    ledger = PartitionLedger(1)
    with pytest.raises(ValueError):
        ledger.append([0.5], [0], 1.0, [-0.5])
    ledger.append([0.5], [0], 1.0, [2.0])
    centers, values, levels = np.array([[5 / 6], [1 / 6]]), np.zeros(2), np.ones((3, 1), dtype=int)
    for bad_row in (0, 2):  # the parent's row, then a child's
        slopes = np.zeros((3, 1))
        slopes[bad_row] = -1.0
        with pytest.raises(ValueError):
            ledger.divide([0], centers, values, levels, slopes)
    assert len(ledger) == 1
    assert ledger.levels.tolist() == [[0]] and ledger.slopes.tolist() == [[2.0]]
    assert ledger.slope_norms().tolist() == [2.0]


def test_root_volume():
    ledger = PartitionLedger(3)
    ledger.append(np.full(3, 0.5), np.zeros(3, dtype=int), 0.0)
    assert tiles_cube(ledger)


def test_half_side_table_is_repeated_division_to_underflow():
    side = 0.5
    for level in range(MAX_LEVEL + 1):
        assert HALF_SIDES[level] == side
        side /= 3.0
    assert MAX_LEVEL == 678
    assert HALF_SIDES[MAX_LEVEL] == 0.0 < HALF_SIDES[MAX_LEVEL - 1]


def sorted_level_rows(n):
    """Row ``d``: the levels of a box of depth ``d``, ascending, so ``n - m`` at ``k`` then ``m`` at ``k + 1``."""
    rows = []
    for d in range(n * MAX_LEVEL + 1):
        k, m = divmod(d, n)
        rows.append([k] * (n - m) + [k + 1] * m)
    return np.array(rows)


@pytest.mark.parametrize("n", range(1, 11))
def test_half_diagonal_table_is_the_norm_of_the_sorted_level_row(n):
    table = half_diagonal_table(n)
    assert table.shape == (n * MAX_LEVEL + 1,) and not table.flags.writeable
    sides = HALF_SIDES[sorted_level_rows(n)]
    normal = (sides**2 >= np.finfo(float).tiny).all(axis=1)
    assert normal[: 300 * n].all() and not normal[339 * n]
    assert table[normal].tobytes() == np.linalg.norm(sides[normal], axis=1).tobytes()
    # where the squares are subnormal, within a few ulps of an exact hypot
    for d in np.flatnonzero(~normal)[:-1]:
        exact = math.hypot(*sides[d].tolist())
        assert abs(table[d] - exact) <= 4 * math.ulp(exact)
    # positive and nonincreasing below n * MAX_LEVEL, where every side is 0.0
    assert (table[:-1] > 0.0).all() and table[-1] == 0.0
    assert (np.diff(table) <= 0.0).all()


@pytest.mark.parametrize("n", range(1, 11))
def test_rows_of_one_depth_have_one_half_diagonal(n):
    # the m sides at k + 1 in random places, at depths around the level where squares underflow
    rng = np.random.default_rng(n)
    ledger = PartitionLedger(n)
    for k in (0, 1, 7, 338, 339, 400, MAX_LEVEL - 1):
        for m in range(n):
            for _ in range(6):
                levels = np.full(n, k)
                levels[rng.choice(n, m, replace=False)] += 1
                ledger.append(np.full(n, 0.5), levels, 0.0)
    diags, depths = ledger.half_diagonals(), ledger.depths
    assert (diags > 0.0).all()
    for d in set(depths.tolist()):
        assert len(set(diags[depths == d].tolist())) == 1
    assert diags.tobytes() == half_diagonal_table(n)[depths].tobytes()


def test_half_diagonal_at_level_400_is_positive():
    # the squares of these sides underflow to 0.0; the box does not
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [400, 400], 0.0)
    assert HALF_SIDES[400] ** 2 == 0.0
    diag = ledger.half_diagonals()[0]
    assert diag > 0.0
    assert diag == pytest.approx(math.sqrt(2.0) * HALF_SIDES[400], rel=1e-15, abs=0.0)


def test_ledger_rejects_rows_of_another_dimension():
    ledger = PartitionLedger(3)
    for center, slopes in (([0.5, 0.5, 0.5], [2.0]), ([0.5], [2.0, 2.0, 2.0]), (0.5, None),
                           ([0.5, 0.5, 0.5], [[2.0, 2.0, 2.0]]), ([0.5] * 4, None)):
        with pytest.raises(ValueError):
            ledger.append(center, [0, 0, 0], 1.0, slopes)
    assert len(ledger) == 0
    ledger.append([0.5, 0.5, 0.5], [0, 0, 0], 1.0, [2.0, 2.0, 2.0])
    before = ledger_bytes(ledger)
    centers, levels = np.array([[1 / 6, 0.5, 0.5], [5 / 6, 0.5, 0.5]]), [[1, 0, 0]] * 3
    for bad in ({"slopes": [[2.0]] * 3}, {"levels": [[1]] * 3}, {"centers": centers[:, :1]}):
        args = {"centers": centers, "levels": levels, "slopes": [[2.0, 2.0, 2.0]] * 3} | bad
        with pytest.raises(ValueError):
            ledger.divide([0], values=[1.0, 1.0], **args)
    assert ledger_bytes(ledger) == before
    assert ledger.slope_norms().tobytes() == np.linalg.norm(ledger.slopes, axis=1).tobytes()


def test_ledger_rejects_unreachable_levels():
    ledger = PartitionLedger(2)
    for bad in ([0, 2], [-1, 0], [MAX_LEVEL, MAX_LEVEL + 1], [0.5, 0.5], [0, 0, 0]):
        with pytest.raises(ValueError):
            ledger.append([0.5, 0.5], bad, 0.0)
    assert len(ledger) == 0
    ledger.append([0.5, 0.5], [3, 4], 0.0)
    assert ledger.depths.tolist() == [7]


def step(center, p, delta):
    """``center`` moved by ``delta`` along coordinate ``p``, as a tuple."""
    point = list(center)
    point[p] += delta
    return tuple(point)


def lookup_handle(n, values):
    """Unit-cube handle worth ``values[point]`` at each listed point; any other point raises."""
    return unit_handle(lambda x: values[tuple(x.tolist())], n)


def test_trisect_cuts_only_longest_sides_and_refreshes_caches():
    ledger = PartitionLedger(3)
    ledger.append(np.full(3, 0.5), [1, 0, 0], 0.0)
    # sides 1 and 2 are the longest; side 2 holds the lower value, so it is cut first
    center, delta = (0.5, 0.5, 0.5), float(2.0 * HALF_SIDES[0] / 3.0)
    points = [step(center, 1, delta), step(center, 1, -delta), step(center, 2, delta), step(center, 2, -delta)]
    h = lookup_handle(3, dict(zip(points, [4.0, 5.0, 1.0, 6.0])))
    assert divide_partition(ledger, [0], h) == [1, 2, 3, 4]
    assert ledger.levels.tolist() == [[1, 1, 1], [1, 0, 1], [1, 0, 1], [1, 1, 1], [1, 1, 1]]
    assert ledger.depths.tolist() == [3, 2, 2, 3, 3]
    assert ledger.values.tolist() == [0.0, 1.0, 6.0, 4.0, 5.0]
    assert ledger.centers[1:].tobytes() == np.array(points)[[2, 3, 0, 1]].tobytes()
    assert ledger.half_diagonals().tobytes() == np.linalg.norm(HALF_SIDES[np.sort(ledger.levels, axis=1)], axis=1).tobytes()


def test_block_divide_appends_children_in_block_order():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 1], 0.0)
    ledger.append([0.5, 0.2], [1, 1], 1.0)
    # partition 1 cuts 1 then 0, partition 0 its one longest side 0
    first, second = float(2.0 * HALF_SIDES[0] / 3.0), float(2.0 * HALF_SIDES[1] / 3.0)
    h = lookup_handle(2, {
        step((0.5, 0.2), 0, second): 3.0, step((0.5, 0.2), 0, -second): 3.0,
        step((0.5, 0.2), 1, second): 2.0, step((0.5, 0.2), 1, -second): 2.0,
        step((0.5, 0.5), 0, first): 3.0, step((0.5, 0.5), 0, -first): 3.0,
    })
    ids = divide_partition(ledger, [1, 0], h)
    assert h.eval_count == 6
    assert ids == [2, 3, 4, 5, 6, 7]
    assert ledger.levels.tolist() == [
        [1, 1], [2, 2],
        [1, 2], [1, 2], [2, 2], [2, 2],  # the children of 1, after each cut
        [1, 1], [1, 1],  # the children of 0
    ]
    delta = 2.0 * HALF_SIDES[1] / 3.0
    assert ledger.centers[2:4].tolist() == [[0.5, 0.2 + delta], [0.5, 0.2 - delta]]
    assert ledger.values.tolist() == [0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]
    assert ledger.half_diagonals().tobytes() == np.linalg.norm(HALF_SIDES[np.sort(ledger.levels, axis=1)], axis=1).tobytes()


def test_divide_partition_below_float_resolution_raises_and_writes_nothing():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 0], 0.0)
    ledger.append([0.5, 0.5], [MAX_LEVEL, MAX_LEVEL], 0.0)
    before = ledger_bytes(ledger)
    h = unit_handle(lambda x: 0.0, 2)
    seen = []
    # the block raises before anything of it, partition 0 included, is evaluated
    with pytest.raises(ZeroDivisionError):
        divide_partition(ledger, [0, 1], h, on_eval=lambda q, f: seen.append(q))
    assert h.eval_count == 0 and seen == []
    assert len(ledger) == 2 and ledger_bytes(ledger) == before
