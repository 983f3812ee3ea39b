import numpy as np
import pytest

from halo.geometry import HALF_SIDES, PartitionLedger, StopRule
from halo.partitioning import divide_partition, init_root
from halo.solver import STATUS_BUDGET, SolverConfig, run

from conftest import cut_order, tiles_cube, unit_handle


def lookup_objective(plus, minus):
    """Objective worth plus[i] / minus[i] at center +/- delta * e_i, 0 at the center."""

    def fn(x):
        offset = x - 0.5
        i = int(np.argmax(np.abs(offset)))
        if offset[i] == 0.0:
            return 0.0
        return float((plus if offset[i] > 0.0 else minus)[i])

    return fn


def test_init_root_n2():
    h = unit_handle(lambda x: float(np.sum(x)), 2)
    ledger = init_root(h)
    assert len(ledger) == 1
    assert h.eval_count == 1
    assert np.array_equal(ledger.centers[0], [0.5, 0.5])
    assert ledger.half_diagonals()[0] == pytest.approx(np.sqrt(2.0) / 2.0)
    assert np.array_equal(ledger.slopes[0], np.zeros(2))


def test_init_root_n1():
    h = unit_handle(lambda x: 0.0, 1)
    ledger = init_root(h)
    assert np.array_equal(ledger.centers[0], [0.5])
    assert np.array_equal(ledger.levels[0], [0])
    assert np.array_equal(HALF_SIDES[ledger.levels[0]], [0.5])


def test_init_root_n10():
    h = unit_handle(lambda x: 1.0, 10)
    ledger = init_root(h)
    assert len(ledger) == 1
    assert h.eval_count == 1


def test_longest_sides_tie():
    # equal values cut the longest sides in ascending order
    h = unit_handle(lambda x: 0.0, 2)
    ledger = init_root(h)
    assert cut_order(ledger, [0, 0], divide_partition(ledger, 0, h)) == [0, 1]


def test_longest_sides_single():
    h = unit_handle(lambda x: 0.0, 2)
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 1], 0.0)
    assert HALF_SIDES[ledger.levels[0, 1]] == 1.0 / 6.0
    assert cut_order(ledger, [0, 1], divide_partition(ledger, 0, h)) == [0]


def test_longest_sides_last_coord():
    h = unit_handle(lambda x: 0.0, 3)
    ledger = PartitionLedger(3)
    ledger.append([0.5, 0.5, 0.5], [1, 1, 0], 0.0)
    assert cut_order(ledger, [1, 1, 0], divide_partition(ledger, 0, h)) == [2]


def test_sample_root_unit_square():
    h = unit_handle(lambda x: float(np.sum(x**2)), 2)
    ledger = init_root(h)
    ids = divide_partition(ledger, 0, h)
    points = ledger.centers[ids]
    assert np.abs(points - 0.5).max(axis=1) == pytest.approx([1.0 / 3.0] * 4)
    assert cut_order(ledger, [0, 0], ids) == [0, 1]
    assert h.eval_count == 5  # root + 4 samples
    expected = {(0.5 + 1 / 3, 0.5), (0.5 - 1 / 3, 0.5), (0.5, 0.5 + 1 / 3), (0.5, 0.5 - 1 / 3)}
    got = {tuple(np.round(p, 12)) for p in points}
    assert got == {tuple(np.round(np.array(e), 12)) for e in expected}


def test_sample_root_1d():
    h = unit_handle(lambda x: float(x[0]), 1)
    ledger = init_root(h)
    ids = divide_partition(ledger, 0, h)
    assert ledger.centers[ids[0]][0] == pytest.approx(5.0 / 6.0)
    assert ledger.centers[ids[1]][0] == pytest.approx(1.0 / 6.0)


def test_sample_rectangle_only_longest():
    h = unit_handle(lambda x: float(np.sum(x)), 2)
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [1, 0], h.eval_normalized([0.5, 0.5]))
    ids = divide_partition(ledger, 0, h)
    assert cut_order(ledger, [1, 0], ids) == [1]
    assert len(ids) == 2 and h.eval_count == 3
    assert ledger.centers[ids[0]][0] == 0.5  # untouched coordinate
    assert ledger.centers[ids[0]][1] == pytest.approx(0.5 + 1.0 / 3.0)
    assert ledger.centers[ids[1]][1] == pytest.approx(0.5 - 1.0 / 3.0)


def test_sample_points_inside_parent_box():
    rng = np.random.default_rng(3)
    h = unit_handle(lambda x: float(rng.standard_normal()), 3)
    ledger = init_root(h)
    center = ledger.centers[0].copy()
    sides = HALF_SIDES[ledger.levels[0]]
    ids = divide_partition(ledger, 0, h)
    assert len(ids) == 6
    for p in ledger.centers[ids]:
        assert np.all(np.abs(p - center) <= sides + 1e-15)


def test_sampling_evaluates_and_records_one_point_at_a_time():
    class Stop(Exception):
        pass

    evaluated = []
    h = unit_handle(lambda x: evaluated.append(x.copy()) or float(np.sum(x)), 3)
    ledger = init_root(h)
    recorded = []

    def on_eval(q, f):
        recorded.append(q.copy())
        if len(recorded) == 3:
            raise Stop

    with pytest.raises(Stop):
        divide_partition(ledger, 0, h, on_eval)
    assert len(evaluated) == 4 and h.eval_count == 4  # root + 3 samples
    assert len(ledger) == 1  # no division completed
    delta = 2.0 * float(HALF_SIDES[0]) / 3.0
    expected = []
    for coord, step in ((0, delta), (0, -delta), (1, delta)):  # +e0, -e0, +e1
        point = np.full(3, 0.5)
        point[coord] += step
        expected.append(point.tobytes())
    assert [q.tobytes() for q in recorded] == expected
    assert [x.tobytes() for x in evaluated[1:]] == expected  # unit box: same bits


def test_sample_budget_pre_check_spends_nothing():
    h = unit_handle(lambda x: 0.0, 2)
    trace = run(h, SolverConfig(variant="direct", stop=StopRule(max_fun_evals=4)))
    # the root's division needs 4 evaluations, only 3 fit
    assert trace.status == STATUS_BUDGET
    assert h.eval_count == trace.n_evals == 1
    assert len(trace.ledger) == 1
    assert divide_partition(trace.ledger, [], h) == []
    assert h.eval_count == 1 and len(trace.ledger) == 1


def test_division_order_sorts_by_min_value_then_coord():
    fn = lookup_objective(plus=[5.0, 1.0, 3.0], minus=[9.0, 2.0, 1.0])
    h = unit_handle(fn, 3)
    ledger = init_root(h)
    ids = divide_partition(ledger, 0, h)
    assert cut_order(ledger, [0, 0, 0], ids) == [1, 2, 0]
    # rows 2j and 2j + 1 are center +/- delta along the coordinate of cut j, with their values
    delta = 2.0 * HALF_SIDES[0] / 3.0
    for j, coord in enumerate([1, 2, 0]):
        for row, sign in ((2 * j, 1.0), (2 * j + 1, -1.0)):
            expected = np.full(3, 0.5)
            expected[coord] += sign * delta
            assert ledger.centers[ids[row]].tobytes() == expected.tobytes()
    assert ledger.values[ids].tolist() == [fn(c) for c in ledger.centers[ids]]
    # exact tie between coords 0 and 2 -> lower coordinate first
    h = unit_handle(lookup_objective(plus=[1.0, 5.0, 1.0], minus=[2.0, 6.0, 3.0]), 3)
    ledger = init_root(h)
    ids = divide_partition(ledger, 0, h)
    assert cut_order(ledger, [0, 0, 0], ids) == [0, 2, 1]


def test_divide_root_n2_order_0_then_1():
    h = unit_handle(lookup_objective(plus=[1.0, 3.0], minus=[2.0, 4.0]), 2)
    ledger = init_root(h)
    ids = divide_partition(ledger, 0, h)
    assert ids == [1, 2, 3, 4]
    sides = {i: tuple(HALF_SIDES[ledger.levels[i]]) for i in range(5)}
    third, half = 0.5 / 3.0, 0.5
    assert sides[1] == (third, half) and sides[2] == (third, half)
    assert sides[0] == (third, third)
    assert sides[3] == (third, third) and sides[4] == (third, third)


def test_divide_root_n2_order_1_then_0_mirrors():
    h = unit_handle(lookup_objective(plus=[3.0, 1.0], minus=[4.0, 2.0]), 2)
    ledger = init_root(h)
    divide_partition(ledger, 0, h)
    third, half = 0.5 / 3.0, 0.5
    assert tuple(HALF_SIDES[ledger.levels[1]]) == (half, third)
    assert tuple(HALF_SIDES[ledger.levels[2]]) == (half, third)
    assert tuple(HALF_SIDES[ledger.levels[0]]) == (third, third)


def test_divide_root_1d():
    h = unit_handle(lambda x: float(x[0]), 1)
    ledger = init_root(h)
    divide_partition(ledger, 0, h)
    assert len(ledger) == 3
    assert np.allclose(HALF_SIDES[ledger.levels], 1.0 / 6.0)
    assert tiles_cube(ledger)


def test_every_sampled_point_becomes_exactly_one_center():
    h = unit_handle(lambda x: float(np.cos(7 * x[0]) + np.sin(5 * x[1])), 2)
    cfg = SolverConfig(variant="halo", beta=0.0, stop=StopRule(max_fun_evals=300))
    trace = run(h, cfg)
    sampled = [r.point for r in trace.evals]
    centers = trace.ledger.centers
    for point in sampled:
        matches = np.sum(np.all(np.abs(centers - point) <= 1e-15, axis=1))
        assert matches == 1


def test_lowest_new_value_gets_longest_child_diagonal():
    rng = np.random.default_rng(11)
    h = unit_handle(lambda x: float(rng.uniform()), 3)
    ledger = init_root(h)
    ids = divide_partition(ledger, 0, h)
    diags = {i: float(np.linalg.norm(HALF_SIDES[ledger.levels[i]])) for i in ids}
    values = {i: float(ledger.values[i]) for i in ids}
    best = min(ids, key=lambda i: values[i])
    assert diags[best] == pytest.approx(max(diags.values()))


def test_volume_conserved_after_runs():
    for n in (1, 2, 3, 4):
        h = unit_handle(lambda x: float(np.sum(np.sin(3.0 * x) ** 2)), n)
        cfg = SolverConfig(variant="halo", beta=0.0, stop=StopRule(max_fun_evals=800))
        trace = run(h, cfg)
        assert tiles_cube(trace.ledger)


def test_strict_nesting_forced_chain():
    h = unit_handle(lambda x: float(np.sum(x)), 2)
    ledger = init_root(h)
    previous = np.linalg.norm(HALF_SIDES[ledger.levels[0]])
    for _ in range(30):
        divide_partition(ledger, 0, h)
        current = np.linalg.norm(HALF_SIDES[ledger.levels[0]])
        assert current < previous
        previous = current
    assert previous < 1e-4
