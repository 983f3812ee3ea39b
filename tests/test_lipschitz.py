import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halo.geometry import HALF_SIDES, PartitionLedger
from halo.lipschitz import blend, blend_constants, global_slope_max, lower_bounds
from halo.partitioning import divide_partition, init_root

from conftest import cut_order, unit_handle
from oracles import blend_local_constant, central_difference


def divide_once(h, ledger, pid):
    """Divide ``pid``; returns its cut order, read from the ledger rows, and the new ids."""
    before = ledger.levels[pid].copy()
    children = divide_partition(ledger, pid, h)
    return cut_order(ledger, before, children), children


def test_linear_slope_exact_1d():
    h = unit_handle(lambda x: 3.0 * float(x[0]), 1)
    ledger = init_root(h)
    divide_once(h, ledger, 0)
    assert ledger.slopes[0][0] == pytest.approx(3.0, abs=1e-12)
    assert ledger.slopes[1][0] == pytest.approx(3.0, abs=1e-12)
    assert ledger.slopes[2][0] == pytest.approx(3.0, abs=1e-12)


def test_constant_function_all_slopes_zero():
    h = unit_handle(lambda x: 4.2, 3)
    ledger = init_root(h)
    divide_once(h, ledger, 0)
    assert np.all(ledger.slopes == 0.0)


def test_quadratic_slope_matches_hand_value_and_oracle():
    fn = lambda x: float(x[0]) ** 2
    h = unit_handle(fn, 2)
    ledger = init_root(h)
    divide_once(h, ledger, 0)
    # |f(5/6) - f(1/6)| / (2/3) = 1.0, and the independent oracle agrees
    assert ledger.slopes[0][0] == pytest.approx(1.0, abs=1e-12)
    oracle = abs(central_difference(fn, [0.5, 0.5], 0, 1.0 / 3.0))
    assert ledger.slopes[0][0] == pytest.approx(oracle, abs=1e-12)
    assert ledger.slopes[0][1] == 0.0


def test_children_inherit_pre_update_rows():
    h = unit_handle(lambda x: float(x[0] + 2.0 * x[1]), 2)
    ledger = PartitionLedger(2)
    # the root, carrying stale slope information
    ledger.append([0.5, 0.5], [0, 0], h.eval_normalized([0.5, 0.5]), [7.0, 9.0])
    order, children = divide_once(h, ledger, 0)
    # parent refreshed by central differences on both coordinates
    assert np.allclose(ledger.slopes[0], [1.0, 2.0], atol=1e-12)
    for cid, divided_coord in zip(children, np.repeat(order, 2)):
        other = 1 - divided_coord
        # the untouched coordinate keeps the pre-division value, not the refresh
        assert ledger.slopes[cid][other] == {0: 7.0, 1: 9.0}[other]


def test_child_slope_below_float_resolution_uses_cut_axis():
    # at level 36, delta is below the ulp of the center: every sample is the
    # center itself, so the offset of a child says nothing about its cut axis
    h = unit_handle(lambda x: float(x[0] + x[1]), 2)
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [36, 36], h.eval_normalized([0.5, 0.5]), [7.0, 9.0])
    order, children = divide_once(h, ledger, 0)
    assert all(np.array_equal(c, ledger.centers[0]) for c in ledger.centers[children])
    assert order == [0, 1]
    assert ledger.slopes[children].tolist() == [[0.0, 9.0]] * 2 + [[7.0, 0.0]] * 2


def test_division_slopes_match_scalar_loop():
    # every refreshed slope has the bits of the Python-float difference quotient
    h = unit_handle(lambda x: float(np.sum(np.cos(9.0 * x)) + x[0] * x[1]), 3)
    ledger = init_root(h)
    for pid in (0, 1, 0, 4):
        before = ledger.slopes[pid].copy()
        parent_value = float(ledger.values[pid])
        delta = 2.0 * float(HALF_SIDES[ledger.levels[pid].min()]) / 3.0
        order, children = divide_once(h, ledger, pid)
        values = [float(v) for v in ledger.values[children]]
        expected = before.copy()
        for j, coord in enumerate(order):
            expected[coord] = abs(values[2 * j] - values[2 * j + 1]) / (2.0 * delta)
        assert ledger.slopes[pid].tobytes() == expected.tobytes()
        for row, cid in enumerate(children):
            expected = before.copy()
            expected[order[row // 2]] = abs(values[row] - parent_value) / delta
            assert ledger.slopes[cid].tobytes() == expected.tobytes()


def test_rectangle_division_leaves_other_coordinates_unchanged():
    h = unit_handle(lambda x: float(np.sin(x[0]) + x[1] ** 2), 2)
    ledger = init_root(h)
    divide_once(h, ledger, 0)
    # partition 1 is a 1/6 x 1/2 rectangle: only coordinate 1 gets divided
    before = ledger.slopes[1].copy()
    order, _ = divide_once(h, ledger, 1)
    assert order == [1]
    assert ledger.slopes[1][0] == before[0]
    assert ledger.slopes[1][1] != before[1]


def test_global_slope_max_345():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 0], 0.0, [3.0, 4.0])
    assert global_slope_max(ledger) == pytest.approx(5.0)


def test_global_slope_max_zero():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 0], 0.0)
    assert global_slope_max(ledger) == 0.0


def test_global_slope_max_two_rows():
    ledger = PartitionLedger(2)
    ledger.append([0.5, 0.5], [0, 0], 0.0, [1.0, 0.0])
    ledger.append([0.5, 0.5], [1, 1], 0.0, [0.0, 2.0])
    assert global_slope_max(ledger) == pytest.approx(2.0)


def test_blend_root_alpha_one_returns_global():
    ledger = PartitionLedger(3)
    ledger.append(np.full(3, 0.5), [0, 0, 0], 0.0, [1.0, 1.0, 1.0])
    assert blend_constants(ledger, 12.5).tolist() == [12.5]


def test_blend_midpoint():
    assert blend(0.5, 10.0, 2.0) == pytest.approx(6.0)


def test_blend_equal_arguments_any_alpha():
    for alpha in (0.0, 0.3, 1.0):
        assert blend(alpha, 7.0, 7.0) == pytest.approx(7.0)


@given(
    st.floats(min_value=1e-12, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=300, deadline=None)
def test_blend_bracketing_property(alpha, g, s):
    out = blend(alpha, g, s)
    assert min(g, s) - 1e-9 <= out <= max(g, s) + 1e-9
    assert blend(1.0, g, s) == g


def test_lower_bound_examples():
    ledger = PartitionLedger(1)
    ledger.append([0.5], [1], 1.0)  # half diagonal 1/6
    assert ledger.half_diagonals()[0] == pytest.approx(1.0 / 6.0)
    assert lower_bounds(ledger, np.array([3.0]))[0] == pytest.approx(0.5)
    assert lower_bounds(ledger, np.array([0.0]))[0] == pytest.approx(1.0)
    root = PartitionLedger(2)
    root.append([0.5, 0.5], [0, 0], 0.0)
    assert lower_bounds(root, np.array([1.0]))[0] == pytest.approx(-np.sqrt(2.0) / 2.0)


def test_blend_constants_matches_scalar_loop(rng):
    from conftest import random_ledger

    ledger = random_ledger(rng, 3, 40)
    g = global_slope_max(ledger)
    vector = blend_constants(ledger, g)
    for i in range(len(ledger)):
        oracle = blend_local_constant(HALF_SIDES[ledger.levels[i]], ledger.slopes[i], g)
        assert vector[i] == pytest.approx(oracle, rel=1e-14)


def test_affine_slopes_exact_through_run():
    a = np.array([3.0, -2.0, 0.5])
    h = unit_handle(lambda x: float(a @ x), 3)
    ledger = init_root(h)
    for _ in range(12):
        # always re-divide the partition with the largest half diagonal
        pid = int(np.argmax(ledger.half_diagonals()))
        order, _ = divide_once(h, ledger, pid)
        for coord in order:
            assert ledger.slopes[pid][coord] == pytest.approx(abs(a[coord]), abs=1e-12)
    assert global_slope_max(ledger) == pytest.approx(float(np.linalg.norm(a)), abs=1e-9)


def test_global_slope_reaches_gradient_norm_after_root_division():
    a = np.array([1.0, -2.0, 3.0])
    h = unit_handle(lambda x: float(a @ x), 3)
    ledger = init_root(h)
    divide_once(h, ledger, 0)  # the root cube divides along every coordinate
    assert global_slope_max(ledger) == pytest.approx(float(np.linalg.norm(a)), abs=1e-9)


def test_child_slope_error_shrinks_along_chain():
    # smooth non-affine objective: child forward differences err O(delta)
    fn = lambda x: float(np.exp(x[0]))
    h = unit_handle(fn, 1)
    ledger = init_root(h)
    pid = 0
    errors = []
    for _ in range(5):
        _, children = divide_once(h, ledger, pid)
        child = children[0]
        true_grad = abs(float(np.exp(ledger.centers[child][0])))
        errors.append(abs(ledger.slopes[child][0] - true_grad))
        pid = child
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous / 2.0 + 1e-15
