import warnings

import numpy as np
import pytest

from halo.schoen import MAX_STATIONARY_POINTS, _evaluate_block, schoen_generate

from oracles import schoen_parts, schoen_point


def naive_reference(x, anchors, values, exponents):
    """Direct product form of the interpolant; fine while nothing underflows."""
    num = 0.0
    den = 0.0
    for j in range(len(values)):
        prod = 1.0
        for m in range(len(values)):
            if m != j:
                prod *= np.linalg.norm(x - anchors[m]) ** exponents[m]
        num += values[j] * prod
        den += prod
    return num / den


def test_anchor_interpolation():
    for seed in (0, 1, 7):
        prob = schoen_generate(seed, 3)
        anchors, values, _ = schoen_parts(seed, 3)
        for z, f in zip(anchors, values):
            assert float(prob.fn(z)) == pytest.approx(f, abs=1e-9)


def test_closed_form_midpoint_with_equal_exponents():
    anchors = np.array([[0.2], [0.8]])
    values = np.array([0.0, 1.0])
    exponents = np.array([2.5, 2.5])
    assert _evaluate_block(np.array([[0.5]]), anchors, values, exponents)[0] == pytest.approx(0.5)


def test_matches_naive_reference(rng):
    anchors = rng.uniform(size=(6, 2))
    values = rng.uniform(0.0, 100.0, size=6)
    exponents = rng.uniform(2.0, 3.0, size=6)
    for _ in range(50):
        x = rng.uniform(size=2)
        fast = schoen_point(x, anchors, values, exponents)
        slow = naive_reference(x, anchors, values, exponents)
        assert fast == pytest.approx(slow, rel=1e-10)


def test_no_underflow_at_max_anchor_count():
    prob = schoen_generate(292, 2)
    assert prob.stationary_points == MAX_STATIONARY_POINTS
    rng = np.random.default_rng(0)
    vals = [float(prob.fn(rng.uniform(size=2))) for _ in range(200)]
    assert all(np.isfinite(v) for v in vals)


def test_same_seed_identical_functions():
    a = schoen_generate(42, 4)
    b = schoen_generate(42, 4)
    assert a.stationary_points == b.stationary_points
    rng = np.random.default_rng(1)
    probes = rng.uniform(size=(100, 4))
    assert np.array_equal(a.fn(probes), b.fn(probes))


def test_different_seeds_differ():
    a = schoen_generate(1, 2)
    b = schoen_generate(2, 2)
    x = np.full(2, 0.3)
    assert float(a.fn(x)) != float(b.fn(x))


def test_range_is_anchor_value_hull(rng):
    prob = schoen_generate(3, 3)
    _, values, _ = schoen_parts(3, 3)
    probes = rng.uniform(size=(500, 3))
    out = prob.fn(probes)
    assert np.all(out >= values.min() - 1e-9)
    assert np.all(out <= values.max() + 1e-9)


def test_optimum_is_smallest_anchor_value():
    prob = schoen_generate(11, 2)
    assert float(prob.fn(prob.known_minimizer)) == pytest.approx(prob.known_optimum, abs=1e-12)


def test_stationarity_at_global_anchor():
    for seed in (0, 5, 9):
        prob = schoen_generate(seed, 3)
        z = prob.known_minimizer
        h = 1e-6
        grad = np.zeros(3)
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            grad[i] = (float(prob.fn(zp)) - float(prob.fn(zm))) / (2 * h)
        assert np.linalg.norm(grad) < 1e-4


def test_exact_anchor_hit_returns_anchor_value():
    anchors = np.array([[0.25, 0.25], [0.75, 0.75]])
    values = np.array([3.0, 7.0])
    exponents = np.array([2.0, 2.0])
    assert schoen_point(anchors[1].copy(), anchors, values, exponents) == 7.0
    # in a block, each hit row takes its own anchor's value and the others are interpolated
    block = _evaluate_block(np.array([[0.5, 0.5], anchors[1], anchors[0]]), anchors, values, exponents)
    assert block.tolist() == [5.0, 7.0, 3.0]


@pytest.mark.parametrize("n", range(1, 11))
def test_block_rows_have_the_single_point_bits(n):
    # from n = 8 numpy sums each distance pairwise, so every dimension up to 10 is
    # checked; seed 292 draws the most anchors, 100
    for seed in (0, 7, 292):
        anchors, values, exponents = schoen_parts(seed, n)
        prob = schoen_generate(seed, n)
        assert prob.stationary_points == len(anchors)
        fn = prob.fn
        rng = np.random.default_rng([seed, n])
        for k in range(1, 41):
            xs = rng.uniform(size=(k, n))
            # exact anchor hits mixed among ordinary rows, in about a quarter of them
            hits = rng.uniform(size=k) < 0.25
            xs[hits] = anchors[rng.integers(len(anchors), size=hits.sum())]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = fn(xs)
                points = [fn(x) for x in xs]
            expected = [schoen_point(x, anchors, values, exponents) for x in xs]
            assert block.shape == (k,)
            assert block.tobytes() == np.array(expected).tobytes()
            assert np.array(points).tobytes() == np.array(expected).tobytes()
            assert all(type(p) is np.float64 for p in points)
