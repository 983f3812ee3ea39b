import numpy as np
import pytest

from halo.partitioning import _DELTAS
from halo.problems import (
    BENCHMARK_DIMS,
    CLASSICAL_FUNCTIONS,
    apply_shift,
    classical_problem,
    classical_suite,
    shift_minimizer,
)
from halo.schoen import schoen_generate

from oracles import audit_optimum

FIXED_DIM = [name for name, spec in CLASSICAL_FUNCTIONS.items() if spec.dims is not None]
ANY_DIM = [name for name, spec in CLASSICAL_FUNCTIONS.items() if spec.dims is None]


def test_suite_composition():
    names2 = [p.name for p in classical_suite(2)]
    assert "branin" in names2 and "eggholder" in names2 and "hartmann3" not in names2
    assert len(names2) == 16
    names3 = [p.name for p in classical_suite(3)]
    assert "hartmann3" in names3 and "beale" not in names3
    names6 = [p.name for p in classical_suite(6)]
    assert "hartmann6" in names6
    names1 = [p.name for p in classical_suite(1)]
    assert "sphere" in names1 and "rosenbrock" not in names1


def test_minimizer_evaluates_to_optimum_all_dims():
    for n in BENCHMARK_DIMS:
        for prob in classical_suite(n):
            value = float(prob.fn(prob.known_minimizer))
            assert value == pytest.approx(prob.known_optimum, abs=1e-9), prob.name


def test_sphere_known_values():
    prob = classical_problem("sphere", 4)
    assert prob.known_optimum == 0.0
    assert float(prob.fn(np.zeros(4))) == 0.0


def test_rosenbrock_at_ones():
    prob = classical_problem("rosenbrock", 6)
    assert float(prob.fn(np.ones(6))) == 0.0


def test_branin_value_matches_closed_form():
    prob = classical_problem("branin", 2)
    # stationarity gives f* = s / (8 pi) * ... = 5 / (4 pi) exactly
    assert prob.known_optimum == pytest.approx(5.0 / (4.0 * np.pi), abs=1e-12)


# dimensions tried for a function defined at any dimension: those of the benchmarks and below
ANY_DIM_RANGE = range(1, max(BENCHMARK_DIMS) + 1)


def registry_problems():
    for name, spec in CLASSICAL_FUNCTIONS.items():
        for n in spec.dims or ANY_DIM_RANGE:
            if spec.defined_at(n):
                problem = classical_problem(name, n)
                yield problem
                yield shift_minimizer(problem, seed=n)
    for seed, n in ((0, 2), (3, 4), (5, 8)):
        yield schoen_generate(seed, n)


def grid_centers(rng, count, n, max_level=4):
    """Centers of trisection boxes, built as division builds them.

    Each coordinate starts at 0.5 and takes a step of plus or minus
    ``_DELTAS[l]`` at every level ``l`` below its own random depth.
    """
    points = np.full((count, n), 0.5)
    depths = rng.integers(0, max_level + 1, size=(count, n))
    for level in range(max_level):
        steps = rng.choice([-_DELTAS[level], _DELTAS[level]], size=(count, n))
        points += np.where(depths > level, steps, 0.0)
    return points


def test_vectorized_evaluation_matches_loop(rng):
    # every row of a block has the bits of the single-point call, at every
    # block size up to 100, so every registry handle evaluates a division
    # block in one call
    checked = set()
    for prob in registry_problems():
        handle = prob.make_handle()
        assert handle.vectorized
        for q in (rng.uniform(size=(400, prob.n)), grid_centers(rng, 400, prob.n)):
            xs = handle.to_problem_units(q)
            single = np.array([float(prob.fn(x)) for x in xs])
            for k in [*range(1, 101), len(xs)]:
                block = np.asarray(handle.evaluate_block(xs[:k]))
                assert block.tobytes() == single[:k].tobytes(), (prob.name, prob.n, k)
        checked.add(prob.family if prob.family == "schoen" else prob.function)
    assert checked == {"schoen"} | set(CLASSICAL_FUNCTIONS)


def test_booth_point_and_block_share_bits():
    # a point where the C library's pow(u, 2) and u * u round differently
    handle = classical_problem("booth", 2).make_handle()
    q = np.array([0.8333333333333333, 0.8333333333333333])
    expected = float.fromhex("0x1.89ffffffffffap+8")
    assert handle.eval_normalized(q) == expected
    assert handle.evaluate_block(handle.to_problem_units(q[None])) == [expected]


@pytest.mark.parametrize("name", sorted(CLASSICAL_FUNCTIONS))
def test_stored_optimum_survives_audit(name):
    spec = CLASSICAL_FUNCTIONS[name]
    n = 2 if spec.dims is None else spec.dims[0]
    assert audit_optimum(classical_problem(name, n), probes=1_000_000, seed=1) <= 1e-6


@pytest.mark.parametrize("name", ["michalewicz", "styblinski_tang", "dixon_price"])
def test_stored_optimum_survives_audit_n6(name):
    assert audit_optimum(classical_problem(name, 6), probes=200_000, seed=2) <= 1e-6


def test_audit_catches_wrong_constant():
    from dataclasses import replace

    prob = classical_problem("branin", 2)
    broken = replace(prob, known_optimum=prob.known_optimum - 0.01)
    with pytest.raises(ValueError):
        audit_optimum(broken, probes=20_000, seed=0)


def test_zero_shift_is_identity(rng):
    prob = classical_problem("rastrigin", 2)
    shifted = apply_shift(prob, np.zeros(2))
    pts = rng.uniform(prob.domain.lower, prob.domain.upper, size=(20, 2))
    assert np.array_equal(prob.fn(pts), shifted.fn(pts))
    assert np.array_equal(shifted.known_minimizer, prob.known_minimizer)


def test_shift_moves_minimizer_keeps_value():
    prob = classical_problem("sphere", 3)
    shifted = shift_minimizer(prob, seed=12)
    assert shifted.known_optimum == prob.known_optimum
    assert not np.allclose(shifted.known_minimizer, prob.known_minimizer)
    assert float(shifted.fn(shifted.known_minimizer)) == pytest.approx(prob.known_optimum, abs=1e-12)


def test_shift_keeps_minimizer_strictly_interior():
    for seed in range(20):
        prob = shift_minimizer(classical_problem("griewank", 2), seed=seed)
        d = prob.domain
        assert np.all(prob.known_minimizer > d.lower)
        assert np.all(prob.known_minimizer < d.upper)


def test_shifted_center_functions_still_have_global_min_at_target(rng):
    # probe far and wide: nothing beats the shifted optimum
    for name in ("sphere", "rastrigin", "ackley", "griewank", "matyas"):
        prob = shift_minimizer(classical_problem(name, 2), seed=31)
        pts = rng.uniform(prob.domain.lower, prob.domain.upper, size=(100_000, 2))
        assert np.min(prob.fn(pts)) >= prob.known_optimum - 1e-9


def test_unknown_function_and_bad_dimension():
    with pytest.raises(KeyError):
        classical_problem("nosuch", 2)
    with pytest.raises(ValueError):
        classical_problem("beale", 3)
    # at n = 1 Rosenbrock has no terms, so it is 0 everywhere
    with pytest.raises(ValueError):
        classical_problem("rosenbrock", 1)


def test_handle_isolation():
    prob = classical_problem("sphere", 2)
    h1, h2 = prob.make_handle(), prob.make_handle()
    h1.evaluate(np.zeros(2))
    assert h1.eval_count == 1 and h2.eval_count == 0
