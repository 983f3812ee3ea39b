"""Whole runs of the solver equal the plain reference loop of ``oracles.reference_run``, byte for byte."""

from __future__ import annotations

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halo.geometry import StopRule
from halo.solver import VARIANTS, SolverConfig, run

from conftest import random_objective, unit_handle
from oracles import reference_run


def plateau_objective(seed: int, n: int):
    """``random_objective`` floored to halves: wide flat regions and many tied values."""
    fn = random_objective(seed, n)
    return lambda x: math.floor(2.0 * fn(x)) / 2.0


def block_evaluator(fn):
    """``fn`` as a ``vectorized`` evaluator: a ``(k, n)`` block is evaluated row by row."""
    return lambda x: np.array([fn(row) for row in x]) if x.ndim == 2 else fn(x)


def eval_bytes(evals):
    return [np.ascontiguousarray(q, dtype="<f8").tobytes() + struct.pack("<dd", f, b) for q, f, b in evals]


def iteration_bytes(iterations):
    return [struct.pack("<qq", k, count) + struct.pack(f"<{len(selected)}qd", *selected, g)
            for k, selected, count, g in iterations]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=3),
    budget=st.integers(min_value=1, max_value=400),
    variant=st.sampled_from(VARIANTS),
    beta=st.sampled_from((0.0, 1e-2, 1e-1)),
    plateau=st.booleans(),
    vectorized=st.booleans(),
    # where the run is solved, as a fraction of the evaluations of a run with no known optimum
    solve_at=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
    max_iter=st.one_of(st.just(10_000_000), st.integers(min_value=1, max_value=40)),
)
# the pending division does not fit the budget left when a local search would start
@example(seed=1608588041, n=3, budget=62, variant="halo", beta=1e-2, plateau=True, vectorized=False,
         solve_at=None, max_iter=10_000_000)
# the largest box passes the gate and is divided all the same
@example(seed=1528265272, n=1, budget=278, variant="halo", beta=1e-2, plateau=True, vectorized=True,
         solve_at=None, max_iter=10_000_000)
# solved inside a local search
@example(seed=1001090105, n=1, budget=347, variant="halo", beta=1e-2, plateau=False, vectorized=False,
         solve_at=0.4161799388943461, max_iter=10_000_000)
@settings(max_examples=40, deadline=None)
def test_run_matches_the_reference_run(seed, n, budget, variant, beta, plateau, vectorized, solve_at, max_iter):
    fn = (plateau_objective if plateau else random_objective)(seed, n)
    cfg = SolverConfig(variant=variant, beta=beta, stop=StopRule(max_fun_evals=budget, max_iter=max_iter))

    def handle(known_optimum=None):
        h = unit_handle(block_evaluator(fn) if vectorized else fn, n, known_optimum=known_optimum)
        h.vectorized = vectorized
        return h

    optimum = None
    if solve_at is not None:
        # the run is solved at the first evaluation within the tolerance of this incumbent
        unsolved = run(handle(), cfg)
        optimum = unsolved.eval_best[int(solve_at * unsolved.n_evals)]
    trace = run(handle(optimum), cfg)
    ref = reference_run(handle(optimum), cfg)

    evals = zip(trace.eval_points, trace.eval_values, trace.eval_best)
    assert eval_bytes(evals) == eval_bytes(ref.evals)
    assert trace.status == ref.status
    iterations = [(r.index, r.selected, r.partition_count, r.global_constant) for r in trace.iterations]
    assert iteration_bytes(iterations) == iteration_bytes(ref.iterations)
    assert (trace.n_local_searches, trace.n_local_evals) == (ref.n_local_searches, ref.n_local_evals)
