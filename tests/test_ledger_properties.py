"""Ledger invariants on whole solver runs over random objectives and budgets."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halo.geometry import HALF_SIDES, MAX_LEVEL, PartitionLedger, StopRule
from halo.partitioning import divide_partition
from halo.solver import VARIANTS, SolverConfig, run

from conftest import ledger_bytes, random_objective, tiles_cube, unit_handle
from oracles import ReferenceLedger, divide_one_at_a_time


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=1, max_value=400),
    variant=st.sampled_from(VARIANTS),
    local_search=st.booleans(),
)
# numpy sums a row of 8 or more entries pairwise, so the cached slope norms
# are also pinned where the summation order changes
@example(seed=5, n=8, budget=400, variant="halo", local_search=True)
@example(seed=6, n=10, budget=400, variant="direct", local_search=False)
@settings(max_examples=60, deadline=None)
def test_ledger_invariants_after_random_runs(seed, n, budget, variant, local_search):
    cfg = SolverConfig(variant=variant, beta=1e-2 if local_search else 0.0,
                       stop=StopRule(max_fun_evals=budget))
    trace = run(unit_handle(random_objective(seed, n), n), cfg)
    ledger = trace.ledger
    levels = ledger.levels
    depths = ledger.depths

    # the sides of every box lie at trisection levels {k, k + 1}
    assert levels.min() >= 0
    assert (levels.max(axis=1) - levels.min(axis=1) <= 1).all()
    assert depths.tolist() == levels.sum(axis=1).tolist()

    # the rows tile the cube exactly
    assert tiles_cube(ledger)

    # one half diagonal per depth: the norm of the sorted level row, whose
    # squares do not underflow at these budgets
    diags = ledger.half_diagonals()
    assert diags.tobytes() == np.linalg.norm(HALF_SIDES[np.sort(levels, axis=1)], axis=1).tobytes()

    # a greater depth is a strictly smaller box
    by_depth = np.argsort(depths, kind="stable")
    steps = np.diff(diags[by_depth])
    assert (steps[np.diff(depths[by_depth]) > 0] < 0.0).all()

    # the cached slope norms are the bits of a whole-matrix norm
    assert ledger.slope_norms().tobytes() == np.linalg.norm(ledger.slopes, axis=1).tobytes()

    # slopes are finite and nonnegative
    assert np.isfinite(ledger.slopes).all() and (ledger.slopes >= 0.0).all()

    # the incumbent is the running minimum of the values and never increases
    values = [r.value for r in trace.evals]
    bests = [r.best for r in trace.evals]
    assert bests == np.minimum.accumulate(values).tolist()
    assert all(later <= earlier for earlier, later in zip(bests, bests[1:]))
    assert trace.best_value == bests[-1]


class Stop(Exception):
    pass


def recorder(stop_at: int):
    """An ``on_eval`` that records each point and value, and raises at call ``stop_at``."""
    seen = []

    def on_eval(q, f):
        seen.append((q.tobytes(), f))
        if len(seen) == stop_at:
            raise Stop

    return seen, on_eval


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=1, max_value=300),
    variant=st.sampled_from(VARIANTS),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
    allowance=st.integers(min_value=0, max_value=80),
    stop_at=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_block_division_matches_one_at_a_time(seed, n, budget, variant, picks, allowance, stop_at):
    fn = random_objective(seed, n)
    cfg = SolverConfig(variant=variant, beta=1e-2, stop=StopRule(max_fun_evals=budget))
    ledger = run(unit_handle(fn, n), cfg).ledger
    chosen = list(dict.fromkeys(p % len(ledger) for p in picks))
    ref = ReferenceLedger(ledger)

    # the longest prefix of ``chosen`` whose divisions fit ``allowance``
    # evaluations, priced on the reference's level rows; dividing one id
    # leaves the rows of the others as they were
    block, cost = [], 0
    for pid in chosen:
        levels = ref.levels[pid]
        cost += 2 * levels.count(min(levels))
        if cost > allowance:
            break
        block.append(pid)

    # the block path, as the solver takes it: written even when ``on_eval`` stops it
    evaluated = []
    seen, on_eval = recorder(stop_at)
    handle = unit_handle(lambda x: evaluated.append(x.tobytes()) or fn(x), n)
    with contextlib.suppress(Stop):
        divide_partition(ledger, block, handle, on_eval)

    ref_evaluated = []
    ref_seen, ref_on_eval = recorder(stop_at)
    ref_handle = unit_handle(lambda x: ref_evaluated.append(x.tobytes()) or fn(x), n)
    with contextlib.suppress(Stop):
        for pid in block:
            divide_one_at_a_time(ref, pid, ref_handle, ref_on_eval)

    assert evaluated == ref_evaluated
    assert seen == ref_seen
    assert ledger_bytes(ledger) == [column.tobytes() for column in ref.columns()]


@given(
    n=st.integers(min_value=1, max_value=10),
    k=st.integers(min_value=0, max_value=MAX_LEVEL),
    raised=st.lists(st.booleans(), min_size=10, max_size=10),
)
@example(n=3, k=MAX_LEVEL - 1, raised=[True, False, True] + [False] * 7)
@example(n=3, k=MAX_LEVEL - 1, raised=[True] * 10)
@example(n=3, k=MAX_LEVEL, raised=[False] * 10)
@settings(max_examples=200, deadline=None)
def test_division_cost_is_read_from_the_depth(n, k, raised):
    # the solver prices the division of a depth-d box at 2 * (n - d % n)
    # evaluations: its levels lie in {k, k + 1}, so that many sides are longest
    levels = [k + (r and k < MAX_LEVEL) for r in raised[:n]]
    ledger = PartitionLedger(n)
    ledger.append(np.full(n, 0.5), levels, 0.0)
    depth = int(ledger.depths[0])
    assert n - depth % n == levels.count(min(levels))
    handle = unit_handle(lambda x: 0.0, n)
    if min(levels) == MAX_LEVEL:
        with pytest.raises(ZeroDivisionError):
            divide_partition(ledger, 0, handle)
    else:
        assert len(divide_partition(ledger, 0, handle)) == handle.eval_count == 2 * (n - depth % n)
