"""Ledger invariants on whole solver runs over random objectives and budgets."""

from __future__ import annotations

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from halo.geometry import StopRule
from halo.partitioning import divide_partition, evaluate_samples, plan_samples
from halo.solver import VARIANTS, SolverConfig, run

from conftest import ledger_bytes, random_objective, tiles_cube, unit_handle
from oracles import ReferenceLedger, divide_one_at_a_time


def tolerance_classes(diags: np.ndarray) -> set[frozenset[int]]:
    """Rows grouped by half diagonal within a relative 1e-12, scanning ascending."""
    classes: list[list[int]] = []
    rep = None
    for i in np.argsort(diags, kind="stable"):
        if rep is None or diags[i] > rep * (1.0 + 1e-12):
            classes.append([])
            rep = diags[i]
        classes[-1].append(int(i))
    return {frozenset(c) for c in classes}


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=1, max_value=400),
    variant=st.sampled_from(VARIANTS),
    local_search=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_ledger_invariants_after_random_runs(seed, n, budget, variant, local_search):
    cfg = SolverConfig(variant=variant, beta=1e-2, local_search_enabled=local_search,
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

    # the cached half diagonals are the bits of a whole-matrix norm
    diags = ledger.half_diagonals()
    assert diags.tobytes() == np.linalg.norm(ledger.half_sides, axis=1).tobytes()

    # so are the cached slope norms
    assert ledger.slope_norms().tobytes() == np.linalg.norm(ledger.slopes, axis=1).tobytes()

    # integer size classes are the old tolerance classes of the diagonals
    by_depth = {frozenset(np.flatnonzero(depths == d).tolist()) for d in set(depths.tolist())}
    assert by_depth == tolerance_classes(diags)

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

    # the block path, as the solver takes it: the prefix that fits
    # ``allowance`` evaluations, written even when ``on_eval`` stops it
    evaluated = []
    seen, on_eval = recorder(stop_at)
    handle = unit_handle(lambda x: evaluated.append(x.tobytes()) or fn(x), n)
    plan = plan_samples(ledger, chosen, allowance)
    with contextlib.suppress(Stop):
        try:
            evaluate_samples(plan, handle, on_eval)
        finally:
            divide_partition(ledger, plan)

    ref_evaluated = []
    ref_seen, ref_on_eval = recorder(stop_at)
    ref_handle = unit_handle(lambda x: ref_evaluated.append(x.tobytes()) or fn(x), n)
    with contextlib.suppress(Stop):
        for pid in chosen:
            levels = ref.levels[pid]
            if ref_handle.eval_count + 2 * levels.count(min(levels)) > allowance:
                break
            divide_one_at_a_time(ref, pid, ref_handle, ref_on_eval)

    assert evaluated == ref_evaluated
    assert seen == ref_seen
    assert ledger_bytes(ledger) == [column.tobytes() for column in ref.columns()]
