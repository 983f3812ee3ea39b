"""Gating and execution of derivative-free local refinements.

A selected partition may seed a local search only once it is small enough
(half diagonal below ``beta``) and no earlier start lies within the
exclusion radius.  ``gate_local_search`` decides; ``start_local_search``
owns the rest of the policy (exclusion ball, budget cap, first step) and
runs the search.  The optimizer itself is a cyclic coordinate search with
an Armijo-style sufficient-decrease test and per-coordinate step control,
projected onto the unit cube.  A box's half diagonal is the ledger's table
entry for its depth, the one selection reads, so no step here calls BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import ObjectiveHandle, OnEval, PartitionLedger

RUN = "run"
SELECT_FOR_DIVISION = "select_for_division"
SKIP_DIVISION_ONLY = "skip_division_only"

ARMIJO_GAMMA = 1e-6
STEP_EXPAND = 2.0
STEP_SHRINK = 0.5

# A local search may not start within this distance of an earlier start.
EXCLUSION_RADIUS = 1e-4

# Cap on evaluations a single local search may consume, per dimension.
LOCAL_SEARCH_BUDGET_PER_DIM = 100


@dataclass
class LocalResult:
    """Outcome of one local refinement, in normalized coordinates."""

    point: np.ndarray
    value: float
    evals: int
    converged: bool


def gate_local_search(candidate_id: int, ledger: PartitionLedger, excluded: set[int], beta: float) -> str:
    """Decide what to do with a lowest-bound or lowest-value winner.

    A partition whose half diagonal exceeds ``beta`` is simply divided.  A
    small one may start a local search (``RUN``) when no excluded center
    lies within ``EXCLUSION_RADIUS`` of its center; otherwise the candidate
    joins ``excluded`` and is neither sampled nor divided this iteration.
    The gate only decides: ``start_local_search`` collects the exclusion
    ball of a search it lets run.  Both read ``ledger.half_diagonals``,
    which is 0.0 only for a box with every side at ``MAX_LEVEL``.
    """
    if ledger.half_diagonals(candidate_id) > beta:
        return SELECT_FOR_DIVISION
    if candidate_id in excluded:
        # a member's own center lies at distance 0 from the set
        return SKIP_DIVISION_ONLY
    if excluded:
        member_ids = np.fromiter(excluded, dtype=int)
        dists = np.linalg.norm(ledger.centers[member_ids] - ledger.centers[candidate_id], axis=1)
        if bool((dists <= EXCLUSION_RADIUS).any()):
            excluded.add(candidate_id)
            return SKIP_DIVISION_ONLY
    return RUN


def start_local_search(
    candidate_id: int,
    ledger: PartitionLedger,
    obj: ObjectiveHandle,
    excluded: set[int],
    budget: int,
    on_eval: Optional[OnEval] = None,
) -> LocalResult:
    """Run a local search from the center of a partition the gate let run.

    Every ledger center within ``EXCLUSION_RADIUS`` of the start, the
    candidate's own included, joins ``excluded``; the ball is taken from
    the ledger as it stands, so rows written before the call are in it.
    The search spends at most ``min(budget, LOCAL_SEARCH_BUDGET_PER_DIM * n)``
    evaluations, starts from the stored center value without evaluating
    it, and takes ``max(1e-3, half diagonal)`` as its first step.
    """
    center = ledger.centers[candidate_id].copy()
    near = np.flatnonzero(np.linalg.norm(ledger.centers - center, axis=1) <= EXCLUSION_RADIUS)
    excluded.update(int(i) for i in near)
    return coordinate_descent_minimize(
        obj,
        center,
        budget=min(budget, LOCAL_SEARCH_BUDGET_PER_DIM * ledger.dim),
        initial_step=max(1e-3, float(ledger.half_diagonals(candidate_id))),
        f0=float(ledger.values[candidate_id]),
        on_eval=on_eval,
    )


def coordinate_descent_minimize(
    obj: ObjectiveHandle,
    x0,
    budget: int,
    tol: float = 1e-8,
    initial_step: float = 1e-3,
    f0: Optional[float] = None,
    on_eval: Optional[OnEval] = None,
) -> LocalResult:
    """Cyclic coordinate search from ``x0`` (normalized), within ``budget`` evals.

    For each coordinate the positive step is tried first, then the negative
    one; a move is accepted on the sufficient decrease
    ``f(trial) <= f(x) - gamma * step**2``, expanding that coordinate's step
    by 2, while a double rejection shrinks it by half.  Trial points are
    projected onto [0, 1]^N; a trial that projection leaves identical to the
    current point is rejected without spending an evaluation.  Stops when
    every per-coordinate step falls below ``tol`` (converged) or the budget
    runs out.
    """
    if budget < 1:
        raise ValueError("local search budget must be at least 1")
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    n = x.size
    evals = 0

    def evaluate(q: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        v = obj.eval_normalized(q)
        if on_eval is not None:
            on_eval(q, v)
        return v

    if f0 is None:
        fx = evaluate(x)
    else:
        fx = float(f0)
    steps = np.full(n, float(initial_step))

    while evals < budget:
        if bool((steps < tol).all()):
            return LocalResult(x, fx, evals, converged=True)
        for i in range(n):
            if evals >= budget:
                break
            step = steps[i]
            accepted = False
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(1.0, max(0.0, x[i] + sign * step))
                if trial[i] == x[i]:
                    continue
                f_trial = evaluate(trial)
                # strict: once gamma*step**2 underflows below one ulp of fx, a
                # <= test would accept zero-decrease moves on flat objectives
                if f_trial < fx - ARMIJO_GAMMA * step * step:
                    x, fx = trial, f_trial
                    steps[i] = step * STEP_EXPAND
                    accepted = True
                    break
                if evals >= budget:
                    break
            if not accepted:
                steps[i] = step * STEP_SHRINK
    converged = bool((steps < tol).all())
    return LocalResult(x, fx, evals, converged=converged)
