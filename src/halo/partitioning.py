"""Sampling along longest sides, trisection and slope refresh of partitions.

The scheme keeps the parent's center: new points are placed at distance
``delta = (2/3) * s_max`` on both sides of the center along every longest
coordinate, then the box is cut into thirds along those coordinates, one
coordinate at a time, so the best new value ends up in the largest child.
The longest sides of a box are those at its lowest trisection level.

Every step works on a block of partitions at once.  ``plan_samples``
places the points of the whole block, keeping the longest prefix that fits
an evaluation budget, and ``evaluate_samples`` evaluates them in plan
order, with one objective call for the block when the handle is
``vectorized``.  ``divide_partition`` owns the rest of a division: it
keeps the divisions whose points all returned, puts each one in division
order, builds the children's and the parents' level rows and refreshes
the slope rows from the same samples (central differences for the
parents, forward differences for the children), then hands every row to
the ledger in one call.  One partition is a block of one.

A block holds a few divisions of a few sides each, so both functions read
the block's rows once and do the per-division geometry on Python
scalars, which round exactly as numpy's float64 does; numpy only
gathers the rows and builds the point block and the rows the ledger
stores, whose half diagonals, depths and slope norms it computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import HALF_SIDES, ObjectiveHandle, OnEval, PartitionLedger

# _DELTAS[l] is the sampling step of a box whose longest sides are at level
# l, as Python floats with the bits of the numpy expression
_DELTAS = (2.0 * HALF_SIDES / 3.0).tolist()


@dataclass
class SamplePlan:
    """Sample points for a block of partitions about to be divided.

    Division ``i`` divides partition ``parent_ids[i]`` with step
    ``deltas[i]`` along its ``counts[i]`` longest sides, its entries of
    ``coords`` in ascending order (each division's follow the previous
    one's).  Rows ``2j`` and ``2j + 1`` of the ``(2K, n)`` block ``points``
    are ``center +/- delta`` along ``coords[j]``.  ``values`` holds the
    objective's values of the points evaluated so far, in row order.
    """

    parent_ids: np.ndarray
    counts: np.ndarray
    deltas: np.ndarray
    coords: np.ndarray
    points: np.ndarray
    values: list[float] = field(default_factory=list)


def init_root(obj: ObjectiveHandle, on_eval: Optional[OnEval] = None) -> PartitionLedger:
    """Create the ledger holding the whole unit cube, evaluated at its center."""
    n = obj.domain.dim
    ledger = PartitionLedger(n)
    center = np.full(n, 0.5)
    value = obj.eval_normalized(center)
    if on_eval is not None:
        on_eval(center, value)
    ledger.append(center, np.zeros(n, dtype=int), value)
    return ledger


def plan_samples(ledger: PartitionLedger, pids, max_evals: Optional[int] = None) -> SamplePlan:
    """Place the two new points per longest side of every partition in ``pids``.

    ``pids`` is one id or a sequence of distinct ids.  With ``max_evals``,
    the plan keeps the longest prefix of ``pids`` whose evaluations, ``2k``
    per partition, add up to at most ``max_evals``: a division is planned
    whole or not at all, since a partial one would break the tiling of the
    cube.
    """
    ids = np.array(pids, dtype=np.intp, ndmin=1)
    budget = np.inf if max_evals is None else max_evals
    counts: list[int] = []
    deltas: list[float] = []
    coords: list[int] = []
    points: list[list[float]] = []
    for levels, center in zip(ledger.levels[ids].tolist(), ledger.centers[ids].tolist()):
        low = min(levels)
        cut = [j for j, level in enumerate(levels) if level == low]
        budget -= 2 * len(cut)
        if budget < 0:
            break
        delta = _DELTAS[low]
        counts.append(len(cut))
        deltas.append(delta)
        coords += cut
        # rows 2j and 2j + 1 are center +/- delta along coords[j]
        for j in cut:
            plus, minus = center.copy(), center.copy()
            plus[j] += delta
            minus[j] -= delta
            points += (plus, minus)
        if not delta:
            break  # dividing a box at MAX_LEVEL raises, so nothing after it is sampled
    return SamplePlan(
        ids[: len(counts)], np.array(counts, dtype=np.intp), np.array(deltas),
        np.array(coords, dtype=np.intp), np.array(points).reshape(-1, ledger.dim),
    )


def evaluate_samples(plan: SamplePlan, obj: ObjectiveHandle, on_eval: Optional[OnEval] = None) -> None:
    """Evaluate the points of ``plan`` in plan order, appending to ``plan.values``.

    The block is mapped to problem units with one call.  A ``vectorized``
    handle then evaluates it with one ``evaluate_block`` call; any other
    handle evaluates it lazily, one point at a time, so each evaluation
    comes right before its ``on_eval``.  Either way the values have the same
    bits and reach ``on_eval`` one at a time, in plan order.  An exception
    from the objective or from ``on_eval`` stops the sampling and
    propagates; ``plan.values`` then holds the values that reached
    ``on_eval`` before it, none of the block's if a block call raised.
    """
    xs = obj.to_problem_units(plan.points)
    values = obj.evaluate_block(xs) if obj.vectorized else map(obj.evaluate, xs)
    for q, f in zip(plan.points, values):
        if on_eval is not None:
            on_eval(q, f)
        plan.values.append(f)


def divide_partition(ledger: PartitionLedger, plan: SamplePlan) -> list[int]:
    """Trisect every division of ``plan`` whose points all returned, and seed every new slope row.

    Each division is cut in division order: its sides ascending by the
    lower of their two new values, ties to the lower coordinate.  At each
    cut the two sampled points become centers of the outer thirds, which
    take the parent's levels as they stand right after that cut; the
    parent keeps the middle third with every longest side cut once.  On
    every divided coordinate p the parent's slope becomes the central
    difference ``|f(x+) - f(x-)| / (2 delta)``.  Each child starts from its
    parent's pre-division row with its own cut coordinate replaced by the
    forward difference ``|f(child) - f(parent)| / delta``; its other
    coordinates are inherited unchanged, even if stale.  Nothing is written
    if a kept division is below float resolution.  Returns the new ids:
    rows ``2j`` and ``2j + 1`` are the children of cut ``j``.
    """
    values, ids, coords = plan.values, plan.parent_ids, plan.coords.tolist()
    parent_levels = ledger.levels[ids].tolist()
    parent_slopes = ledger.slopes[ids].tolist()
    rows: list[int] = []
    child_levels: list[list[int]] = []
    child_slopes: list[list[float]] = []
    start = kept = 0
    for pid, level, slope, f_parent, k, delta in zip(
        ids.tolist(), parent_levels, parent_slopes, ledger.values[ids].tolist(),
        plan.counts.tolist(), plan.deltas.tolist(),
    ):
        if 2 * (start + k) > len(values):
            break
        if not delta:
            # at MAX_LEVEL the box has no width left to form a difference over
            raise ZeroDivisionError(f"partition {pid} is below float resolution: delta is 0")
        # the best new point is cut first, so it lands in the largest child; the
        # key compares the Python floats the objective returned, and since the
        # planned coordinates of a division ascend, j breaks ties as they would
        ranked = sorted(range(start, start + k), key=lambda j: (min(values[2 * j], values[2 * j + 1]), j))
        # level and slope turn into the parent's new rows in place; every
        # child starts from the parent's pre-division slope row
        inherited = slope.copy()
        for j in ranked:
            p = coords[j]
            # a child has the parent's levels with every side cut so far, its own cut included
            level[p] += 1
            for row in (2 * j, 2 * j + 1):
                rows.append(row)
                child_levels.append(level.copy())
                child = inherited.copy()
                child[p] = abs(values[row] - f_parent) / delta
                child_slopes.append(child)
            slope[p] = abs(values[2 * j] - values[2 * j + 1]) / (2.0 * delta)
        start += k
        kept += 1
    return ledger.divide(
        ids[:kept], plan.points[rows], np.array([values[row] for row in rows]),
        np.array(parent_levels[:kept] + child_levels, dtype=np.intp).reshape(-1, ledger.dim),
        np.array(parent_slopes[:kept] + child_slopes).reshape(-1, ledger.dim),
    )
