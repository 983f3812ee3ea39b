"""Sampling along longest sides, trisection and slope refresh of partitions.

The scheme keeps the parent's center: new points are placed at distance
``delta = (2/3) * s_max`` on both sides of the center along every longest
coordinate, then the box is cut into thirds along those coordinates, one
coordinate at a time, so the best new value ends up in the largest child.
The longest sides of a box are those at its lowest trisection level.

Every step works on a block of partitions at once.  ``plan_samples``
places the points of the whole block, keeping the longest prefix that fits
an evaluation budget, and ``evaluate_samples`` evaluates them in plan
order.  ``divide_partition`` owns the rest of a division: it keeps the
divisions whose points all returned, puts each one in division order,
builds the children's and the parents' level rows and refreshes the slope
rows from the same samples (central differences for the parents, forward
differences for the children), then hands every row to the ledger in one
call.  One partition is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import HALF_SIDES, ObjectiveHandle, OnEval, PartitionLedger


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
    levels = ledger.levels[ids]
    low = levels.min(axis=1)
    longest = levels == low[:, None]
    counts = longest.sum(axis=1)
    deltas = 2.0 * HALF_SIDES[low] / 3.0
    fit = ids.size
    if max_evals is not None:
        fit = int((2 * counts).cumsum().searchsorted(max_evals, side="right"))
    if not deltas[:fit].all():
        # dividing a box at MAX_LEVEL raises, so nothing after it is sampled
        fit = int(np.argmin(deltas)) + 1
    ids, longest, counts, deltas = ids[:fit], longest[:fit], counts[:fit], deltas[:fit]
    owner, coords = np.nonzero(longest)
    steps = deltas[owner]
    # rows 2j and 2j + 1 are center +/- delta along coords[j]
    points = ledger.centers[ids].repeat(2 * counts, axis=0)
    plus = np.arange(0, 2 * coords.size, 2)
    points[plus, coords] += steps
    points[plus + 1, coords] -= steps
    return SamplePlan(ids, counts, deltas, coords, points)


def evaluate_samples(plan: SamplePlan, obj: ObjectiveHandle, on_eval: Optional[OnEval] = None) -> None:
    """Evaluate the points of ``plan`` in plan order, appending to ``plan.values``.

    The block is mapped to problem units with one call, then evaluated one
    point at a time with ``on_eval`` after each, so an exception from the
    objective or from ``on_eval`` stops the sampling at that point and
    propagates; ``plan.values`` then holds the values that returned before.
    """
    for q, x in zip(plan.points, obj.to_problem_units(plan.points)):
        f = obj.evaluate(x)
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
    values = plan.values
    kept = int((2 * plan.counts).cumsum().searchsorted(len(values), side="right"))
    ids, counts, deltas = plan.parent_ids[:kept], plan.counts[:kept], plan.deltas[:kept]
    if not deltas.all():
        # at MAX_LEVEL the box has no width left to form a difference over
        pid = ids[np.argmin(deltas)]
        raise ZeroDivisionError(f"partition {pid} is below float resolution: delta is 0")
    # the best new point is cut first, so it lands in the largest child; the
    # key compares the Python floats the objective returned, and since the
    # planned coordinates of a division ascend, j breaks ties as they would
    ranked: list[int] = []
    start = 0
    for k in counts.tolist():
        end = start + k
        ranked += sorted(range(start, end), key=lambda j: (min(values[2 * j], values[2 * j + 1]), j))
        start = end
    order = np.array(ranked, dtype=np.intp)
    rows = np.stack((2 * order, 2 * order + 1), axis=1).ravel()
    coords = plan.coords[order]
    f = np.array(values)[rows]

    owner = np.arange(ids.size).repeat(counts)
    # rank of each cut within its division; a child has the parent's levels
    # plus one on every side cut up to and including its own cut
    rank = np.arange(order.size) - (counts.cumsum() - counts)[owner]
    cut_rank = np.full((ids.size, ledger.dim), ledger.dim)
    cut_rank[owner, coords] = rank
    levels = ledger.levels[ids]
    child_levels = (levels[owner] + (cut_rank[owner] <= rank[:, None])).repeat(2, axis=0)
    parent_levels = levels + (cut_rank < ledger.dim)

    slopes = ledger.slopes[ids]
    child_slopes = slopes.repeat(2 * counts, axis=0)
    child_slopes[np.arange(f.size), coords.repeat(2)] = (
        np.abs(f - ledger.values[ids][owner].repeat(2)) / deltas[owner].repeat(2)
    )
    slopes[owner, coords] = np.abs(f[0::2] - f[1::2]) / (2.0 * deltas[owner])
    return ledger.divide(
        ids, plan.points[rows], f,
        np.concatenate((parent_levels, child_levels)), np.concatenate((slopes, child_slopes)),
    )
