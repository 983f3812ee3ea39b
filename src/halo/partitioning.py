"""Sampling along longest sides, trisection and slope refresh of partitions.

The scheme keeps the parent's center: new points are placed at distance
``delta = (2/3) * s_max`` on both sides of the center along every longest
coordinate, then the box is cut into thirds along those coordinates, one
coordinate at a time, so the best new value ends up in the largest child.
The longest sides of a box are those at its lowest trisection level.

Every step works on a block of partitions at once.  ``plan_samples``
places the points of the whole block, keeping the longest prefix that fits
an evaluation budget; ``evaluate_samples`` evaluates them one at a time
and sorts each division's points into division order; ``divide_partition``
hands the plan, which names its own parents, to the ledger as it stands,
refreshing the slope rows from the same samples: central differences for
the parents, forward differences for the children.  One partition is a
block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import HALF_SIDES, ObjectiveHandle, OnEval, PartitionLedger


@dataclass
class SamplePlan:
    """Sample points for a block of partitions about to be divided.

    Division ``i`` divides partition ``parent_ids[i]`` with step
    ``deltas[i]`` along ``counts[i]`` longest sides, its entries of
    ``coords`` (each division's follow the previous one's).  Rows ``2j``
    and ``2j + 1`` of the ``(2K, n)`` block ``points`` are
    ``center +/- delta`` along ``coords[j]``, and ``values`` holds their
    objective values once evaluated.  Each division's sides are ascending
    as planned and in division order once evaluated: ascending by the lower
    of the two new values, ties to the lower coordinate.
    """

    parent_ids: list[int]
    counts: list[int]
    deltas: np.ndarray
    coords: list[int]
    points: np.ndarray
    values: Optional[np.ndarray] = None


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
    return SamplePlan(ids.tolist(), counts.tolist(), deltas, coords.tolist(), points)


def evaluate_samples(plan: SamplePlan, obj: ObjectiveHandle, on_eval: Optional[OnEval] = None) -> None:
    """Evaluate the points of ``plan`` and put each division in division order.

    The block is mapped to problem units with one call, then evaluated one
    point at a time, in plan order, with ``on_eval`` after each, so an
    exception from the objective or from ``on_eval`` stops the sampling at
    that point.  The plan then keeps only the divisions whose points all
    returned, and the exception propagates.
    """
    values: list[float] = []
    try:
        for q, x in zip(plan.points, obj.to_problem_units(plan.points)):
            f = obj.evaluate(x)
            if on_eval is not None:
                on_eval(q, f)
            values.append(f)
    finally:
        _sort_completed(plan, values)


def _sort_completed(plan: SamplePlan, values: list[float]) -> None:
    """Cut ``plan`` to the divisions with all their ``values`` and sort each one."""
    coords: list[int] = []
    rows: list[int] = []
    start = 0
    for kept, k in enumerate(plan.counts):
        end = start + k
        if 2 * end > len(values):
            break
        # the best new point is cut first, so it lands in the largest child;
        # the key compares the Python floats the objective returned
        order = sorted(range(start, end), key=lambda j: (min(values[2 * j], values[2 * j + 1]), plan.coords[j]))
        coords += [plan.coords[j] for j in order]
        rows += [r for j in order for r in (2 * j, 2 * j + 1)]
        start = end
    else:
        kept = len(plan.counts)
    plan.parent_ids = plan.parent_ids[:kept]
    plan.counts = plan.counts[:kept]
    plan.deltas = plan.deltas[:kept]
    plan.coords = coords
    plan.points = plan.points[rows]
    plan.values = np.array([values[r] for r in rows])


def sample_partition(ledger: PartitionLedger, pids, obj: ObjectiveHandle) -> SamplePlan:
    """Plan and evaluate the new points of every partition in ``pids``.

    Consumes exactly ``2k`` evaluations per partition; see ``plan_samples``
    and ``evaluate_samples``.
    """
    plan = plan_samples(ledger, pids)
    evaluate_samples(plan, obj)
    return plan


def divide_partition(ledger: PartitionLedger, plan: SamplePlan) -> list[int]:
    """Trisect every parent of an evaluated ``plan`` and seed every new slope row.

    The partitions divided are ``plan.parent_ids``.  Coordinates are cut
    in ``plan.coords`` order; at each cut the two sampled points become
    centers of the outer thirds, which take the box extents as they stand
    at that step (see ``PartitionLedger.divide``).  On every divided
    coordinate p the parent's slope becomes the central difference
    ``|f(x+) - f(x-)| / (2 delta)``.  Each child starts from its parent's
    pre-division row with its own cut coordinate replaced by the forward
    difference ``|f(child) - f(parent)| / delta``; its other coordinates
    are inherited unchanged, even if stale.  Returns the new ids in plan
    row order.
    """
    ids = np.array(plan.parent_ids, dtype=np.intp, ndmin=1)
    deltas = plan.deltas
    if not deltas.all():
        # at MAX_LEVEL the box has no width left to form a difference over
        pid = ids[np.argmin(deltas)]
        raise ZeroDivisionError(f"partition {pid} is below float resolution: delta is 0")
    counts = np.array(plan.counts, dtype=np.intp)
    coords = np.array(plan.coords, dtype=np.intp)
    values = plan.values
    owner = np.arange(ids.size).repeat(counts)
    slopes = ledger.slopes[ids]
    child_slopes = slopes.repeat(2 * counts, axis=0)
    child_slopes[np.arange(values.size), coords.repeat(2)] = (
        np.abs(values - ledger.values[ids][owner].repeat(2)) / deltas[owner].repeat(2)
    )
    slopes[owner, coords] = np.abs(values[0::2] - values[1::2]) / (2.0 * deltas[owner])
    return ledger.divide(ids, counts, coords, plan.points, values, slopes, child_slopes)
