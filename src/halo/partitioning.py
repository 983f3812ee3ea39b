"""Sampling along longest sides, trisection and slope refresh of a partition.

The scheme keeps the parent's center: new points are placed at distance
``delta = (2/3) * s_max`` on both sides of the center along every longest
coordinate, then the box is cut into thirds along those coordinates, one
coordinate at a time, so the best new value ends up in the largest child.
The longest sides of a box are those at its lowest trisection level.
Sampling returns its points as one block already in division order, and
the division step hands that block to the ledger as it stands, refreshing
the slope rows from the same samples: central differences for the parent,
forward differences for the children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import HALF_SIDES, BudgetExhaustedError, ObjectiveHandle, PartitionLedger

OnEval = Callable[[np.ndarray, float], None]


@dataclass
class SamplePlan:
    """Evaluated sample points for one partition about to be divided.

    ``coords`` is the longest-side set of the parent in division order:
    ascending by the lower of the two new values, ties to the lower
    coordinate.  Rows ``2j`` and ``2j + 1`` of the ``(2k, n)`` block
    ``points`` are ``center +/- delta`` along ``coords[j]``, and ``values``
    holds their objective values.
    """

    parent_id: int
    delta: float
    coords: list[int]
    points: np.ndarray
    values: np.ndarray


def longest_side_coords(levels: np.ndarray) -> list[int]:
    """Ascending indices of the longest sides: those at the lowest level."""
    return [int(i) for i in np.flatnonzero(levels == levels.min())]


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


def sample_partition(
    ledger: PartitionLedger,
    pid: int,
    obj: ObjectiveHandle,
    max_fun_evals: Optional[int] = None,
    on_eval: Optional[OnEval] = None,
) -> SamplePlan:
    """Evaluate the two new points per longest coordinate of partition ``pid``.

    Consumes exactly ``2 * len(coords)`` evaluations.  If that would push
    ``obj.eval_count`` past ``max_fun_evals`` the plan is abandoned before
    any evaluation and BudgetExhaustedError is raised: partial divisions
    would break the tiling of the cube.  The points are built and mapped to
    problem units as one block, then evaluated one at a time (plus before
    minus, coordinates ascending) with ``on_eval`` after each, so an
    exception from ``on_eval`` stops the sampling at that point.  The
    returned plan holds the pairs in division order.
    """
    center = ledger.centers[pid]
    levels = ledger.levels[pid]
    coords = longest_side_coords(levels)
    delta = 2.0 * float(HALF_SIDES[levels.min()]) / 3.0
    k = len(coords)
    if max_fun_evals is not None and obj.eval_count + 2 * k > max_fun_evals:
        raise BudgetExhaustedError(
            f"sampling partition {pid} needs {2 * k} evaluations, "
            f"only {max_fun_evals - obj.eval_count} remain"
        )
    # rows 2j and 2j + 1 are center +/- delta along coords[j]
    points = np.repeat(center[None], 2 * k, axis=0)
    plus = np.arange(0, 2 * k, 2)
    points[plus, coords] += delta
    points[plus + 1, coords] -= delta
    values = []
    for q, x in zip(points, obj.to_problem_units(points)):
        f = obj.evaluate(x)
        if on_eval is not None:
            on_eval(q, f)
        values.append(f)
    # the best new point is cut first, so it lands in the largest child
    order = sorted(range(k), key=lambda j: (min(values[2 * j], values[2 * j + 1]), coords[j]))
    rows = [r for j in order for r in (2 * j, 2 * j + 1)]
    return SamplePlan(pid, delta, [coords[j] for j in order], points[rows], np.array(values)[rows])


def divide_partition(ledger: PartitionLedger, pid: int, plan: SamplePlan) -> list[int]:
    """Trisect partition ``pid`` under ``plan`` and seed every new slope row.

    Coordinates are cut in ``plan.coords`` order; at each cut the two
    sampled points become centers of the outer thirds, which take the box
    extents as they stand at that step (see ``PartitionLedger.divide``).
    On every divided coordinate p the parent's slope becomes the central
    difference ``|f(x+) - f(x-)| / (2 delta)``.  Each child starts from the
    parent's pre-division row with its own cut coordinate replaced by the
    forward difference ``|f(child) - f(parent)| / delta``; its other
    coordinates are inherited unchanged, even if stale.  Returns the new
    ids in plan row order.
    """
    if plan.delta == 0.0:
        # at MAX_LEVEL the box has no width left to form a difference over
        raise ZeroDivisionError(f"partition {pid} is below float resolution: delta is 0")
    values = plan.values
    base = ledger.slopes[pid]
    child_slopes = np.repeat(base[None], len(values), axis=0)
    child_slopes[np.arange(len(values)), np.repeat(plan.coords, 2)] = (
        np.abs(values - ledger.values[pid]) / plan.delta
    )
    parent_slopes = base.copy()
    parent_slopes[plan.coords] = np.abs(values[0::2] - values[1::2]) / (2.0 * plan.delta)
    return ledger.divide(pid, plan.coords, plan.points, values, parent_slopes, child_slopes)
