"""Sampling along longest sides, trisection and slope refresh of partitions.

The scheme keeps the parent's center: new points are placed at distance
``delta = (2/3) * s_max`` on both sides of the center along every longest
coordinate, then the box is cut into thirds along those coordinates, one
coordinate at a time, so the best new value ends up in the largest child.
The longest sides of a box are those at its lowest trisection level.

``divide_partition`` divides a block of partitions in one pass: it places
the points of the whole block, evaluates them in block order, with one
objective call when the handle is ``vectorized``, and then puts every
division whose points all returned in division order, builds the
children's and the parents' level rows and refreshes the slope rows from
the same samples (central differences for the parents, forward
differences for the children), and hands every row to the ledger in one
call.  One partition is a block of one.  The caller picks the block: a
division is made whole or not at all, so a budget must admit the whole
block, ``2 * (n - depth % n)`` evaluations per partition.

A block holds a few divisions of a few sides each, so the pass reads the
block's rows once and does the per-division geometry on Python scalars,
which round exactly as numpy's float64 does; numpy only gathers the rows
and builds the point block.  The level and slope rows go to the ledger as
the lists they were built in; it makes each one array and computes their
depths and slope norms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import HALF_SIDES, ObjectiveHandle, OnEval, PartitionLedger

# _DELTAS[l] is the sampling step of a box whose longest sides are at level
# l, as Python floats with the bits of the numpy expression
_DELTAS = (2.0 * HALF_SIDES / 3.0).tolist()


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


def divide_partition(
    ledger: PartitionLedger, pids, obj: ObjectiveHandle, on_eval: Optional[OnEval] = None
) -> list[int]:
    """Sample, evaluate and trisect every partition in ``pids``, and seed every new slope row.

    ``pids`` is one id or a sequence of distinct ids.  Each partition gets
    two points per longest side, ``center +/- delta`` along each of them in
    ascending order; rows ``2j`` and ``2j + 1`` of the block are the points
    of its cut ``j``, each partition's cuts following the previous one's.
    The block is mapped to problem units with one call.  A ``vectorized``
    handle then evaluates it with one ``evaluate_block`` call; any other
    handle evaluates it lazily, one point at a time, so each evaluation
    comes right before its ``on_eval``.  Either way the values have the same
    bits and reach ``on_eval`` one at a time, in block order.  A partition
    at ``MAX_LEVEL`` has no width left to form a difference over, so it
    raises ``ZeroDivisionError`` before anything is evaluated.

    Each division is cut in division order: its sides ascending by the
    lower of their two new values, ties to the lower coordinate.  At each
    cut the two sampled points become centers of the outer thirds, which
    take the parent's levels as they stand right after that cut; the
    parent keeps the middle third with every longest side cut once.  On
    every divided coordinate p the parent's slope becomes the central
    difference ``|f(x+) - f(x-)| / (2 delta)``.  Each child starts from its
    parent's pre-division row with its own cut coordinate replaced by the
    forward difference ``|f(child) - f(parent)| / delta``; its other
    coordinates are inherited unchanged, even if stale.

    An exception from the objective or from ``on_eval`` stops the sampling
    and propagates, after the divisions whose points all reached
    ``on_eval`` before it have been written; none has if a block call
    raised.  Returns the new ids: the children of cut ``j`` are rows ``2j``
    and ``2j + 1``.
    """
    ids = np.array(pids, dtype=np.intp, ndmin=1)
    levels = ledger.levels[ids].tolist()
    slopes = ledger.slopes[ids].tolist()
    divisions: list[tuple[float, list[int]]] = []
    points: list[list[float]] = []
    for pid, level, center in zip(ids.tolist(), levels, ledger.centers[ids].tolist()):
        low = min(level)
        delta = _DELTAS[low]
        if not delta:
            raise ZeroDivisionError(f"partition {pid} is below float resolution: delta is 0")
        cut = [p for p, side in enumerate(level) if side == low]
        divisions.append((delta, cut))
        for p in cut:
            plus, minus = center.copy(), center.copy()
            plus[p] += delta
            minus[p] -= delta
            points += (plus, minus)
    qs = np.array(points).reshape(-1, ledger.dim)
    xs = obj.to_problem_units(qs)
    values: list[float] = []
    try:
        for q, f in zip(qs, obj.evaluate_block(xs) if obj.vectorized else map(obj.evaluate, xs)):
            if on_eval is not None:
                on_eval(q, f)
            values.append(f)
    finally:
        rows: list[int] = []
        child_levels: list[list[int]] = []
        child_slopes: list[list[float]] = []
        done = len(values) // 2  # cuts whose two points both returned
        start = kept = 0
        for level, slope, f_parent, (delta, cut) in zip(levels, slopes, ledger.values[ids].tolist(), divisions):
            end = start + len(cut)
            if end > done:
                break
            # the best new point is cut first, so it lands in the largest child; the
            # ranking compares the Python floats the objective returned, and since
            # the cut coordinates ascend, j breaks ties as they would
            ranked = sorted([(min(values[2 * j], values[2 * j + 1]), j) for j in range(start, end)])
            # level and slope turn into the parent's new rows in place; every
            # child starts from the parent's pre-division slope row
            inherited = slope.copy()
            for _, j in ranked:
                p = cut[j - start]
                # a child has the parent's levels with every side cut so far, its own cut included
                level[p] += 1
                for row in (2 * j, 2 * j + 1):
                    rows.append(row)
                    child_levels.append(level.copy())
                    child = inherited.copy()
                    child[p] = abs(values[row] - f_parent) / delta
                    child_slopes.append(child)
                slope[p] = abs(values[2 * j] - values[2 * j + 1]) / (2.0 * delta)
            start = end
            kept += 1
        children = []
        if kept:
            children = ledger.divide(ids[:kept], qs[rows], np.array(values)[rows],
                                     levels[:kept] + child_levels, slopes[:kept] + child_slopes)
    return children
