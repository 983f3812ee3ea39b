"""Rules for choosing which partitions to sample next.

Two families are implemented: the lower-bound criteria driven by local
Lipschitz constant estimates (used by the halo and hlo variants), and the
potentially-optimal-hyperrectangle rule of the classical dividing-
rectangles baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PartitionLedger
from .lipschitz import lower_bounds


@dataclass
class SelectionOutcome:
    """The chosen ids and the winner of each criterion."""

    chosen: list[int]
    lowest_bound: int
    lowest_value: int
    largest_best: int


def select_halo(ledger: PartitionLedger, constants) -> SelectionOutcome:
    """Select partitions per the three lower-bound criteria.

    ``constants`` holds one Lipschitz constant per partition, or a single
    one for all of them.

    Criterion 1: the lowest lower bound over all partitions.
    Criterion 2: the lowest objective value.
    Criterion 3: among the largest partitions (least depth, so maximal half
    diagonal), the lowest lower bound.

    Argmin ties break toward the lowest id.  The outcome names each
    criterion's winner (``lowest_bound``, ``lowest_value``,
    ``largest_best``); ``chosen`` lists them in criterion order 1, 2, 3
    with duplicates merged, so it never holds more than three ids.
    """
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    values = ledger.values
    depths = ledger.depths
    bounds = lower_bounds(ledger, constants)

    q1 = int(np.argmin(bounds))
    q2 = int(np.argmin(values))
    in_max = np.flatnonzero(depths == depths.min())
    q3 = int(in_max[np.argmin(bounds[in_max])])

    return SelectionOutcome(list(dict.fromkeys((q1, q2, q3))), q1, q2, q3)


def _size_classes(
    depths: np.ndarray, diags: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by depth, i.e. by box size.

    Returns each class's largest half diagonal (rows of one class can
    differ in the last bit, as their sides come in different orders), its
    lowest value, and the class index of every row.
    """
    order = np.argsort(depths, kind="stable")
    sorted_depths = depths[order]
    starts = np.flatnonzero(np.diff(sorted_depths, prepend=-1))
    class_d = np.maximum.reduceat(diags[order], starts)
    class_f = np.minimum.reduceat(values[order], starts)
    return class_d, class_f, np.searchsorted(sorted_depths[starts], depths)


def select_potentially_optimal(ledger: PartitionLedger, epsilon_rel: float) -> list[int]:
    """Ids that are potentially optimal in the dividing-rectangles sense.

    A partition i qualifies when some rate constant K > 0 makes
    ``f_i - K d_i`` no worse than every other partition and at least
    ``epsilon`` below the incumbent, with ``epsilon = epsilon_rel * |f_min|``
    (floored at 1e-8 when f_min is exactly 0 so the test is not vacuous).
    Equivalent to sitting on the lower-right convex hull of the
    (half diagonal, value) cloud; computed here per size class (rows of
    equal depth) through the feasible-K interval of each class minimum.
    """
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    values = ledger.values
    diags = ledger.half_diagonals()
    f_min = float(values.min())
    eps_abs = epsilon_rel * abs(f_min)
    if epsilon_rel > 0.0 and f_min == 0.0:
        eps_abs = 1e-8

    class_d, class_f, row_class = _size_classes(ledger.depths, diags, values)
    optimal = np.zeros(class_d.size, dtype=bool)
    for i in range(class_d.size):
        d_i, f_i = class_d[i], class_f[i]
        below = class_d < d_i
        above = class_d > d_i
        k_low = float(np.max((f_i - class_f[below]) / (d_i - class_d[below]))) if below.any() else 0.0
        k_high = float(np.min((class_f[above] - f_i) / (class_d[above] - d_i))) if above.any() else np.inf
        k_eps = (f_i - (f_min - eps_abs)) / d_i
        k_need = max(k_low, k_eps)
        optimal[i] = k_high > 0.0 and k_high >= k_need
    hit = optimal[row_class] & (values == class_f[row_class])
    return [int(j) for j in np.flatnonzero(hit)]
