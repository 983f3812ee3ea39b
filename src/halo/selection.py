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


def select_potentially_optimal(ledger: PartitionLedger, epsilon_rel: float) -> list[int]:
    """Ids that are potentially optimal in the dividing-rectangles sense.

    A partition i qualifies when some rate constant K > 0 makes
    ``f_i - K d_i`` no worse than every other partition and at least
    ``epsilon`` below the incumbent, with ``epsilon = epsilon_rel * |f_min|``
    (floored at 1e-8 when f_min is exactly 0 so the test is not vacuous).
    Equivalent to sitting on the lower-right convex hull of the
    (half diagonal, value) cloud.

    Rows of equal depth form one size class.  One group-by pass over the
    integer depth offsets gives each class's lowest value and largest half
    diagonal (rows of one class can differ in the last bit, as their sides
    come in different orders); min and max do not depend on row order.
    The hull test then runs on the class-by-class matrix: for each class
    minimum, ``k_low`` is the steepest slope down to a smaller class (0
    if there is none), ``k_high`` the shallowest slope up to a larger
    class (inf if there is none) and ``k_eps`` the slope to
    ``f_min - epsilon``.  The class qualifies when ``k_high > 0`` and
    ``k_high >= max(k_low, k_eps)``; that max keeps ``k_low`` unless
    ``k_eps`` is strictly greater, so a NaN in either one decides as a
    plain two-way max would.  Every row that holds its class's qualifying
    minimum is chosen; the ids come back ascending.
    """
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    values = ledger.values
    diags = ledger.half_diagonals()
    f_min = float(values.min())
    eps_abs = epsilon_rel * abs(f_min)
    if epsilon_rel > 0.0 and f_min == 0.0:
        eps_abs = 1e-8

    depths = ledger.depths
    offsets = depths - depths.min()
    present = np.bincount(offsets) > 0
    class_f = np.full(present.size, np.inf)
    class_d = np.full(present.size, -np.inf)
    # ``minimum.at`` flags a NaN value as invalid, and entry [i, j] of the
    # matrices below pairs the minimum of class i with that of class j, so
    # the entries the masks drop (the diagonal's 0/0, inf - inf) may warn.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.minimum.at(class_f, offsets, values)
        np.maximum.at(class_d, offsets, diags)
        f, d = class_f[present], class_d[present]
        k_low = (f[:, None] - f[None, :]) / (d[:, None] - d[None, :])
        k_high = (f[None, :] - f[:, None]) / (d[None, :] - d[:, None])
        k_eps = (f - (f_min - eps_abs)) / d
    below = d[None, :] < d[:, None]
    above = d[None, :] > d[:, None]
    k_low = np.where(below.any(axis=1), np.where(below, k_low, -np.inf).max(axis=1), 0.0)
    k_high = np.where(above, k_high, np.inf).min(axis=1)
    k_need = np.where(k_eps > k_low, k_eps, k_low)
    optimal = np.zeros(present.size, dtype=bool)
    optimal[present] = (k_high > 0.0) & (k_high >= k_need)

    hit = optimal[offsets] & (values == class_f[offsets])
    return np.flatnonzero(hit).tolist()
