"""Rules for choosing which partitions to sample next.

Two families are implemented: the lower-bound criteria driven by local
Lipschitz constant estimates (used by the halo and hlo variants), and the
potentially-optimal-hyperrectangle rule of the classical dividing-
rectangles baseline.  The lower-bound selection of a run carries its
bounds from one iteration to the next (``CarriedBounds``), so an
iteration recomputes only the rows it changed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import PartitionLedger, half_diagonal_table
from .lipschitz import blend_constants, lower_bounds


@dataclass
class SelectionOutcome:
    """The chosen ids and the winner of each criterion."""

    chosen: list[int]
    lowest_bound: int
    lowest_value: int
    largest_best: int


@dataclass
class CarriedBounds:
    """What ``select_halo`` keeps from one call to the next on one ledger.

    ``blend`` says what the ``constants`` of every call are: with
    ``blend``, the global constant, which ``blend_constants`` turns into
    one constant per partition (``halo``); without, the constants
    themselves (``hlo`` passes the global constant for every partition).
    ``select_halo`` writes the other fields: the lower bound of each of
    the ``count`` rows it saw, computed with the constants whose bits are
    ``key`` (None when they were not a single float), the ids it chose,
    the lowest-value winner and the ids of the shallowest depth class.
    """

    blend: bool = False
    key: Optional[bytes] = None
    count: int = 0
    bounds: np.ndarray = field(default_factory=lambda: np.empty(0))
    chosen: list[int] = field(default_factory=list)
    lowest_value: int = 0
    depth: int = 0
    shallow: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))


def select_halo(ledger: PartitionLedger, constants, carried: Optional[CarriedBounds] = None) -> SelectionOutcome:
    """Select partitions per the three lower-bound criteria.

    ``constants`` holds one Lipschitz constant per partition, or a single
    one for all of them (see ``CarriedBounds.blend`` for the global
    constant of a ``halo`` run).

    Criterion 1: the lowest lower bound over all partitions.
    Criterion 2: the lowest objective value.
    Criterion 3: among the largest partitions (least depth), the lowest lower bound.

    Argmin ties break toward the lowest id, and a NaN wins an argmin as in
    ``np.argmin``.  The outcome names each criterion's winner
    (``lowest_bound``, ``lowest_value``, ``largest_best``); ``chosen``
    lists them in criterion order 1, 2, 3 with duplicates merged, so it
    never holds more than three ids.

    ``carried`` is the state of the previous call on the same ledger; a
    fresh one (the default) makes this call a full scan.  Between two
    calls with one state the caller may append rows and rewrite the
    levels and slopes of ids the earlier call chose, and nothing else, as
    the solver loop does.  A row's bound depends only on the row and the
    constants, and values never change, so when the single constant keeps
    its bits only the chosen ids and the new rows get new bounds;
    otherwise every row does.  Criterion 2 compares the previous winner
    with the new rows.  Criterion 3 drops the ids of the shallowest class
    whose depth rose and scans the depths again only when the class
    empties: a new row is always deeper than its parent was, so it never
    joins the class.
    """
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    state = CarriedBounds() if carried is None else carried
    count, seen = len(ledger), state.count
    values, depths = ledger.values, ledger.depths
    key = struct.pack("<d", constants) if isinstance(constants, float) else None
    tail = list(range(seen, count))
    # constants other than one float have no key, so every call refreshes every row
    rows = np.array(state.chosen + tail) if seen and key is not None and key == state.key else slice(None)
    if state.bounds.size < count:
        state.bounds = np.concatenate((state.bounds, np.empty(max(state.bounds.size, count))))
    bounds = state.bounds[:count]
    local = blend_constants(ledger, constants, rows) if state.blend else constants
    bounds[rows] = lower_bounds(ledger, local, rows)

    q1 = int(bounds.argmin())
    # the previous winner (row 0 for a fresh state, whose tail is every row)
    # comes first, so ties and a first NaN still go to the lowest id
    candidates = [state.lowest_value] + tail
    q2 = candidates[int(values[candidates].argmin())]
    shallow = state.shallow[depths[state.shallow] == state.depth]
    if shallow.size == 0:
        state.depth = int(depths.min())
        shallow = np.flatnonzero(depths == state.depth)
    q3 = int(shallow[bounds[shallow].argmin()])

    chosen = list(dict.fromkeys((q1, q2, q3)))
    state.key, state.count, state.chosen, state.lowest_value, state.shallow = key, count, chosen, q2, shallow
    return SelectionOutcome(chosen, q1, q2, q3)


def select_potentially_optimal(ledger: PartitionLedger, epsilon_rel: float) -> list[int]:
    """Ids that are potentially optimal in the dividing-rectangles sense.

    A partition i qualifies when some rate constant K > 0 makes
    ``f_i - K d_i`` no worse than every other partition and at least
    ``epsilon`` below the incumbent, with ``epsilon = epsilon_rel * |f_min|``
    (floored at 1e-8 when f_min is exactly 0 so the test is not vacuous).
    Equivalent to sitting on the lower-right convex hull of the
    (half diagonal, value) cloud.

    Rows of equal depth form one size class, whose half diagonal is the
    depth's ``half_diagonal_table`` entry.  One group-by pass over the
    integer depth offsets gives each class's lowest value; a min does not
    depend on row order.  The hull test then runs on the class-by-class
    matrix: for each class minimum, ``k_low`` is the steepest slope down
    to a smaller class (0 if there is none), ``k_high`` the shallowest
    slope up to a larger class (inf if there is none) and ``k_eps`` the
    slope to ``f_min - epsilon``.  The class qualifies when ``k_high > 0`` and
    ``k_high >= max(k_low, k_eps)``; that max keeps ``k_low`` unless
    ``k_eps`` is strictly greater, so a NaN in either one decides as a
    plain two-way max would.  Every row that holds its class's qualifying
    minimum is chosen; the ids come back ascending.
    """
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    values = ledger.values
    f_min = float(values.min())
    eps_abs = epsilon_rel * abs(f_min)
    if epsilon_rel > 0.0 and f_min == 0.0:
        eps_abs = 1e-8

    depths = ledger.depths
    shallowest = depths.min()
    offsets = depths - shallowest
    present = np.bincount(offsets) > 0
    class_f = np.full(present.size, np.inf)
    # ``minimum.at`` flags a NaN value as invalid, and entry [i, j] of the
    # matrices below pairs the minimum of class i with that of class j, so
    # the entries the masks drop (the diagonal's 0/0, inf - inf) may warn.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.minimum.at(class_f, offsets, values)
        f = class_f[present]
        d = half_diagonal_table(ledger.dim)[shallowest + np.flatnonzero(present)]
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
