"""Absolute slope bookkeeping and local Lipschitz constant estimates.

Each partition carries a vector of absolute difference quotients along the
coordinate axes.  A division refreshes the parent's entries with central
differences and seeds the children with forward differences; the blend of
a partition's own slope norm with the ledger-wide maximum then gives the
local constant used to form lower bounds.
"""

from __future__ import annotations

import numpy as np

from .geometry import PartitionLedger
from .partitioning import SamplePlan


def update_slopes_on_division(
    ledger: PartitionLedger, parent_id: int, plan: SamplePlan, child_ids: list[int]
) -> None:
    """Refresh slope rows after ``parent_id`` was divided under ``plan``.

    On every divided coordinate p the parent gets the central difference
    ``|f(x+) - f(x-)| / (2 delta)``.  Each child starts from a copy of the
    parent's pre-division row with its own coordinate replaced by the
    forward difference ``|f(child) - f(parent)| / delta``; all other
    coordinates are inherited unchanged, even if stale.
    """
    base = ledger.slopes[parent_id].copy()
    parent_center = ledger.centers[parent_id]
    parent_value = float(ledger.values[parent_id])
    delta = plan.delta
    for i, p in enumerate(plan.coords):
        central = abs(plan.values_plus[i] - plan.values_minus[i]) / (2.0 * delta)
        ledger.set_slope(parent_id, p, central)
    for cid in child_ids:
        offset = ledger.centers[cid] - parent_center
        p = int(np.argmax(np.abs(offset)))
        row = base.copy()
        row[p] = abs(float(ledger.values[cid]) - parent_value) / delta
        ledger.set_slope_row(cid, row)


def slope_norms(ledger: PartitionLedger) -> np.ndarray:
    """Euclidean norm of every slope row."""
    return np.linalg.norm(ledger.slopes, axis=1)


def global_slope_max(ledger: PartitionLedger) -> float:
    """Largest slope-row norm over the whole ledger; the global estimate."""
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    return float(slope_norms(ledger).max())


def blend(alpha, global_constant, slope_norm):
    """Convex combination ``alpha * global + (1 - alpha) * local``.

    ``alpha`` is the partition's diagonal relative to the cube diagonal, so
    large boxes lean on the global estimate and small boxes on their own
    slopes.  The result always lies between the two arguments.  Works on
    floats and elementwise on arrays.
    """
    return alpha * global_constant + (1.0 - alpha) * slope_norm


def blend_constants(ledger: PartitionLedger, global_constant: float) -> np.ndarray:
    """Local Lipschitz constant estimate of every partition.

    Each ``alpha`` is the box diagonal over the cube diagonal sqrt(N),
    capped at 1, which the root reaches.
    """
    alphas = np.minimum(2.0 * ledger.half_diagonals() / np.sqrt(ledger.dim), 1.0)
    return blend(alphas, global_constant, slope_norms(ledger))


def lower_bounds(ledger: PartitionLedger, constants: np.ndarray) -> np.ndarray:
    """Optimistic value every partition could contain: f(center) - L * halfdiag."""
    return ledger.values - constants * ledger.half_diagonals()
