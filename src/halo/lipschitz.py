"""Blending of cached slope norms, and lower bounds.

Each partition carries a vector of absolute difference quotients along the
coordinate axes, written from the samples of its division (see
``partitioning.divide_partition``); the ledger caches each row's norm as it
writes the row (``PartitionLedger.slope_norms``).  The blend of a
partition's own slope norm with the ledger-wide maximum gives the local
constant used to form lower bounds.  Both read a partition's size as its
depth's half diagonal and work on the whole ledger or on a subset of its
rows, with the same elementwise expressions, so a row's constant and bound
have the same bits either way; ``select_halo`` recomputes and reads only
the rows that changed.
"""

from __future__ import annotations

import numpy as np

from .geometry import PartitionLedger


def global_slope_max(ledger: PartitionLedger) -> float:
    """Largest slope-row norm over the whole ledger; the global estimate."""
    if len(ledger) == 0:
        raise ValueError("ledger is empty")
    return float(ledger.slope_norms().max())


def blend(alpha, global_constant, slope_norm):
    """Convex combination ``alpha * global + (1 - alpha) * local``.

    ``alpha`` is the partition's diagonal relative to the cube diagonal, so
    large boxes lean on the global estimate and small boxes on their own
    slopes.  The result always lies between the two arguments.  Works on
    floats and elementwise on arrays.
    """
    return alpha * global_constant + (1.0 - alpha) * slope_norm


def blend_constants(ledger: PartitionLedger, global_constant: float, rows=slice(None)) -> np.ndarray:
    """Local Lipschitz constant estimate of every partition, or of the ids ``rows``.

    Each ``alpha`` is the box diagonal over the cube diagonal sqrt(N),
    capped at 1, which the root reaches.
    """
    alphas = np.minimum(2.0 * ledger.half_diagonals(rows) / np.sqrt(ledger.dim), 1.0)
    return blend(alphas, global_constant, ledger.slope_norms()[rows])


def lower_bounds(ledger: PartitionLedger, constants, rows=slice(None)) -> np.ndarray:
    """Optimistic value a partition could contain: f(center) - L * halfdiag.

    Covers every partition, or the ids ``rows``; ``constants`` is one L
    per partition covered, or one L for all of them.
    """
    return ledger.values[rows] - constants * ledger.half_diagonals(rows)
