"""Box domains, trisection levels and the append-only partition ledger.

All solver geometry lives in the normalized unit hypercube [0, 1]^N.
Objective functions are evaluated in problem units; the solver maps its
points there through ``ObjectiveHandle.to_problem_units``.
``denormalize_point`` maps a single point with a range check, for
replaying a trace.

The solver only ever trisects, so the size of a box is fully described by
an integer level per side: a side cut ``l`` times has half length
``HALF_SIDES[l]``, and its half diagonal is set by its depth.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np


def _half_side_table() -> np.ndarray:
    sides = [0.5]
    while sides[-1] > 0.0:
        sides.append(sides[-1] / 3.0)
    return np.array(sides)


# HALF_SIDES[l] is the half side after l trisections: 0.5 divided by 3.0
# l times, rounding at every step, which can differ in the last bit from
# 0.5 * 3.0**-l.  The table ends where the value underflows to 0.0, at
# level MAX_LEVEL = 678.  Half diagonals come from ``half_diagonal_table``.
HALF_SIDES = _half_side_table()
HALF_SIDES.setflags(write=False)
MAX_LEVEL = HALF_SIDES.size - 1


@functools.cache
def half_diagonal_table(n: int) -> np.ndarray:
    """Read-only half diagonal of an ``n``-dimensional box, indexed by its depth ``d``.

    Entry ``d`` is the axis-1 norm of the sorted level row, ``n - m`` sides at
    ``k`` then ``m`` at ``k + 1`` for ``(k, m) = divmod(d, n)``; where a square
    is subnormal (from level 339), ``HALF_SIDES[k] * sqrt((n - m) + m * (HALF_SIDES[k + 1] / HALF_SIDES[k])**2)``.
    Only the last entry, every side at ``MAX_LEVEL``, is 0.0.
    """
    k, m = np.divmod(np.arange(n * MAX_LEVEL), n)
    sides = HALF_SIDES[np.where(np.arange(n) >= n - m[:, None], k[:, None] + 1, k[:, None])]
    scaled = HALF_SIDES[k] * np.sqrt((n - m) + m * (sides[:, -1] / HALF_SIDES[k]) ** 2)
    subnormal = sides[:, -1] ** 2 < np.finfo(float).tiny
    table = np.append(np.where(subnormal, scaled, np.linalg.norm(sides, axis=1)), 0.0)
    table.setflags(write=False)
    return table


# Rows a new ledger holds before its columns first grow (then double).
_INITIAL_CAPACITY = 64

# The ledger's columns: ``PartitionLedger._<name>`` is stored, and the
# read-only ``_views[<name>]`` is handed out up to the row count.
_COLUMNS = ("centers", "levels", "values", "slopes", "depths", "slope_norms")


class DomainViolationError(ValueError):
    """A point lies outside the box it is being mapped against."""


class ObjectiveError(RuntimeError):
    """The wrapped evaluator raised; carries the trace gathered so far."""

    def __init__(self, message: str):
        super().__init__(message)
        self.partial_trace = None


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box ``{x : lower <= x <= upper}`` in problem units."""

    lower: np.ndarray
    upper: np.ndarray
    widths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.ndim != 1 or upper.shape != lower.shape or lower.size < 1:
            raise ValueError("lower and upper must be 1-d vectors of equal length >= 1")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        widths = upper - lower
        # an infinite bound gives an infinite width; so can two huge finite ones
        if not np.all(np.isfinite(widths)):
            raise ValueError("bounds and their widths must be finite")
        for name, value in (("lower", lower), ("upper", upper), ("widths", widths)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.lower.size


def denormalize_point(q, domain: BoxDomain) -> np.ndarray:
    """Map a point in [0, 1]^N back to problem units.

    Raises DomainViolationError if ``q`` has the wrong shape or falls
    outside the unit cube.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != domain.lower.shape:
        raise DomainViolationError(f"point has shape {q.shape}, domain is {domain.dim}-dimensional")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise DomainViolationError(f"normalized point {q} outside the unit cube")
    return domain.lower + q * domain.widths


class PartitionLedger:
    """Append-only, column-stacked store of every partition created so far.

    The size of a row is its level vector: side ``j`` has been trisected
    ``levels[j]`` times.  Only longest sides are ever cut, so the levels of
    a row lie in ``{k, k + 1}`` for some ``k``.  ``append`` rejects any
    other row; the rows ``divide`` stores come from
    ``partitioning.divide_partition``, which samples and trisects a block
    in one pass, and the property tests check that they keep this form.  So
    the depth is a row's size: rows of one depth have the same sides up to
    order and one ``half_diagonal_table`` entry, and a greater depth means
    a strictly smaller box.  Slope rows hold nonnegative absolute
    difference quotients along each axis, in objective units per normalized
    length.

    Two columns are cached when a row is written: the depth
    ``levels.sum()`` and the slope norm ``norm(slopes)``.  So that they
    cannot go stale, every column is handed out as a read-only view; rows
    change only through ``append`` and ``divide``, which reject rows of
    another dimension rather than broadcast them.

    Rows are never deleted: dividing a partition trisects it in place and
    appends the new children, so the set of rows always tiles the unit
    cube.  Ids are dense ``0..count-1`` and never reused.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self._dim = dim
        self._centers = np.zeros((_INITIAL_CAPACITY, dim))
        self._levels = np.zeros((_INITIAL_CAPACITY, dim), dtype=np.int16)
        self._values = np.zeros(_INITIAL_CAPACITY)
        self._slopes = np.zeros((_INITIAL_CAPACITY, dim))
        self._depths = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._slope_norms = np.zeros(_INITIAL_CAPACITY)
        self._count = 0
        self._make_views()

    def __len__(self) -> int:
        return self._count

    @property
    def dim(self) -> int:
        return self._dim

    def _make_views(self):
        # once per growth: a slice of a read-only view is read-only itself
        self._views = {}
        for name in _COLUMNS:
            view = getattr(self, "_" + name).view()
            view.flags.writeable = False
            self._views[name] = view

    @property
    def centers(self) -> np.ndarray:
        """View of all centers, shape (count, dim). Stale after append."""
        return self._views["centers"][: self._count]

    @property
    def levels(self) -> np.ndarray:
        """View of the trisection level of every side, shape (count, dim)."""
        return self._views["levels"][: self._count]

    @property
    def depths(self) -> np.ndarray:
        """View of every row's total level ``levels.sum()``."""
        return self._views["depths"][: self._count]

    @property
    def values(self) -> np.ndarray:
        return self._views["values"][: self._count]

    @property
    def slopes(self) -> np.ndarray:
        return self._views["slopes"][: self._count]

    def _grow(self):
        cap = 2 * self._centers.shape[0]
        for name in _COLUMNS:
            old = getattr(self, "_" + name)
            new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._count] = old[: self._count]
            setattr(self, "_" + name, new)
        self._make_views()

    def _write(self, rows, levels: np.ndarray, slopes: np.ndarray):
        """Store level and slope rows at ``rows`` and fill their cached columns."""
        if (slopes < 0.0).any():
            raise ValueError("slopes are absolute and must be nonnegative")
        self._levels[rows] = levels
        self._slopes[rows] = slopes
        self._depths[rows] = levels.sum(axis=1)
        # np.linalg.norm(slopes, axis=1) without its wrapper; reducing each
        # row over its own contiguous axis gives it, row by row, the bits of
        # the same row within a whole-matrix norm
        self._slope_norms[rows] = np.sqrt(np.add.reduce(slopes * slopes, axis=1))

    def _reserve(self, k: int) -> int:
        """Make room for ``k`` more rows; returns the first new id."""
        while self._count + k > self._centers.shape[0]:
            self._grow()
        return self._count

    def append(self, center, levels, value: float, slopes=None) -> int:
        levels = np.asarray(levels)
        if not np.issubdtype(levels.dtype, np.integer) or levels.shape != (self._dim,):
            raise ValueError(f"levels must be {self._dim} integers, got {levels!r}")
        low, high = levels.min(), levels.max()
        if low < 0 or high > low + 1 or high > MAX_LEVEL:
            raise ValueError(f"levels {levels} are not {{k, k + 1}} within 0..{MAX_LEVEL}")
        center = np.asarray(center, dtype=float)
        slopes = np.zeros(self._dim) if slopes is None else np.asarray(slopes, dtype=float)
        # checked, not broadcast: a short slope row would cache the wrong norm
        if center.shape != (self._dim,) or slopes.shape != (self._dim,):
            raise ValueError(f"center and slopes must be {self._dim} floats, got {center!r} and {slopes!r}")
        i = self._reserve(1)
        self._centers[i] = center
        self._values[i] = float(value)
        self._write(slice(i, i + 1), levels[None], slopes[None])
        self._count += 1
        return i

    def divide(self, pids, centers, values, levels, slopes) -> list[int]:
        """Rewrite rows ``pids`` and append one child row per row of ``centers``.

        ``levels`` and ``slopes`` are stacked parents first, as sequences of
        rows or as arrays: their first ``len(pids)`` rows replace those of
        ``pids``, the rest go to the children, whose centers and values are
        ``centers`` and ``values``.  ``divide_partition`` computes every row
        from the block's samples and hands over the lists it built them in.
        Returns the new ids in row order.
        """
        centers = np.asarray(centers, dtype=float)
        levels = np.array(levels, dtype=self._levels.dtype)
        slopes = np.array(slopes, dtype=float)
        k = len(centers)
        rows = (len(pids) + k, self._dim)
        if centers.shape != (k, self._dim) or levels.shape != rows or slopes.shape != rows:
            raise ValueError(f"centers must have shape {(k, self._dim)}, levels and slopes {rows}")
        first = self._reserve(k)
        end = first + k
        # rows past the count first: a rejected call leaves the ledger as it was
        self._centers[first:end] = centers
        self._values[first:end] = values
        self._write(np.concatenate((pids, np.arange(first, end))), levels, slopes)
        self._count = end
        return list(range(first, end))

    def half_diagonals(self, rows=slice(None)) -> np.ndarray:
        """Read-only half diagonal of every row, or of the ids ``rows``: its depth's table entry."""
        diags = np.asarray(half_diagonal_table(self._dim)[self.depths[rows]])
        diags.flags.writeable = False
        return diags

    def slope_norms(self) -> np.ndarray:
        """View of every slope row's Euclidean norm."""
        return self._views["slope_norms"][: self._count]


# Callback told of each evaluation: the normalized point and its value.  The
# point is read-only and nothing writes to it afterwards, so a callback may
# keep it without a copy; every caller in the solver marks it before the call.
OnEval = Callable[[np.ndarray, float], None]


@dataclass
class ObjectiveHandle:
    """Opaque evaluator of the objective over a box domain.

    ``vectorized`` describes the evaluator: it also takes a ``(k, N)`` block
    and returns shape ``(k,)``, every entry with the bits of a single-point
    call, so ``evaluate_block`` evaluates a block with one call.  It must
    still take one ``(N,)`` point.

    ``eval_count`` starts at 0 and grows by one per point evaluated, local
    searches included, over every run on the handle; a run's budget counts
    only its own evaluations.  A run that stops at a point inside a block
    of a ``vectorized`` handle has had the rest of the block evaluated too,
    so ``eval_count`` can then exceed the trace's ``n_evals``.  Runs on one
    handle must not overlap; the wrapped ``evaluator`` itself must be safe
    to call from several handles concurrently.
    """

    evaluator: Callable[[np.ndarray], float]
    domain: BoxDomain
    known_optimum: Optional[float] = None
    vectorized: bool = False
    eval_count: int = field(default=0, init=False)

    def evaluate(self, point) -> float:
        """Evaluate at a problem-units point."""
        point = np.asarray(point, dtype=float)
        try:
            value = float(self.evaluator(point))
        except Exception as exc:
            raise ObjectiveError(f"objective evaluation failed at {point}: {exc}") from exc
        self.eval_count += 1
        return value

    def evaluate_block(self, points) -> Iterable[float]:
        """Evaluate each row of a ``(k, N)`` problem-units block, as Python floats in row order.

        A ``vectorized`` handle makes one evaluator call, which raises ``ObjectiveError`` and
        counts nothing if the evaluator raises or does not return shape ``(k,)``.  Any other
        handle returns ``map(self.evaluate, points)``, which evaluates a row only when it is read.
        """
        points = np.asarray(points, dtype=float)
        if not self.vectorized:
            return map(self.evaluate, points)
        k = len(points)
        if not k:
            return []
        try:
            values = np.asarray(self.evaluator(points), dtype=float)
        except Exception as exc:
            raise ObjectiveError(f"objective evaluation failed on a block of {k} points: {exc}") from exc
        if values.shape != (k,):
            raise ObjectiveError(f"objective returned shape {values.shape} for a block of {k} points")
        self.eval_count += k
        return values.tolist()

    def to_problem_units(self, q) -> np.ndarray:
        """Map one normalized point, or each row of a ``(k, N)`` block, to problem units.

        Clips ulp-level drift at the faces first, so no range check is
        needed.  The map is elementwise, so every row gets the bits it
        would get alone.
        """
        q = np.asarray(q, dtype=float)
        if q.ndim > 2 or q.shape[-1:] != self.domain.lower.shape:
            raise DomainViolationError(f"points have shape {q.shape}, domain is {self.domain.dim}-dimensional")
        # np.clip's bits but for q = -0.0, which becomes 0.0, without its wrapper
        return self.domain.lower + np.minimum(np.maximum(q, 0.0), 1.0) * self.domain.widths

    def eval_normalized(self, q) -> float:
        """Evaluate at one normalized point, mapped as a one-row block."""
        return self.evaluate(self.to_problem_units(np.asarray(q, dtype=float)[None])[0])


@dataclass
class StopRule:
    """Termination thresholds for a solver run."""

    max_fun_evals: int = 30000
    rel_error_tol: float = 1e-4
    max_iter: int = 10_000_000

    def __post_init__(self):
        for name in ("max_fun_evals", "max_iter"):
            value = getattr(self, name)
            # bool is an Integral; numpy integers are accepted
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # written so that a NaN tolerance fails too
        if self.max_fun_evals < 1 or self.max_iter < 1 or not self.rel_error_tol > 0.0:
            raise ValueError("stop rule fields must be strictly positive")
