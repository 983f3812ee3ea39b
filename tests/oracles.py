"""Independent reference implementations used to check the library.

Everything here is deliberately written as plain loops over Python floats,
separate from the vectorized code under test.
"""

from __future__ import annotations

import math

import numpy as np

from halo.geometry import HALF_SIDES, MAX_LEVEL


def central_difference(fn, x, coord: int, h: float) -> float:
    """Plain central difference quotient of ``fn`` along one coordinate."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[coord] += h
    xm[coord] -= h
    return (float(fn(xp)) - float(fn(xm))) / (2.0 * h)


def brute_force_halo_selection(values, diags, constants):
    """Directly evaluate the three selection criteria; ties -> lowest id."""
    n = len(values)
    bounds = [values[i] - constants[i] * diags[i] for i in range(n)]
    q1 = min(range(n), key=lambda i: (bounds[i], i))
    q2 = min(range(n), key=lambda i: (values[i], i))
    d_max = max(diags)
    i_max = [i for i in range(n) if diags[i] >= d_max * (1.0 - 1e-12)]
    q3 = min(i_max, key=lambda i: (bounds[i], i))
    return q1, q2, q3


def kgrid_potentially_optimal(values, diags, epsilon_rel, n_grid=10_000):
    """Potential optimality by sweeping a grid of rate constants K.

    The grid contains every pairwise slope between (diag, value) pairs, the
    epsilon-threshold slope of each candidate, the midpoints of consecutive
    critical values, and a log-spaced fill up to ``n_grid`` points.  A
    partition is potentially optimal if at some K > 0 it minimizes
    ``f - K d`` and beats ``f_min - eps``.
    """
    f = [float(v) for v in values]
    d = [float(v) for v in diags]
    n = len(f)
    f_min = min(f)
    eps_abs = epsilon_rel * abs(f_min)
    if epsilon_rel > 0.0 and f_min == 0.0:
        eps_abs = 1e-8

    critical = set()
    for i in range(n):
        for j in range(n):
            if d[i] < d[j]:
                slope = (f[j] - f[i]) / (d[j] - d[i])
                if slope > 0.0:
                    critical.add(slope)
        slope = (f[i] - (f_min - eps_abs)) / d[i]
        if slope > 0.0:
            critical.add(slope)
    critical = sorted(critical)

    grid = set(critical)
    for a, b in zip(critical, critical[1:]):
        grid.add(0.5 * (a + b))
    if critical:
        grid.add(0.5 * critical[0])
        grid.add(2.0 * critical[-1])
    else:
        grid.add(1.0)
    if len(grid) < n_grid:
        lo, hi = min(grid), max(grid)
        if hi > lo:
            grid.update(float(k) for k in np.geomspace(lo, hi, n_grid - len(grid)))

    ks = np.array(sorted(grid))
    f_arr = np.array(f)
    d_arr = np.array(d)
    scores = f_arr[None, :] - ks[:, None] * d_arr[None, :]
    row_min = scores.min(axis=1)
    hit = (scores == row_min[:, None]) & (scores <= f_min - eps_abs)
    return set(int(i) for i in np.flatnonzero(hit.any(axis=0)))


def per_class_potentially_optimal(depths, diags, values, epsilon_rel):
    """Potentially-optimal ids by a sort into depth classes and a loop over them.

    The earlier form of ``select_potentially_optimal``, kept as the
    reference its vectorized form must match bit for bit: a stable argsort
    of the depths, a ``reduceat`` per class column, then the feasible-K
    interval of each class minimum, one class at a time with two masked
    reductions over all classes.  Non-finite values make 0/0 and inf - inf
    along the way; those warnings are silenced, as the results stand.
    """
    depths = np.asarray(depths)
    diags = np.asarray(diags, dtype=float)
    values = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_min = float(values.min())
        eps_abs = epsilon_rel * abs(f_min)
        if epsilon_rel > 0.0 and f_min == 0.0:
            eps_abs = 1e-8

        order = np.argsort(depths, kind="stable")
        sorted_depths = depths[order]
        starts = np.flatnonzero(np.diff(sorted_depths, prepend=-1))
        class_d = np.maximum.reduceat(diags[order], starts)
        class_f = np.minimum.reduceat(values[order], starts)
        row_class = np.searchsorted(sorted_depths[starts], depths)

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


def blend_local_constant(half_sides, slopes, global_constant: float) -> float:
    """Local Lipschitz constant of one box from its half sides and slope row.

    ``alpha`` is the box diagonal over the cube diagonal sqrt(N), capped at
    1; the result is ``alpha * global + (1 - alpha) * |slopes|``.
    """
    half_diagonal = math.sqrt(math.fsum(float(s) ** 2 for s in half_sides))
    slope_norm = math.sqrt(math.fsum(float(s) ** 2 for s in slopes))
    alpha = min(2.0 * half_diagonal / math.sqrt(len(half_sides)), 1.0)
    return alpha * global_constant + (1.0 - alpha) * slope_norm


class ReferenceLedger:
    """Plain row lists copied from a ledger, divided one partition at a time."""

    def __init__(self, ledger):
        self.centers = [np.array(row) for row in ledger.centers]
        self.levels = [[int(v) for v in row] for row in ledger.levels]
        self.values = [float(v) for v in ledger.values]
        self.slopes = [[float(v) for v in row] for row in ledger.slopes]

    def columns(self):
        """Every column as the ledger holds it, the cached ones recomputed whole."""
        levels = np.array(self.levels, dtype=np.int16)
        slopes = np.array(self.slopes)
        return [np.array(self.centers), levels, np.array(self.values), slopes,
                levels.sum(axis=1), np.linalg.norm(HALF_SIDES[levels], axis=1),
                np.linalg.norm(slopes, axis=1)]


def divide_one_at_a_time(ref: ReferenceLedger, pid: int, obj, on_eval=None) -> None:
    """Sample and divide one partition, one point and one cut at a time.

    The points are ``center +/- delta`` along each longest side, ascending,
    plus before minus, each evaluated on its own with ``on_eval`` after it.
    The pairs are then cut in ascending order of their lower value, ties to
    the lower side.  Each cut raises the parent's level on that side and
    appends its two children with the levels the parent then has, a copy of
    the parent's old slope row with the cut side replaced by the forward
    difference; the parent's cut sides get the central difference.
    """
    levels = ref.levels[pid]
    low = min(levels)
    coords = [j for j, level in enumerate(levels) if level == low]
    delta = 2.0 * float(HALF_SIDES[low]) / 3.0
    points, values = [], []
    for c in coords:
        for sign in (1.0, -1.0):
            q = np.array(ref.centers[pid])
            q[c] = q[c] + sign * delta
            f = obj.eval_normalized(q)
            if on_eval is not None:
                on_eval(q, f)
            points.append(q)
            values.append(f)
    order = sorted(range(len(coords)), key=lambda j: (min(values[2 * j], values[2 * j + 1]), coords[j]))
    parent_value = ref.values[pid]
    old_slopes = ref.slopes[pid]
    new_levels = list(levels)
    new_slopes = list(old_slopes)
    for j in order:
        c = coords[j]
        new_levels[c] = min(new_levels[c] + 1, MAX_LEVEL)
        new_slopes[c] = abs(values[2 * j] - values[2 * j + 1]) / (2.0 * delta)
        for r in (2 * j, 2 * j + 1):
            child_slopes = list(old_slopes)
            child_slopes[c] = abs(values[r] - parent_value) / delta
            ref.centers.append(points[r])
            ref.levels.append(list(new_levels))
            ref.values.append(values[r])
            ref.slopes.append(child_slopes)
    ref.levels[pid] = new_levels
    ref.slopes[pid] = new_slopes
