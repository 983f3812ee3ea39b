"""Independent reference implementations used to check the library.

Everything here is deliberately written as plain loops over Python floats,
separate from the vectorized code under test.
"""

from __future__ import annotations

import math

import numpy as np


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


def blend_local_constant(half_sides, slopes, global_constant: float) -> float:
    """Local Lipschitz constant of one box from its half sides and slope row.

    ``alpha`` is the box diagonal over the cube diagonal sqrt(N), capped at
    1; the result is ``alpha * global + (1 - alpha) * |slopes|``.
    """
    half_diagonal = math.sqrt(math.fsum(float(s) ** 2 for s in half_sides))
    slope_norm = math.sqrt(math.fsum(float(s) ** 2 for s in slopes))
    alpha = min(2.0 * half_diagonal / math.sqrt(len(half_sides)), 1.0)
    return alpha * global_constant + (1.0 - alpha) * slope_norm
