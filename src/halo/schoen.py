"""Seeded generator of multimodal rational-interpolation test functions.

Each instance interpolates random anchor values f_j at random anchor
points z_j in the unit cube:

    f(x) = sum_j f_j * prod_{m != j} ||x - z_m||^a_m
           ---------------------------------------
           sum_j       prod_{m != j} ||x - z_m||^a_m

The weights are nonnegative and sum to one, so the range of f is exactly
[min f_j, max f_j] and the global minimum value min f_j is attained at the
corresponding anchor.  Exponents a_m in [2, 3] make every anchor a smooth
stationary point.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoxDomain
from .problems import TestProblem

MIN_STATIONARY_POINTS = 2  # the interpolation form needs at least two anchors
MAX_STATIONARY_POINTS = 100
ANCHOR_VALUE_RANGE = (0.0, 100.0)


def _evaluate(x: np.ndarray, anchors: np.ndarray, values: np.ndarray, exponents: np.ndarray) -> float:
    dists = np.linalg.norm(anchors - x, axis=1)
    if np.any(dists == 0.0):
        return float(values[dists == 0.0].min())
    # log-space weights: products of up to 100 small powers underflow otherwise
    g = exponents * np.log(dists)
    w = np.exp(g.min() - g)
    return float(np.dot(values, w) / w.sum())


def schoen_generate(seed: int, n: int) -> TestProblem:
    """Build one seeded test function on [0, 1]^n.

    Draw order is fixed (anchor count, anchors, values, exponents) so a
    seed always reproduces the same function.  Manifests store the drawn
    anchor count for integrity checks.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    s = int(rng.integers(MIN_STATIONARY_POINTS, MAX_STATIONARY_POINTS + 1))
    anchors = rng.uniform(size=(s, n))
    values = rng.uniform(*ANCHOR_VALUE_RANGE, size=s)
    exponents = rng.uniform(2.0, 3.0, size=s)

    best = int(np.argmin(values))

    def fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.float64(_evaluate(x, anchors, values, exponents))
        # row by row, so a block has the single-point bits and the problem is vectorized
        return np.array([_evaluate(row, anchors, values, exponents) for row in x])

    return TestProblem(
        name=f"schoen-n{n}-seed{seed}",
        n=n,
        fn=fn,
        domain=BoxDomain(np.zeros(n), np.ones(n)),
        known_optimum=float(values[best]),
        known_minimizer=anchors[best].copy(),
        family="schoen",
        seed=seed,
        stationary_points=s,
    )
