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

``_evaluate_block`` evaluates a ``(k, n)`` block, and a single point as a
block of one, so every row has the bits it has alone.  Each step is
elementwise or reduces one row at a time over the same contiguous axis a
single point reduces, except the numerator: numpy sends a 1-D ``np.dot`` to
BLAS's ``ddot``, whose summation order depends on the kernel OpenBLAS picks
for the host, while a 2-D ``np.dot`` goes to ``gemv``, which sums in another
order (it moves the last bit of about half the rows).  So the kernel makes
one ``ddot`` per row.
"""

from __future__ import annotations

import numpy as np

from .geometry import BoxDomain
from .problems import TestProblem

MIN_STATIONARY_POINTS = 2  # the interpolation form needs at least two anchors
MAX_STATIONARY_POINTS = 100
ANCHOR_VALUE_RANGE = (0.0, 100.0)


def _evaluate_block(xs: np.ndarray, anchors: np.ndarray, values: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Value of the interpolant at each row of the ``(k, n)`` block ``xs``.

    A row at an anchor takes the smallest value of the anchors it hits.
    """
    d = anchors - xs[:, None, :]
    d *= d
    # np.linalg.norm(axis=-1) without its wrapper: each row is reduced over its
    # own contiguous axis, as a single point's rows are
    dists = np.sqrt(np.add.reduce(d, axis=2))
    hit = dists == 0.0
    any_hit = hit.any()
    if any_hit:
        dists[hit] = 1.0  # the logarithm never sees a zero; these rows are set below
    # log-space weights: products of up to 100 small powers underflow otherwise
    g = exponents * np.log(dists)
    w = np.exp(g.min(axis=1, keepdims=True) - g)
    out = np.fromiter(map(values.dot, w), float, len(w)) / w.sum(axis=1)
    if any_hit:
        rows = hit.any(axis=1)
        out[rows] = np.where(hit[rows], values, np.inf).min(axis=1)
    return out


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
            return _evaluate_block(x[None], anchors, values, exponents)[0]
        return _evaluate_block(x, anchors, values, exponents)

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
