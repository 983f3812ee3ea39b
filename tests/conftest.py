from __future__ import annotations

import numpy as np
import pytest

from halo.geometry import BoxDomain, ObjectiveHandle, PartitionLedger

def make_handle(fn, lower, upper, known_optimum=None):
    return ObjectiveHandle(
        evaluator=fn,
        domain=BoxDomain(np.asarray(lower, float), np.asarray(upper, float)),
        known_optimum=known_optimum,
    )


def unit_handle(fn, n, known_optimum=None):
    return make_handle(fn, np.zeros(n), np.ones(n), known_optimum=known_optimum)


def random_levels(rng, n, max_level=3):
    """A reachable level row: some k, with a random subset of sides at k + 1."""
    return int(rng.integers(0, max_level + 1)) + rng.integers(0, 2, size=n)


def random_ledger(rng, n, count):
    """Ledger with reachable trisection sizes and random values/slopes.

    Centers are arbitrary: selection rules only read sizes, values and
    slopes, so the rows need not tile the cube.
    """
    ledger = PartitionLedger(n)
    for _ in range(count):
        ledger.append(
            rng.uniform(0.0, 1.0, n),
            random_levels(rng, n),
            rng.uniform(-5.0, 5.0),
            rng.uniform(0.0, 3.0, n),
        )
    return ledger


def random_objective(seed: int, n: int):
    """A smooth multimodal function with seeded coefficients."""
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.0, 1.0, n)
    weights = rng.uniform(0.1, 10.0, n)
    freqs = rng.uniform(1.0, 20.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    return lambda x: float(np.sum(weights * (x - center) ** 2 + np.cos(freqs * x + phases)))


def tiles_cube(ledger) -> bool:
    """Whether the box volumes add up to exactly 1, in integers.

    A box of depth d has volume 3**-d, so the sum is taken in units of the
    deepest box's volume.
    """
    depths = [int(d) for d in ledger.depths]
    deepest = max(depths)
    return sum(3 ** (deepest - d) for d in depths) == 3**deepest


def ledger_bytes(ledger):
    """The bytes of every ledger column, cached ones included."""
    return [column.tobytes() for column in (
        ledger.centers, ledger.levels, ledger.values, ledger.slopes,
        ledger.depths, ledger.half_diagonals(), ledger.slope_norms(),
    )]


def class_diagonals(ledger):
    """Half diagonal per row, the same for every row of one depth.

    Rows of equal depth have the same sides in different orders, so their
    norms can differ in the last bit.  Fed those raw values, a K-grid
    oracle sees two box sizes 1e-16 apart and a rate constant near 1e16
    between them, at which rounding ties every score.  Each row gets the
    largest diagonal of its depth, the value selection uses for the class.
    """
    diags = ledger.half_diagonals()
    depths = ledger.depths
    return [float(diags[depths == d].max()) for d in depths]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
