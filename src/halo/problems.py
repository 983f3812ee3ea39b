"""Classical benchmark objectives with verified optima, plus shift machinery.

Every function is vectorized over the last axis, so a single point of
shape (n,) and a batch of shape (m, n) both work, and every row of a batch
has the bits of the single-point call: each problem's handle evaluates a
division block with one call.  A power of a value indexed as ``x[..., j]``
is written as a product (``u * u``, ``b * b * b``).  On one point that
value is a numpy float64 scalar, and ``**`` on it calls the C library's
``pow``, which can differ in the last bit from the ``np.square`` a batch
gets, and from one C library to another.  Stored minimizers were refined
numerically; optima that are not analytically exact are defined as
the function value at the frozen minimizer and re-verified by the suite
oracle (dense random probe plus coordinate-descent refinement) in the test
suite before being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .geometry import BoxDomain, ObjectiveHandle

# Fraction of each side kept clear when drawing a shifted minimizer, so the
# new minimizer is strictly interior.
SHIFT_MARGIN = 0.05


@dataclass(frozen=True)
class TestProblem:
    """One benchmark objective with its domain and known optimum."""

    name: str
    n: int
    fn: Callable[[np.ndarray], np.ndarray]
    domain: BoxDomain
    known_optimum: float
    known_minimizer: np.ndarray
    family: str = "classical"
    function: Optional[str] = None
    seed: Optional[int] = None
    stationary_points: Optional[int] = None
    shift_seed: Optional[int] = None

    def make_handle(self) -> ObjectiveHandle:
        """Fresh evaluation handle, whose ``eval_count`` starts at 0."""
        return ObjectiveHandle(evaluator=self.fn, domain=self.domain, known_optimum=self.known_optimum, vectorized=True)


# ---------------------------------------------------------------------------
# function definitions


def sphere(x):
    x = np.asarray(x, dtype=float)
    return np.sum(x * x, axis=-1)


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (a - 1.0) ** 2, axis=-1)


def rastrigin(x):
    x = np.asarray(x, dtype=float)
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def ackley(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    root = np.sqrt(np.sum(x * x, axis=-1) / n)
    cosine = np.sum(np.cos(2.0 * np.pi * x), axis=-1) / n
    return -20.0 * np.exp(-0.2 * root) - np.exp(cosine) + 20.0 + np.e


def griewank(x):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    return np.sum(x * x, axis=-1) / 4000.0 - np.prod(np.cos(x / np.sqrt(i)), axis=-1) + 1.0


def styblinski_tang(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * np.sum(x**4 - 16.0 * x * x + 5.0 * x, axis=-1)


def dixon_price(x):
    x = np.asarray(x, dtype=float)
    i = np.arange(2, x.shape[-1] + 1, dtype=float)
    u = x[..., 0] - 1.0
    return u * u + np.sum(i * (2.0 * x[..., 1:] ** 2 - x[..., :-1]) ** 2, axis=-1)


MICHALEWICZ_STEEPNESS = 10


def michalewicz(x):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    return -np.sum(np.sin(x) * np.sin(i * x * x / np.pi) ** (2 * MICHALEWICZ_STEEPNESS), axis=-1)


def beale(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    u = 1.5 - a + a * b
    v = 2.25 - a + a * (b * b)
    w = 2.625 - a + a * (b * b * b)
    return u * u + v * v + w * w


def branin(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    c1 = 5.1 / (4.0 * np.pi**2)
    c2 = 5.0 / np.pi
    s = 10.0
    t = 1.0 / (8.0 * np.pi)
    u = b - c1 * a * a + c2 * a - 6.0
    return u * u + s * (1.0 - t) * np.cos(a) + s


def eggholder(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    return -(b + 47.0) * np.sin(np.sqrt(np.abs(a / 2.0 + b + 47.0))) - a * np.sin(
        np.sqrt(np.abs(a - (b + 47.0)))
    )


def adjiman(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    return np.cos(a) * np.sin(b) - a / (b * b + 1.0)


def booth(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    u = a + 2.0 * b - 7.0
    v = 2.0 * a + b - 5.0
    return u * u + v * v


def matyas(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    return 0.26 * (a * a + b * b) - 0.48 * a * b


def six_hump_camel(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    return (4.0 - 2.1 * a * a + a * a * a * a / 3.0) * a * a + a * b + (-4.0 + 4.0 * b * b) * b * b


def goldstein_price(x):
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    u = a + b + 1.0
    v = 2.0 * a - 3.0 * b
    part1 = 1.0 + u * u * (
        19.0 - 14.0 * a + 3.0 * a * a - 14.0 * b + 6.0 * a * b + 3.0 * b * b
    )
    part2 = 30.0 + v * v * (
        18.0 - 32.0 * a + 12.0 * a * a + 48.0 * b - 36.0 * a * b + 27.0 * b * b
    )
    return part1 * part2


_HARTMANN_WEIGHTS = np.array([1.0, 1.2, 3.0, 3.2])

_HARTMANN3_A = np.array(
    [[3.0, 10.0, 30.0], [0.1, 10.0, 35.0], [3.0, 10.0, 30.0], [0.1, 10.0, 35.0]]
)
_HARTMANN3_P = 1e-4 * np.array(
    [[3689.0, 1170.0, 2673.0], [4699.0, 4387.0, 7470.0], [1091.0, 8732.0, 5547.0], [381.0, 5743.0, 8828.0]]
)

_HARTMANN6_A = np.array(
    [
        [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
        [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
        [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
        [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
    ]
)
_HARTMANN6_P = 1e-4 * np.array(
    [
        [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
        [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
        [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
        [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
    ]
)


def _hartmann(x, a_mat, p_mat):
    x = np.asarray(x, dtype=float)
    d = np.sum(a_mat * (x[..., None, :] - p_mat) ** 2, axis=-1)
    return -np.sum(_HARTMANN_WEIGHTS * np.exp(-d), axis=-1)


def hartmann3(x):
    return _hartmann(x, _HARTMANN3_A, _HARTMANN3_P)


def hartmann6(x):
    return _hartmann(x, _HARTMANN6_A, _HARTMANN6_P)


# Refined minimizers for functions whose optimum has no closed form.
# Per-coordinate minimizers of the michalewicz terms, index i = 1..10.
_MICHALEWICZ_ARGMIN = np.array(
    [
        2.202905520043039,
        np.pi / 2.0,
        1.2849915703335424,
        1.9230584697231166,
        1.7204697724019629,
        np.pi / 2.0,
        1.4544139711523414,
        1.7560865207702743,
        1.655717416632521,
        np.pi / 2.0,
    ]
)
_STYBLINSKI_ARGMIN = -2.903534027771177
_BRANIN_ARGMIN = np.array([np.pi, 2.275])
_EGGHOLDER_ARGMIN = np.array([512.0, 404.2318049938646])
_ADJIMAN_ARGMIN = np.array([2.0, 0.10578347406572215])
_CAMEL_ARGMIN = np.array([0.08984200893527233, -0.712656403019058])
_HARTMANN3_ARGMIN = np.array([0.11458888122541287, 0.5556488954739371, 0.8525469842172746])
_HARTMANN6_ARGMIN = np.array(
    [
        0.20168950909365746,
        0.15001069354111374,
        0.4768739729250998,
        0.2753324275220782,
        0.3116516172395686,
        0.6573005345536702,
    ]
)


def _dixon_price_argmin(n: int) -> np.ndarray:
    return np.array([2.0 ** (-(2.0**i - 2.0) / 2.0**i) for i in range(1, n + 1)])


@dataclass(frozen=True)
class FunctionSpec:
    """Registry entry: how to instantiate one classical function at a dimension."""

    fn: Callable
    dims: Optional[tuple[int, ...]]  # None = any dimension >= min_dim
    lower: Callable[[int], np.ndarray]
    upper: Callable[[int], np.ndarray]
    minimizer: Callable[[int], np.ndarray]
    optimum: Optional[Callable[[int], float]] = None  # None = evaluate at minimizer
    center_optimum: bool = False
    min_dim: int = 1

    def defined_at(self, n: int) -> bool:
        return n >= self.min_dim and (self.dims is None or n in self.dims)


def _box(lo: float, hi: float):
    return (lambda n: np.full(n, lo)), (lambda n: np.full(n, hi))


def _registry() -> dict[str, FunctionSpec]:
    reg: dict[str, FunctionSpec] = {}
    lo, hi = _box(-5.12, 5.12)
    reg["sphere"] = FunctionSpec(sphere, None, lo, hi, lambda n: np.zeros(n), lambda n: 0.0, True)
    lo, hi = _box(-5.0, 10.0)
    # at n = 1 the sum has no terms and the function is 0 everywhere
    reg["rosenbrock"] = FunctionSpec(rosenbrock, None, lo, hi, lambda n: np.ones(n), lambda n: 0.0, min_dim=2)
    lo, hi = _box(-5.12, 5.12)
    reg["rastrigin"] = FunctionSpec(rastrigin, None, lo, hi, lambda n: np.zeros(n), lambda n: 0.0, True)
    lo, hi = _box(-32.768, 32.768)
    reg["ackley"] = FunctionSpec(ackley, None, lo, hi, lambda n: np.zeros(n), lambda n: 0.0, True)
    lo, hi = _box(-600.0, 600.0)
    reg["griewank"] = FunctionSpec(griewank, None, lo, hi, lambda n: np.zeros(n), lambda n: 0.0, True)
    lo, hi = _box(-5.0, 5.0)
    reg["styblinski_tang"] = FunctionSpec(
        styblinski_tang, None, lo, hi, lambda n: np.full(n, _STYBLINSKI_ARGMIN)
    )
    lo, hi = _box(-10.0, 10.0)
    reg["dixon_price"] = FunctionSpec(dixon_price, None, lo, hi, _dixon_price_argmin, lambda n: 0.0)
    lo, hi = _box(0.0, np.pi)
    reg["michalewicz"] = FunctionSpec(
        michalewicz,
        tuple(range(2, 11)),
        lo,
        hi,
        lambda n: _MICHALEWICZ_ARGMIN[:n].copy(),
    )
    lo, hi = _box(-4.5, 4.5)
    reg["beale"] = FunctionSpec(beale, (2,), lo, hi, lambda n: np.array([3.0, 0.5]), lambda n: 0.0)
    reg["branin"] = FunctionSpec(
        branin,
        (2,),
        lambda n: np.array([-5.0, 0.0]),
        lambda n: np.array([10.0, 15.0]),
        lambda n: _BRANIN_ARGMIN.copy(),
    )
    lo, hi = _box(-512.0, 512.0)
    reg["eggholder"] = FunctionSpec(eggholder, (2,), lo, hi, lambda n: _EGGHOLDER_ARGMIN.copy())
    reg["adjiman"] = FunctionSpec(
        adjiman,
        (2,),
        lambda n: np.array([-1.0, -1.0]),
        lambda n: np.array([2.0, 1.0]),
        lambda n: _ADJIMAN_ARGMIN.copy(),
    )
    lo, hi = _box(-10.0, 10.0)
    reg["booth"] = FunctionSpec(booth, (2,), lo, hi, lambda n: np.array([1.0, 3.0]), lambda n: 0.0)
    reg["matyas"] = FunctionSpec(matyas, (2,), lo, hi, lambda n: np.zeros(2), lambda n: 0.0, True)
    reg["six_hump_camel"] = FunctionSpec(
        six_hump_camel,
        (2,),
        lambda n: np.array([-3.0, -2.0]),
        lambda n: np.array([3.0, 2.0]),
        lambda n: _CAMEL_ARGMIN.copy(),
    )
    lo, hi = _box(-2.0, 2.0)
    reg["goldstein_price"] = FunctionSpec(goldstein_price, (2,), lo, hi, lambda n: np.array([0.0, -1.0]), lambda n: 3.0)
    lo, hi = _box(0.0, 1.0)
    reg["hartmann3"] = FunctionSpec(hartmann3, (3,), lo, hi, lambda n: _HARTMANN3_ARGMIN.copy())
    reg["hartmann6"] = FunctionSpec(hartmann6, (6,), lo, hi, lambda n: _HARTMANN6_ARGMIN.copy())
    return reg


CLASSICAL_FUNCTIONS = _registry()


def classical_problem(name: str, n: int) -> TestProblem:
    """Instantiate one registered function at dimension ``n``."""
    if name not in CLASSICAL_FUNCTIONS:
        raise KeyError(f"unknown test function {name!r}")
    spec = CLASSICAL_FUNCTIONS[name]
    if not spec.defined_at(n):
        raise ValueError(f"{name} is not defined at dimension {n}")
    minimizer = np.asarray(spec.minimizer(n), dtype=float)
    optimum = float(spec.fn(minimizer)) if spec.optimum is None else float(spec.optimum(n))
    return TestProblem(
        name=name,
        n=n,
        fn=spec.fn,
        domain=BoxDomain(spec.lower(n), spec.upper(n)),
        known_optimum=optimum,
        known_minimizer=minimizer,
        function=name,
    )


def classical_suite(n: int) -> list[TestProblem]:
    """All registered functions available at dimension ``n``, unshifted."""
    problems = []
    for name, spec in CLASSICAL_FUNCTIONS.items():
        if spec.defined_at(n):
            problems.append(classical_problem(name, n))
    return problems


def apply_shift(problem: TestProblem, delta: np.ndarray) -> TestProblem:
    """Translate the landscape: the new objective is x -> f(x - delta)."""
    delta = np.asarray(delta, dtype=float)
    base = problem.fn

    def shifted(x):
        return base(np.asarray(x, dtype=float) - delta)

    return replace(
        problem,
        fn=shifted,
        known_minimizer=problem.known_minimizer + delta,
    )


def shift_minimizer(problem: TestProblem, seed: int) -> TestProblem:
    """Move the known minimizer to a seeded point strictly inside the domain.

    The optimum value is unchanged.  Meaningful for objectives whose global
    minimum is unique over all of R^n (the center-optimum functions); the
    caller is responsible for not shifting functions where translation
    could expose a lower region inside the box.
    """
    rng = np.random.default_rng(seed)
    d = problem.domain
    margin = SHIFT_MARGIN * d.widths
    target = rng.uniform(d.lower + margin, d.upper - margin)
    shifted = apply_shift(problem, target - problem.known_minimizer)
    return replace(shifted, shift_seed=seed)
