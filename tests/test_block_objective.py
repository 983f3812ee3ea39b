"""A vectorized handle evaluates each division block with one objective call.

Its traces and ledgers must be byte-identical to the point-by-point path,
and a block that fails must stop the run at the previous block.
"""

from __future__ import annotations

import pathlib
import struct

import numpy as np
import pytest

from halo.geometry import ObjectiveError, StopRule
from halo.manifest import load_manifest, problem_from_record
from halo.solver import STATUS_SOLVED, VARIANTS, SolverConfig, run

from conftest import ledger_bytes, unit_handle

ROOT = pathlib.Path(__file__).resolve().parents[1]
MANIFEST_PROBLEMS = [
    problem_from_record(record)
    for name in ("classical20.jsonl", "schoen30.jsonl")
    for record in load_manifest(ROOT / "benchmarks" / name)
]
BUDGET = 300


def trace_bytes(trace):
    """Every field of a trace but the ledger, as bytes."""
    evals = b"".join(
        struct.pack("<qdd", e.index, e.value, e.best) + e.point.tobytes() for e in trace.evals
    )
    iterations = [(it.index, it.selected, it.partition_count, struct.pack("<d", it.global_constant))
                  for it in trace.iterations]
    head = (trace.status, struct.pack("<d", trace.best_value), trace.n_evals,
            trace.n_local_searches, trace.n_local_evals)
    best_point = None if trace.best_point is None else trace.best_point.tobytes()
    return evals, iterations, head, best_point


def solve(problem, variant, early_stop, vectorized):
    handle = problem.make_handle()
    handle.vectorized = vectorized
    if not early_stop:
        handle.known_optimum = None
    cfg = SolverConfig(variant=variant, beta=1e-2, stop=StopRule(max_fun_evals=BUDGET))
    return handle, run(handle, cfg)


def test_block_path_matches_point_path_on_both_manifests():
    ended_mid_block = 0
    for problem in MANIFEST_PROBLEMS:
        for variant in VARIANTS:
            for early_stop in (True, False):
                block_handle, block = solve(problem, variant, early_stop, True)
                point_handle, point = solve(problem, variant, early_stop, False)
                case = (problem.name, variant, early_stop)
                assert trace_bytes(block) == trace_bytes(point), case
                assert ledger_bytes(block.ledger) == ledger_bytes(point.ledger), case
                # the point path evaluates exactly what the trace records
                assert point_handle.eval_count == point.n_evals
                assert point.n_evals <= block_handle.eval_count <= BUDGET
                ended_mid_block += block_handle.eval_count > block.n_evals
    # solves that stop inside a block, where the handle has evaluated past the trace
    assert ended_mid_block > 0


def rastrigin_like(x):
    x = np.asarray(x, dtype=float)
    return 10 * x.shape[-1] + np.sum((3 * x - 1) ** 2 - 10 * np.cos(2 * np.pi * (3 * x - 1)), axis=-1)


def block_handle(fn, n=2, known_optimum=None):
    handle = unit_handle(fn, n, known_optimum)
    handle.vectorized = True
    return handle


def direct_run(handle, budget):
    return run(handle, SolverConfig(variant="direct", stop=StopRule(max_fun_evals=budget)))


# Under direct, iteration 2 of rastrigin_like in 2-D divides the block
# (0, 1, 2, 4, 6) with 4, 2, 4, 4 and 4 evaluations: evaluations 8-25.


def test_solve_mid_block_records_the_exact_index():
    reference = direct_run(unit_handle(rastrigin_like, 2), 100)
    assert reference.iterations[2].selected == (0, 1, 2, 4, 6)
    target = reference.evals[14].point  # the second point of id 2

    def fn(x):
        values = rastrigin_like(x)
        return np.where((np.asarray(x) == target).all(axis=-1), -1.0, values)

    h = block_handle(fn, known_optimum=-1.0)
    trace = direct_run(h, 100)
    assert trace.status == STATUS_SOLVED
    assert trace.n_evals == 15 and [e.index for e in trace.evals] == list(range(1, 16))
    # the whole block was evaluated; the trace stops at the solving point
    assert h.eval_count == 25 <= 100
    # ids 0 and 1 are divided, id 2, stopped after two of its points, is not
    assert ledger_bytes(trace.ledger) == ledger_bytes(direct_run(unit_handle(rastrigin_like, 2), 13).ledger)


def failing_on_block(call, result):
    """``rastrigin_like`` whose ``call``-th block returns ``result(block)``; records block sizes."""
    sizes = []

    def fn(x):
        x = np.asarray(x)
        if x.ndim == 1:
            return rastrigin_like(x)
        sizes.append(len(x))
        return result(x) if len(sizes) == call else rastrigin_like(x)

    return fn, sizes


def raise_error(x):
    raise RuntimeError("sensor died")


@pytest.mark.parametrize("result", [
    raise_error,
    lambda x: float(rastrigin_like(x[0])),  # a scalar
    lambda x: rastrigin_like(x)[:, None],  # shape (k, 1)
    lambda x: rastrigin_like(x)[:-1],  # one value short
], ids=["raises", "scalar", "column", "short"])
def test_failing_block_stops_at_the_previous_block(result):
    fn, sizes = failing_on_block(3, result)
    h = block_handle(fn)
    with pytest.raises(ObjectiveError, match="block of") as info:
        direct_run(h, 100)
    # after the root's one point, blocks of 4 and 2 points; the block of 18 fails
    assert sizes == [4, 2, 18]
    assert "block of 18 points" in str(info.value)
    partial = info.value.partial_trace
    assert partial.status == "aborted"
    assert partial.n_evals == h.eval_count == 7
    reference = direct_run(unit_handle(rastrigin_like, 2), partial.n_evals)
    assert trace_bytes(partial)[0] == trace_bytes(reference)[0]
    assert ledger_bytes(partial.ledger) == ledger_bytes(reference.ledger)
