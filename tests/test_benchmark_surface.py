"""The names the benchmark harness in ``perfbench/`` resolves in ``halo``.

The harness replays objectives, counts divisions and swaps the solver's
entry points by these names; renaming or rebinding one breaks the
benchmark, whose own tests are not part of this suite.
"""

import dataclasses

import numpy as np

import halo
from halo.geometry import ObjectiveHandle, StopRule
from halo.solver import SolverConfig

from conftest import unit_handle


def test_the_names_the_benchmark_uses_resolve():
    assert callable(halo.geometry.denormalize_point)
    assert halo.solver.divide_partition is halo.partitioning.divide_partition
    assert halo.solver.select_halo is halo.selection.select_halo
    assert halo.metrics.run is halo.solver.run
    assert callable(halo.manifest.schoen_manifest)
    assert callable(halo.solver.relative_error)
    for name in ("run", "SolverConfig", "StopRule", "classical_problem", "shift_minimizer",
                 "load_manifest", "problem_from_record", "write_manifest", "run_benchmark",
                 "RunRecord", "auoc", "step_curve"):
        assert hasattr(halo, name), name
    # the harness builds RunRecord positionally and patches the handle's own __init__
    fields = [f.name for f in dataclasses.fields(halo.RunRecord)]
    assert fields[:7] == ["problem", "n", "variant", "solved", "fevals", "best_value", "rel_error"]
    assert "__init__" in vars(ObjectiveHandle)
    assert {"evaluator", "domain", "known_optimum"} <= {f.name for f in dataclasses.fields(ObjectiveHandle)}
    problem = halo.problems.TestProblem  # imported by name, pytest would try to collect it
    assert "shift_seed" in {f.name for f in dataclasses.fields(problem)}
    assert callable(problem.make_handle)
    cfg = SolverConfig(stop=StopRule(max_fun_evals=20))
    trace = halo.run(unit_handle(lambda x: float(np.sum(x**2)), 2), cfg)
    # the harness counts children as the length of what a division returns
    handle = unit_handle(lambda x: float(np.sum(x**2)), 2)
    ledger = halo.partitioning.init_root(handle)
    assert halo.partitioning.divide_partition(ledger, [0], handle) == [1, 2, 3, 4]
    assert len(ledger) == 5
    for name in ("n_evals", "iterations", "ledger", "n_local_evals", "best_value"):
        assert hasattr(trace, name), name
    for i, e in enumerate(trace.evals, start=1):
        assert e.index == i
        assert e.point.shape == (2,)
        assert isinstance(e.value, float) and isinstance(e.best, float)
