"""The names the benchmark harness in ``perfbench/`` resolves in ``halo``.

The harness replays objectives, counts divisions and swaps the solver's
entry points by these names; renaming or rebinding one breaks the
benchmark, whose own tests are not part of this suite.
"""

import numpy as np

import halo
from halo.geometry import StopRule
from halo.solver import SolverConfig

from conftest import unit_handle


def test_the_names_the_benchmark_uses_resolve():
    assert callable(halo.geometry.denormalize_point)
    assert callable(halo.partitioning.divide_partition)
    assert halo.solver.select_halo is halo.selection.select_halo
    assert halo.metrics.run is halo.solver.run
    assert callable(halo.manifest.schoen_manifest)
    assert callable(halo.solver.relative_error)
    cfg = SolverConfig(stop=StopRule(max_fun_evals=20))
    trace = halo.run(unit_handle(lambda x: float(np.sum(x**2)), 2), cfg)
    for i, e in enumerate(trace.evals, start=1):
        assert e.index == i
        assert e.point.shape == (2,)
        assert isinstance(e.value, float) and isinstance(e.best, float)
