"""The solver's evaluation trace does not depend on the BLAS kernel.

numpy sends a 1-D ``np.linalg.norm``, ``np.dot`` and ``@`` to BLAS, and
OpenBLAS picks its kernel for the host; the kernels round differently.  No
solver step may call BLAS, so a solve gives the same trace under the
host's kernel and under the oldest x86-64 one, which ``OPENBLAS_CORETYPE``
forces.  The objectives here are shifted rastrigin and ackley, which call
no BLAS themselves.

The Schoen functions do call BLAS, and numpy's SIMD loops, so their bits
depend on the host; but a block row must have the bits of the same point
alone under any kernel, which is checked for them and for every registry
function under the oldest BLAS kernel and under numpy's loops without
AVX-512.  Booth uses only ``+ - *``, so its trace digests hold under both.
"""

from __future__ import annotations

import ast
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from test_trace_digest import GOLDEN

ROOT = pathlib.Path(__file__).resolve().parents[1]

SOLVER_MODULES = ("geometry", "partitioning", "lipschitz", "selection", "local_search", "solver")

# case id -> (classical function, dimension, variant, beta); each is shifted
# with seed 3 and spends 3,000 evaluations with no early stop
CASES = {
    "rastrigin6/halo": ("rastrigin", 6, "halo", 0.03),
    "ackley8/halo": ("ackley", 8, "halo", 0.1),
}

SCRIPT = """
import sys
from halo.geometry import StopRule
from halo.solver import SolverConfig, run
from test_trace_digest import shifted_handle, trace_digest
name, n, variant, beta = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
cfg = SolverConfig(variant=variant, beta=beta, stop=StopRule(max_fun_evals=3000))
print(trace_digest(run(shifted_handle(name, n, 3)(), cfg)))
"""


SCHOEN_SCRIPT = """
import numpy as np
from halo.schoen import schoen_generate
mismatched = 0
for n in range(1, 11):
    for seed in (0, 292):
        fn = schoen_generate(seed, n).fn
        xs = np.random.default_rng([seed, n]).uniform(size=(40, n))
        mismatched += sum(fn(x).tobytes() != v.tobytes() for x, v in zip(xs, fn(xs)))
print(mismatched)
"""

REGISTRY_SCRIPT = """
import numpy as np
from halo.problems import CLASSICAL_FUNCTIONS, classical_problem
mismatched = 0
for name, spec in CLASSICAL_FUNCTIONS.items():
    for n in filter(spec.defined_at, range(1, 11)):
        problem = classical_problem(name, n)
        xs = problem.make_handle().to_problem_units(np.random.default_rng(n).uniform(size=(1000, n)))
        mismatched += sum(problem.fn(x).tobytes() != v.tobytes() for x, v in zip(xs, problem.fn(xs)))
print(mismatched)
"""

BOOTH_CASES = ("classical20#12/halo", "classical20#12/hlo", "classical20#12/direct")

DIGEST_SCRIPT = """
import sys
from test_trace_digest import solve, trace_digest
print(*(trace_digest(solve(case)) for case in sys.argv[1:]))
"""

# kernel id -> the environment that selects it in a fresh interpreter
KERNELS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-without-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def _numpy_on_openblas() -> bool:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def run_fresh(script: str, kernel: dict, *args) -> str:
    """Standard output of ``script`` in a fresh interpreter whose environment selects ``kernel``."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(kernel)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


on_x86_openblas = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _numpy_on_openblas(),
    reason="the kernels selected here exist only for numpy on OpenBLAS on x86-64")


@on_x86_openblas
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_is_the_same_under_every_blas_kernel(case):
    assert run_fresh(SCRIPT, {}, *CASES[case]) == run_fresh(SCRIPT, KERNELS["openblas-prescott"], *CASES[case])


@on_x86_openblas
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_schoen_block_rows_match_points_under_other_kernels(kernel):
    assert run_fresh(SCHOEN_SCRIPT, KERNELS[kernel]) == "0"


@on_x86_openblas
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_registry_block_rows_match_points_under_other_kernels(kernel):
    assert run_fresh(REGISTRY_SCRIPT, KERNELS[kernel]) == "0"


@on_x86_openblas
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_booth_digests_hold_under_other_kernels(kernel):
    digests = run_fresh(DIGEST_SCRIPT, KERNELS[kernel], *BOOTH_CASES).split()
    assert digests == [GOLDEN[case] for case in BOOTH_CASES]


def test_no_solver_step_calls_blas():
    # np.linalg.norm reaches BLAS only without axis=; dot and matmul always do
    calls = [f"{m}.py:{node.lineno}"
             for m in SOLVER_MODULES
             for node in ast.walk(ast.parse((ROOT / "src" / "halo" / f"{m}.py").read_text()))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Call) and (
                 ast.unparse(node.func) == "np.linalg.norm" and not any(k.arg == "axis" for k in node.keywords)
                 or ast.unparse(node.func).split(".")[-1] in ("dot", "matmul", "vdot", "inner"))]
    assert calls == []
