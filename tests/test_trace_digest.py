"""Golden digests of whole evaluation traces at small budgets.

Each case runs one solve and hashes every evaluation the way
``perfbench/run.py`` does: index, value and incumbent packed as ``<qdd``,
then the normalized point as little-endian float64.  A change anywhere in
selection, sampling, division, slope bookkeeping or local search that moves
a single evaluation, even in its last bit, changes a digest.  The digests
were recorded once, on an x86-64 host with AVX-512, and are frozen here.

The solver calls no BLAS (``test_blas_kernel.py``), but an objective may.
The schoen cases call ``np.dot``, which OpenBLAS computes, and ``np.exp``;
``classical20#3`` (a shifted ackley) calls ``np.exp``, whose SIMD kernel
numpy picks for the host.  Those digests can differ on a host whose kernels
round differently.  ``classical20#12`` (booth) uses only ``+ - *``, and
its digests hold under both kernel settings of ``test_blas_kernel.py``.
The rastrigin cases use only ``np.cos`` and held under every OpenBLAS
kernel and numpy SIMD setting tried.
"""

from __future__ import annotations

import hashlib
import pathlib
import struct

import numpy as np
import pytest

from halo.geometry import HALF_SIDES, BoxDomain, ObjectiveHandle, StopRule
from halo.manifest import load_manifest, problem_from_record
from halo.problems import classical_problem, rastrigin, shift_minimizer
from halo.solver import SolverConfig, run

ROOT = pathlib.Path(__file__).resolve().parents[1]


def manifest_handle(name: str, index: int):
    def build():
        handle = problem_from_record(load_manifest(ROOT / "benchmarks" / name)[index]).make_handle()
        handle.known_optimum = None  # no early stop: every case spends its whole budget
        return handle

    return build


def deep_rastrigin_handle():
    # the criterion-5 setup: at beta 0 no local search starts, and the box
    # around the centered optimum is trisected past level 300
    return ObjectiveHandle(lambda x: float(rastrigin(x)), BoxDomain([-5.12] * 2, [5.12] * 2))


def shifted_handle(name: str, n: int, seed: int):
    def build():
        handle = shift_minimizer(classical_problem(name, n), seed=seed).make_handle()
        handle.known_optimum = None
        return handle

    return build


# case id -> (handle builder, variant, budget, beta); beta 0 turns local search off
CASES = {
    "schoen30#0/halo": (manifest_handle("schoen30.jsonl", 0), "halo", 1500, 1e-2),
    "schoen30#0/hlo": (manifest_handle("schoen30.jsonl", 0), "hlo", 1500, 1e-2),
    "schoen30#0/direct": (manifest_handle("schoen30.jsonl", 0), "direct", 1500, 1e-4),
    "schoen30#21/halo": (manifest_handle("schoen30.jsonl", 21), "halo", 1500, 1e-4),
    "schoen30#21/hlo": (manifest_handle("schoen30.jsonl", 21), "hlo", 1500, 1e-4),
    "schoen30#21/direct": (manifest_handle("schoen30.jsonl", 21), "direct", 1500, 1e-4),
    "classical20#3/halo": (manifest_handle("classical20.jsonl", 3), "halo", 1500, 1e-4),
    "classical20#3/hlo": (manifest_handle("classical20.jsonl", 3), "hlo", 1500, 1e-4),
    "classical20#3/direct": (manifest_handle("classical20.jsonl", 3), "direct", 1500, 1e-4),
    "classical20#12/halo": (manifest_handle("classical20.jsonl", 12), "halo", 1500, 1e-2),
    "classical20#12/hlo": (manifest_handle("classical20.jsonl", 12), "hlo", 1500, 1e-2),
    "classical20#12/direct": (manifest_handle("classical20.jsonl", 12), "direct", 1500, 1e-4),
    "rastrigin2-deep/halo": (deep_rastrigin_handle, "halo", 3000, 0.0),
    "rastrigin2-deep/hlo": (deep_rastrigin_handle, "hlo", 3000, 0.0),
    # n >= 8: numpy's row reductions switch to pairwise summation here
    "rastrigin8/halo": (shifted_handle("rastrigin", 8, 1), "halo", 2000, 1e-1),
    "rastrigin8/direct": (shifted_handle("rastrigin", 8, 1), "direct", 2000, 1e-4),
    # beta 0.03 > 1e-3, so a local search's first step is the box's own half diagonal
    "rastrigin6-shift3/halo": (shifted_handle("rastrigin", 6, 3), "halo", 3000, 3e-2),
    "rastrigin8-shift3/hlo": (shifted_handle("rastrigin", 8, 3), "hlo", 3000, 3e-2),
}

GOLDEN = {
    "schoen30#0/halo": "cc90c08ac5a68178ea80a095876648a5bbb9d283cb6869b410c859b7eb3377a0",
    "schoen30#0/hlo": "337b07f1997d622b5bd5f85dfc6dc5b18cc3305dd20b29f8bbd21e1557f3245d",
    "schoen30#0/direct": "96ba4682d33e6e1bfbf815032b5098932142117d01e6f8bafa4870b535ff8466",
    "schoen30#21/halo": "dc308e64dbf66e19d8eb660f681f64b7bfa1a3530f96a2e52cf7042750c2f043",
    "schoen30#21/hlo": "01700fdb0e3b793da9ecfec2f2cf53509fe31c93ca3c4db0ef71005c8046f2b4",
    "schoen30#21/direct": "2d350cd34b36b2cbe004738915f162573b29a91026f4c9834d4f867e67423e47",
    "classical20#3/halo": "6cd428868f6fdd3399d8e5ff49e531f26e204226f8ce48a67816669231d067f1",
    "classical20#3/hlo": "0ef657b2e2463eb8a6d73e6a1246695af93b91469071285672a624664697ab97",
    "classical20#3/direct": "36d77ce3432d137d11de30f6578ca6dde8f320ec4c31d234b1fe3a4d11cb0176",
    "classical20#12/halo": "1981cbda6ad7fe447f29317d35c0498179014ee074b918955279718428373b86",
    "classical20#12/hlo": "1816f7e61130652ef794a421a8ab6d1caedbffb4089da09e60c6ce7552ffb485",
    "classical20#12/direct": "49a23b5827b4debd1f0a9e4fb4d6d2d2da7ae55e595fc76db9f1e834fe96f493",
    "rastrigin2-deep/halo": "ee382cd1905d7243eee5d79082a3be15a50d13f5b83b4802e223eab20dabbed7",
    "rastrigin2-deep/hlo": "db3dc144197fe86136d73e508ae4f69427e0e243362f335b1a51e86e68989356",
    "rastrigin8/halo": "19b8dbc573227a947d253ce3b4d264fa1898b56f1572b06e3cc2caa0e95fba30",
    "rastrigin8/direct": "f9765f825cff08c9e220eb633a8778997c4913228ba61635d4c9ade0a7a04e72",
    "rastrigin6-shift3/halo": "f674b0ef885c271f525f93c1cf64fe59180a45c96263e082c16cdc24185dd99c",
    "rastrigin8-shift3/hlo": "edfab856acc0194120f1d22335a632f075abc5a4446f112cbd541c7d9e1dbb7c",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    for e in trace.evals:
        h.update(struct.pack("<qdd", e.index, e.value, e.best))
        h.update(np.ascontiguousarray(e.point, dtype="<f8").tobytes())
    return h.hexdigest()


def solve(case: str):
    build, variant, budget, beta = CASES[case]
    cfg = SolverConfig(variant=variant, beta=beta, stop=StopRule(max_fun_evals=budget))
    return run(build(), cfg)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_unchanged(case):
    assert trace_digest(solve(case)) == GOLDEN[case]


def test_deep_case_trisects_past_level_300():
    trace = solve("rastrigin2-deep/halo")
    assert HALF_SIDES[trace.ledger.levels].min() < 0.5 * 3.0**-300
