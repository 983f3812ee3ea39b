"""Problem-set manifests: one JSONL record per benchmark problem.

A manifest pins everything needed to rebuild a problem bit-for-bit (family,
dimension, seeds) plus its known optimum, which is re-checked on replay so
a stale or edited manifest fails loudly instead of skewing results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .problems import (
    CLASSICAL_FUNCTIONS,
    TestProblem,
    classical_problem,
    classical_suite,
    shift_minimizer,
)
from .schoen import schoen_generate
from .serialize import read_jsonl, write_jsonl


def problem_record(problem: TestProblem) -> dict:
    """Flat manifest record for one problem, keys in fixed order."""
    return {
        "name": problem.name,
        "family": problem.family,
        "function": problem.function,
        "n": problem.n,
        "seed": problem.seed,
        "stationary_points": problem.stationary_points,
        "shift_seed": problem.shift_seed,
        "known_optimum": problem.known_optimum,
    }


def problem_from_record(record: dict) -> TestProblem:
    """Rebuild the problem a record describes, verifying its integrity."""
    family = record.get("family")
    if family == "schoen":
        problem = schoen_generate(int(record["seed"]), int(record["n"]))
        stored_s = record.get("stationary_points")
        if stored_s is not None and int(stored_s) != problem.stationary_points:
            raise ValueError(
                f"manifest record {record.get('name')!r} stores {stored_s} stationary "
                f"points but seed {record['seed']} generates {problem.stationary_points}"
            )
    elif family == "classical":
        problem = classical_problem(record["function"], int(record["n"]))
        if record.get("shift_seed") is not None:
            problem = shift_minimizer(problem, int(record["shift_seed"]))
    else:
        raise ValueError(f"unknown problem family {family!r}")

    stored_opt = record.get("known_optimum")
    if stored_opt is not None and not np.isclose(
        stored_opt, problem.known_optimum, rtol=1e-9, atol=1e-9
    ):
        raise ValueError(
            f"manifest record {record.get('name')!r} stores optimum {stored_opt!r} "
            f"but the rebuilt problem has {problem.known_optimum!r}"
        )
    name = record.get("name")
    if name and name != problem.name:
        problem = replace(problem, name=name)
    return problem


def schoen_manifest(n: int, count: int, base_seed: int) -> list[dict]:
    """Records for ``count`` seeded problems at dimension ``n``.

    Problem i uses seed ``base_seed + i``: the stream split is the seed
    itself, so manifests are portable and individually replayable.
    """
    return [problem_record(schoen_generate(base_seed + i, n)) for i in range(count)]


def classical_manifest(n: int, seed: int, count: Optional[int] = None) -> list[dict]:
    """Records for the classical suite at dimension ``n``.

    Functions whose optimum sits at the domain center are always shifted
    (seeded from ``seed``); asking for more problems than the suite holds
    appends extra shifted copies of those functions with fresh seeds.
    """
    records = []
    shiftable = []
    for i, problem in enumerate(classical_suite(n)):
        if CLASSICAL_FUNCTIONS[problem.function].center_optimum:
            shifted = shift_minimizer(problem, seed + i)
            record = problem_record(shifted)
            record["name"] = f"{problem.name}-shift{seed + i}"
            shiftable.append(problem)
            records.append(record)
        else:
            records.append(problem_record(problem))
    if count is not None and count > len(records):
        extra = count - len(records)
        for j in range(extra):
            base = shiftable[j % len(shiftable)]
            shift_seed = seed + 1000 + j
            record = problem_record(shift_minimizer(base, shift_seed))
            record["name"] = f"{base.name}-shift{shift_seed}"
            records.append(record)
    if count is not None:
        records = records[:count]
    return records


def write_manifest(path, records: list[dict]) -> None:
    write_jsonl(path, records)


def load_manifest(path) -> list[dict]:
    """Read a manifest's records; a ValueError naming ``path`` unless it holds one or more JSON objects."""
    try:
        records = read_jsonl(path)
    except ValueError as err:  # not UTF-8, or a line that is not JSON
        raise ValueError(f"manifest {path} is not JSON lines: {err}") from None
    if not records:
        raise ValueError(f"empty manifest: {path}")
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"manifest {path} record #{i} is not a JSON object")
    return records
