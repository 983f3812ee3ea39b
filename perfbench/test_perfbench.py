"""Checks of the benchmark itself on tiny budgets.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import SpanTracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = {"rastrigin4-halo": 400, "rastrigin4-direct": 300, "schoen30-mix": 120}


@pytest.fixture(scope="module")
def halo():
    return run.import_halo()


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], budget=TINY[name])


def rep_digests(halo, wl: run.Workload, seed: int) -> dict[str, str]:
    manifest = run.prepare_manifest(halo, wl, seed)
    problems, records = run.build_problems(halo, wl, seed, manifest)
    tally = run.Tally(halo, wl, problems, {}, pin=True)
    run.run_rep(halo, wl, problems, records, tally.on_solve, tally.rep)
    assert tally.correct
    assert tally.attempted == len(tally.rep.digests) == len(wl.variants) * len(problems)
    return tally.rep.digests


def halo_bindings(halo) -> dict:
    """Every attribute of every halo module and traced class, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "halo" or n.startswith("halo.")]
    owners += [getattr(halo.geometry, c) for c in ("PartitionLedger", "ObjectiveHandle")]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_digests_repeat_and_depend_on_seed(halo, name):
    wl = tiny(name)
    first = rep_digests(halo, wl, 1)
    assert rep_digests(halo, wl, 1) == first
    assert set(rep_digests(halo, wl, 2).values()).isdisjoint(first.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reproduces_digests_and_restores_wrappers(halo, name):
    wl = tiny(name)
    untraced = rep_digests(halo, wl, 1)
    before = halo_bindings(halo)
    tracer = SpanTracer()
    with tracer:
        # wrapped at the name the solver resolves, not only where it is defined
        assert halo.solver.select_halo is halo.selection.select_halo
        assert halo.solver.select_halo.__wrapped__ is before[(id(halo.selection), "select_halo")]
        traced = rep_digests(halo, wl, 1)
    after = halo_bindings(halo)
    assert traced == untraced
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    summary = tracer.summary()
    assert summary["objective"]["calls"] > 0
    assert summary["partitioning.divide_partition"]["calls"] > 0
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(tracer.root_s(), rel=1e-9)


def test_self_time_excludes_children():
    tracer = SpanTracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"], abs=1e-12
    )
    assert tracer.root_s() == pytest.approx(summary["outer"]["total_s"])


def test_default_seed_reproduces_frozen_manifest(halo):
    assert halo.load_manifest(run.FROZEN_SCHOEN) == run.schoen_records(halo, run.DEFAULT_SEED)


def test_golden_covers_every_workload():
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    assert set(golden["digests"]) == set(run.WORKLOADS)
    for name, wl in run.WORKLOADS.items():
        solves = len(wl.variants) * (wl.shifts or 2 * run.SCHOEN_PER_DIM)
        assert len(golden["digests"][name]) == solves


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    names = [*run.WORKLOADS, *run.END_TO_END_UNITS, *run.PER_LAYER_UNITS]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for u in [*run.END_TO_END_UNITS.values(), *run.PER_LAYER_UNITS.values()])


def test_main_prints_every_metric(halo, monkeypatch, capsys):
    for name in TINY:
        monkeypatch.setitem(run.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
        assert run.main(["--workload", "schoen30-mix", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] == 90 * (2 + trace)  # warm-up, timed and traced passes
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert halo.metrics.run is halo.solver.run and not hasattr(halo.solver.run, "__wrapped__")


def test_changed_digests_count_as_failed(halo, monkeypatch, capsys):
    # at a tiny budget the seed-0 traces cannot match golden.json
    monkeypatch.setitem(run.WORKLOADS, "rastrigin4-direct", tiny("rastrigin4-direct"))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", "rastrigin4-direct", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 6


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rastrigin4-halo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
