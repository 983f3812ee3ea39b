"""The committed benchmark manifests must replay and regenerate exactly."""

import importlib.util
import pathlib

from halo.manifest import classical_manifest, load_manifest, problem_from_record, schoen_manifest
from halo.serialize import dumps

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHOEN30 = ROOT / "benchmarks" / "schoen30.jsonl"
CLASSICAL20 = ROOT / "benchmarks" / "classical20.jsonl"


def render(records):
    return "".join(dumps(r) + "\n" for r in records)


def test_schoen30_regenerates_byte_identically():
    expected = schoen_manifest(n=2, count=15, base_seed=0) + schoen_manifest(
        n=3, count=15, base_seed=15
    )
    assert SCHOEN30.read_text() == render(expected)


def test_classical20_regenerates_byte_identically():
    assert CLASSICAL20.read_text() == render(classical_manifest(n=2, seed=7, count=20))


def test_manifests_replay():
    for path in (SCHOEN30, CLASSICAL20):
        records = load_manifest(path)
        for record in records:
            problem = problem_from_record(record)
            assert problem.n == record["n"]


def test_make_benchmarks_script_runs(tmp_path, monkeypatch, capsys):
    # run the script into tmp_path: the committed files must stay untouched
    spec = importlib.util.spec_from_file_location("make_benchmarks", ROOT / "scripts" / "make_benchmarks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "BENCH_DIR", tmp_path)
    script.main()
    out = capsys.readouterr().out
    assert "30 problems" in out and "20 problems" in out
    for committed in (SCHOEN30, CLASSICAL20):
        assert (tmp_path / committed.name).read_bytes() == committed.read_bytes()
