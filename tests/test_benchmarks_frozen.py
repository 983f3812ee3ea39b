"""The committed benchmark manifests must replay and regenerate exactly."""

import pathlib

from click.testing import CliRunner

from halo.cli import main
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


def test_gen_recipe_rebuilds_the_frozen_suites(tmp_path):
    # the README recipe, run into tmp_path: the committed files must stay untouched
    def gen(*args):
        result = CliRunner().invoke(main, ["gen", *args], catch_exceptions=False)
        assert result.exit_code == 0, result.output

    gen("--family", "schoen", "--n", "2", "--count", "15", "--seed", "0", "--out", str(tmp_path / "s2.jsonl"))
    gen("--family", "schoen", "--n", "3", "--count", "15", "--seed", "15", "--out", str(tmp_path / "s3.jsonl"))
    gen("--family", "classical", "--n", "2", "--count", "20", "--seed", "7", "--out", str(tmp_path / CLASSICAL20.name))
    schoen30 = (tmp_path / "s2.jsonl").read_bytes() + (tmp_path / "s3.jsonl").read_bytes()
    assert schoen30 == SCHOEN30.read_bytes()
    assert (tmp_path / CLASSICAL20.name).read_bytes() == CLASSICAL20.read_bytes()
