import numpy as np
import pytest

from halo.manifest import (
    classical_manifest,
    load_manifest,
    problem_from_record,
    problem_record,
    schoen_manifest,
    write_manifest,
)
from halo.schoen import schoen_generate


def test_schoen_manifest_round_trip(tmp_path):
    records = schoen_manifest(n=2, count=5, base_seed=0)
    path = tmp_path / "m.jsonl"
    write_manifest(path, records)
    loaded = load_manifest(path)
    assert loaded == records
    for record in loaded:
        prob = problem_from_record(record)
        assert prob.n == 2
        assert prob.known_optimum == pytest.approx(record["known_optimum"], rel=1e-12)


def test_manifest_regeneration_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(a, schoen_manifest(n=3, count=8, base_seed=4))
    write_manifest(b, schoen_manifest(n=3, count=8, base_seed=4))
    assert a.read_bytes() == b.read_bytes()


def test_replay_reproduces_identical_problems():
    record = problem_record(schoen_generate(17, 2))
    p1 = problem_from_record(record)
    p2 = problem_from_record(record)
    probes = np.random.default_rng(0).uniform(size=(50, 2))
    assert np.array_equal(p1.fn(probes), p2.fn(probes))


def test_tampered_optimum_detected():
    record = problem_record(schoen_generate(3, 2))
    record["known_optimum"] += 0.5
    with pytest.raises(ValueError):
        problem_from_record(record)


def test_tampered_anchor_count_detected():
    record = problem_record(schoen_generate(3, 2))
    record["stationary_points"] += 1
    with pytest.raises(ValueError):
        problem_from_record(record)


def test_load_rejects_a_record_that_is_not_an_object(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"family": "schoen", "n": 2, "seed": 0}\n[1, 2]\n')
    with pytest.raises(ValueError, match=r"m\.jsonl record #1 is not a JSON object"):
        load_manifest(path)


def test_load_names_the_line_that_is_not_json(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"family": "schoen", "n": 2, "seed": 0}\nnot json\n')
    with pytest.raises(ValueError, match=r"m\.jsonl is not JSON lines: line 2 column 1: "):
        load_manifest(path)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        problem_from_record({"family": "mystery", "n": 2})


def test_empty_manifest_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_manifest(path)


def test_classical_manifest_shifts_center_optimum_functions():
    records = classical_manifest(n=2, seed=7)
    by_name = {r["function"]: r for r in records}
    assert by_name["sphere"]["shift_seed"] is not None
    assert by_name["rastrigin"]["shift_seed"] is not None
    assert by_name["branin"]["shift_seed"] is None
    assert len(records) == 16
    # shifted names are distinct from the base function name
    assert by_name["sphere"]["name"].startswith("sphere-shift")


def test_classical_manifest_padding_to_twenty():
    records = classical_manifest(n=2, seed=7, count=20)
    assert len(records) == 20
    names = [r["name"] for r in records]
    assert len(set(names)) == 20
    for record in records:
        prob = problem_from_record(record)
        assert float(prob.fn(prob.known_minimizer)) == pytest.approx(
            record["known_optimum"], abs=1e-9
        )


def test_classical_shifted_replay_identical():
    records = classical_manifest(n=2, seed=7, count=20)
    shifted = [r for r in records if r["shift_seed"] is not None][0]
    p1 = problem_from_record(shifted)
    p2 = problem_from_record(shifted)
    assert np.array_equal(p1.known_minimizer, p2.known_minimizer)
    x = np.random.default_rng(1).uniform(p1.domain.lower, p1.domain.upper)
    assert float(p1.fn(x)) == float(p2.fn(x))
