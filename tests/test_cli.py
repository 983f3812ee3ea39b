import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from halo.cli import main
from halo.serialize import read_json, read_jsonl

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

# records that load as JSON but describe no problem; "{bad}" in an argument
# stands for the path of a manifest holding them, written outside tmp_path
BAD_RECORDS = [
    {"name": "rosenbrock-n1", "family": "classical", "function": "rosenbrock", "n": 1},
    {"name": "nope", "family": "nope", "n": 2},
    {"name": "no-function", "family": "classical", "n": 2},
    {"name": "n-null", "family": "classical", "function": "sphere", "n": None},
]


def invoke(*args):
    runner = CliRunner()
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_gen_bench_report_round_trip(tmp_path):
    manifest = tmp_path / "m.jsonl"
    invoke("gen", "--family", "schoen", "--n", "2", "--count", "4", "--seed", "0",
           "--out", str(manifest))
    assert len(read_jsonl(manifest)) == 4

    report_path = tmp_path / "report.json"
    out = invoke("bench", "--manifest", str(manifest), "--variant", "halo",
                 "--budget", "2000", "--jobs", "1", "--out", str(report_path))
    assert "percent_solved" in out.output
    doc = read_json(report_path)
    assert doc["aggregate"]["problems"] == 4
    assert (tmp_path / "report.csv").exists()
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == "problem,N,variant,solved,fevals,best_f,rel_err"

    oc_csv = tmp_path / "oc.csv"
    imp_csv = tmp_path / "imp.csv"
    out = invoke("report", "--in", str(report_path), "--auoc",
                 "--oc-csv", str(oc_csv), "--importance-csv", str(imp_csv))
    assert "auoc=" in out.output
    searches = sum(r["n_local_searches"] for r in doc["rows"])
    assert f"mean_local_searches={searches / 4:.17g}" in out.output
    rows = oc_csv.read_text().splitlines()
    assert rows[0] == "gamma,c"
    cs = [float(line.split(",")[1]) for line in rows[1:]]
    assert all(b >= a for a, b in zip(cs, cs[1:]))
    assert imp_csv.read_text().splitlines()[0] == "problem,variant,coordinate,importance"


def test_bench_output_is_byte_identical_across_runs(tmp_path):
    manifest = tmp_path / "m.jsonl"
    invoke("gen", "--family", "schoen", "--n", "2", "--count", "2", "--seed", "0",
           "--out", str(manifest))
    for name, jobs in (("a", "1"), ("b", "2")):
        if name == "b":
            time.sleep(1.0)  # a wall-clock stamp in the output would differ
        (tmp_path / name).mkdir()
        invoke("bench", "--manifest", str(manifest), "--budget", "300", "--jobs", jobs,
               "--out", str(tmp_path / name / "report.json"))
    for suffix in (".json", ".csv"):
        a = (tmp_path / "a" / "report").with_suffix(suffix).read_bytes()
        b = (tmp_path / "b" / "report").with_suffix(suffix).read_bytes()
        assert a == b


def test_solve_named_problem_with_trace(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    out = invoke("solve", "--problem", "branin", "--variant", "direct",
                 "--budget", "2000", "--out", str(trace_path))
    assert "status=solved" in out.output
    records = read_jsonl(trace_path)
    assert records[0]["eval_index"] == 1
    bests = [r["best"] for r in records]
    assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
    assert list(records[0].keys()) == ["eval_index", "value", "best"]


def test_solve_manifest_ref(tmp_path):
    manifest = tmp_path / "m.jsonl"
    invoke("gen", "--family", "schoen", "--n", "2", "--count", "3", "--seed", "5",
           "--out", str(manifest))
    out = invoke("solve", "--problem", f"{manifest}#2", "--budget", "500")
    assert "schoen-n2-seed7" in out.output


def test_solve_schoen_by_name():
    out = invoke("solve", "--problem", "schoen", "--n", "2", "--seed", "3", "--budget", "400")
    assert "problem=schoen-n2-seed3" in out.output


def test_gen_classical_twenty(tmp_path):
    manifest = tmp_path / "c.jsonl"
    invoke("gen", "--family", "classical", "--n", "2", "--count", "20", "--seed", "7",
           "--out", str(manifest))
    records = read_jsonl(manifest)
    assert len(records) == 20
    assert {r["family"] for r in records} == {"classical"}


def test_unknown_problem_errors():
    runner = CliRunner()
    result = runner.invoke(main, ["solve", "--problem", "nope"])
    assert result.exit_code != 0
    assert "unknown problem" in result.output


def test_trace_floats_are_17_digit(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    invoke("solve", "--problem", "sphere", "--n", "2", "--budget", "50",
           "--out", str(trace_path))
    first = trace_path.read_text().splitlines()[0]
    record = json.loads(first)
    assert set(record) == {"eval_index", "value", "best"}


@pytest.mark.parametrize(
    "args",
    [
        ("gen", "--family", "classical", "--n", "2", "--count", "-1"),
        ("gen", "--family", "classical", "--n", "2", "--count", "0"),
        ("gen", "--family", "schoen", "--n", "0", "--count", "2"),
        ("solve", "--problem", f"{BENCH_DIR / 'schoen30.jsonl'}#x"),
        ("solve", "--problem", "sphere", "--n", "0"),
        ("solve", "--problem", "sphere", "--budget", "0"),
        ("bench", "--manifest", str(BENCH_DIR / "classical20.jsonl"), "--budget", "0"),
        ("bench", "--manifest", str(BENCH_DIR / "classical20.jsonl"), "--jobs", "0"),
        ("solve", "--problem", "sphere", "--beta", "-1"),
        ("solve", "--problem", "sphere", "--tol", "0"),
        ("bench", "--manifest", str(BENCH_DIR / "classical20.jsonl"), "--tol", "-1"),
        ("solve", "--problem", "schoen", "--seed", "-1"),
        ("gen", "--family", "schoen", "--n", "2", "--count", "2", "--seed", "-1"),
        ("solve", "--problem", "sphere", "--beta", "nan"),
        ("solve", "--problem", "sphere", "--tol", "nan"),
        ("bench", "--manifest", str(BENCH_DIR / "classical20.jsonl"), "--beta", "nan"),
        ("bench", "--manifest", str(BENCH_DIR / "classical20.jsonl"), "--tol", "nan"),
        ("solve", "--problem", "rosenbrock", "--n", "1"),
        ("solve", "--problem", "{bad}#0"),
        ("solve", "--problem", "{bad}#1"),
        ("solve", "--problem", "{bad}#2"),
        ("solve", "--problem", "{bad}#3"),
    ],
    ids=["gen-count-negative", "gen-count-zero", "gen-n-zero", "solve-index-not-int",
         "solve-n-zero", "solve-budget-zero", "bench-budget-zero", "bench-jobs-zero",
         "solve-beta-negative", "solve-tol-zero", "bench-tol-negative", "solve-seed-negative",
         "gen-seed-negative", "solve-beta-nan", "solve-tol-nan", "bench-beta-nan", "bench-tol-nan",
         "solve-rosenbrock-n1", "solve-manifest-rosenbrock-n1", "solve-manifest-unknown-family",
         "solve-manifest-no-function", "solve-manifest-n-null"],
)
def test_bad_input_is_a_usage_error_and_writes_nothing(tmp_path, tmp_path_factory, args):
    if any("{bad}" in a for a in args):
        bad = tmp_path_factory.mktemp("manifest") / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in BAD_RECORDS))
        args = [a.replace("{bad}", str(bad)) for a in args]
    out = tmp_path / "out.json"
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert list(tmp_path.iterdir()) == []
