import hashlib
import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from halo.cli import main
from halo.serialize import read_json, read_jsonl

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

# records that load as JSON but describe no problem
BAD_RECORDS = [
    {"name": "rosenbrock-n1", "family": "classical", "function": "rosenbrock", "n": 1},
    {"name": "nope", "family": "nope", "n": 2},
    {"name": "no-function", "family": "classical", "n": 2},
    {"name": "n-null", "family": "classical", "function": "sphere", "n": None},
]
REPORT_ROW = {"problem": "p", "n": 2, "variant": "halo", "solved": True, "fevals": 10,
              "best_value": 0.0, "rel_error": 0.0}
REPORT_AGGREGATE = {"problems": 1, "percent_solved": 100.0, "average_evals_solved": 10.0,
                    "auoc": 0.5, "gamma_max": 20}
# files that are not the manifest or report they stand in for; "{name}" in an
# argument stands for the path of BAD_FILES[name], written outside tmp_path
BAD_FILES = {
    "bad.jsonl": "".join(json.dumps(r) + "\n" for r in BAD_RECORDS),
    "not-json.jsonl": json.dumps(BAD_RECORDS[0]) + "\nnot json\n",
    "not-object.jsonl": "[1, 2]\n",
    "empty.jsonl": "\n",
    "not-json.json": "{",
    "no-rows.json": json.dumps({"aggregate": REPORT_AGGREGATE}),
    "empty-rows.json": json.dumps({"aggregate": REPORT_AGGREGATE, "rows": []}),
    "no-aggregate.json": json.dumps({"rows": [REPORT_ROW]}),
}


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


def test_bench_at_beta_zero_starts_no_local_search(tmp_path):
    manifest = str(BENCH_DIR / "classical20.jsonl")
    # beta is the only switch for the local search; no flag duplicates it
    result = CliRunner().invoke(main, ["bench", "--manifest", manifest, "--no-local-search",
                                       "--out", str(tmp_path / "off.json")])
    assert result.exit_code == 2, result.output
    assert list(tmp_path.iterdir()) == []
    report_path = tmp_path / "beta-0.json"
    invoke("bench", "--manifest", manifest, "--beta", "0", "--budget", "300", "--out", str(report_path))
    doc = read_json(report_path)
    assert doc["metadata"]["beta"] == 0 and "local_search_enabled" not in doc["metadata"]
    assert [r["n_local_searches"] for r in doc["rows"]] == [0] * 20


def test_solve_named_problem_with_trace(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    out = invoke("solve", "--problem", "branin", "--variant", "direct",
                 "--budget", "300", "--out", str(trace_path))
    assert "status=solved evals=189" in out.output
    # recorded before the trace stored columns: regenerating the file is byte-identical
    digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
    assert digest == "2a86433180bf10bde5034ee21c9e75f6ad5f500244d25efc3e5779aff8ba1afe"
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
        ("solve", "--problem", "{bad.jsonl}#0"),
        ("solve", "--problem", "{bad.jsonl}#1"),
        ("solve", "--problem", "{bad.jsonl}#2"),
        ("solve", "--problem", "{bad.jsonl}#3"),
        ("solve", "--problem", "{not-json.jsonl}#0"),
        ("solve", "--problem", "{not-object.jsonl}#0"),
        ("solve", "--problem", "{empty.jsonl}#0"),
        ("bench", "--manifest", "{not-json.jsonl}"),
        ("bench", "--manifest", "{not-object.jsonl}"),
        ("bench", "--manifest", "{empty.jsonl}"),
        ("report", "--in", "{not-json.json}"),
        ("report", "--in", "{no-rows.json}"),
        ("report", "--in", "{empty-rows.json}"),
        ("report", "--in", "{no-aggregate.json}"),
    ],
    ids=["gen-count-negative", "gen-count-zero", "gen-n-zero", "solve-index-not-int",
         "solve-n-zero", "solve-budget-zero", "bench-budget-zero", "bench-jobs-zero",
         "solve-beta-negative", "solve-tol-zero", "bench-tol-negative", "solve-seed-negative",
         "gen-seed-negative", "solve-beta-nan", "solve-tol-nan", "bench-beta-nan", "bench-tol-nan",
         "solve-rosenbrock-n1", "solve-manifest-rosenbrock-n1", "solve-manifest-unknown-family",
         "solve-manifest-no-function", "solve-manifest-n-null", "solve-manifest-not-json",
         "solve-manifest-not-object", "solve-manifest-empty", "bench-manifest-not-json",
         "bench-manifest-not-object", "bench-manifest-empty", "report-not-json", "report-no-rows",
         "report-empty-rows", "report-no-aggregate"],
)
def test_bad_input_is_a_usage_error_and_writes_nothing(tmp_path, tmp_path_factory, args):
    inputs = tmp_path_factory.mktemp("inputs")
    for name, text in BAD_FILES.items():
        (inputs / name).write_text(text)
        args = [a.replace(f"{{{name}}}", str(inputs / name)) for a in args]
    out_option = "--oc-csv" if args[0] == "report" else "--out"
    result = CliRunner().invoke(main, [*args, out_option, str(tmp_path / "out.json")])
    assert result.exit_code == 2, result.output
    assert list(tmp_path.iterdir()) == []


def test_solve_manifest_ref_to_a_directory_is_a_usage_error(tmp_path):
    result = CliRunner().invoke(main, ["solve", "--problem", f"{tmp_path}#0"])
    assert result.exit_code == 2, result.output
    assert "unknown problem" in result.output


def report_one_row(tmp_path, tmp_path_factory, **fields):
    """Run ``halo report`` with both CSVs into ``tmp_path`` on one REPORT_ROW with ``fields``."""
    report_path = tmp_path_factory.mktemp("inputs") / "report.json"
    report_path.write_text(json.dumps({"aggregate": REPORT_AGGREGATE, "rows": [{**REPORT_ROW, **fields}]}))
    return CliRunner().invoke(main, ["report", "--in", str(report_path), "--oc-csv", str(tmp_path / "oc.csv"),
                                     "--importance-csv", str(tmp_path / "imp.csv")])


def test_report_rejects_an_importance_that_is_not_a_list_before_writing(tmp_path, tmp_path_factory):
    result = report_one_row(tmp_path, tmp_path_factory, importance=5)
    assert result.exit_code == 2, result.output
    assert "importance" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("manifest_name, out_name", [("m.jsonl", "r.csv"), ("m.jsonl", "m.jsonl"),
                                                     ("m.csv", "m.json")])
def test_bench_rejects_an_out_that_would_overwrite_a_file_it_uses(tmp_path, manifest_name, out_name):
    manifest = tmp_path / manifest_name
    invoke("gen", "--family", "schoen", "--n", "2", "--count", "1", "--out", str(manifest))
    before = manifest.read_bytes()
    result = CliRunner().invoke(main, ["bench", "--manifest", str(manifest), "--budget", "50",
                                       "--out", str(tmp_path / out_name)])
    assert result.exit_code == 2, result.output
    assert list(tmp_path.iterdir()) == [manifest]
    assert manifest.read_bytes() == before


@pytest.mark.parametrize("field, value", [("fevals", "abc"), ("fevals", None), ("fevals", 1.5),
                                          ("solved", "yes"), ("solved", 1)])
def test_report_rejects_a_malformed_row_before_writing(tmp_path, tmp_path_factory, field, value):
    result = report_one_row(tmp_path, tmp_path_factory, **{field: value})
    assert result.exit_code == 2, result.output
    assert field in result.output
    assert list(tmp_path.iterdir()) == []


def test_solve_rejects_an_out_that_would_overwrite_its_manifest(tmp_path):
    manifest = tmp_path / "m.jsonl"
    invoke("gen", "--family", "schoen", "--n", "2", "--count", "2", "--out", str(manifest))
    before = manifest.read_bytes()
    for ref in (f"{manifest}#0", str(manifest)):
        result = CliRunner().invoke(main, ["solve", "--problem", ref, "--budget", "50", "--out", str(manifest)])
        assert result.exit_code == 2, result.output
        assert "manifest" in result.output
    assert list(tmp_path.iterdir()) == [manifest]
    assert manifest.read_bytes() == before


@pytest.mark.parametrize("oc_name, importance_name", [("r.json", None), (None, "r.json"), ("o.csv", "o.csv"),
                                                      ("o.csv", "r.json")])
def test_report_rejects_an_output_that_would_overwrite_a_file_it_uses(tmp_path, oc_name, importance_name):
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps({"aggregate": REPORT_AGGREGATE, "rows": [{**REPORT_ROW, "importance": [1.0]}]}))
    before = report_path.read_bytes()
    args = ["report", "--in", str(report_path)]
    if oc_name:
        args += ["--oc-csv", str(tmp_path / oc_name)]
    if importance_name:
        args += ["--importance-csv", str(tmp_path / importance_name)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert list(tmp_path.iterdir()) == [report_path]
    assert report_path.read_bytes() == before


@pytest.mark.parametrize("args", [
    ("solve", "--problem", "sphere", "--budget", "50", "--out", "{missing}/t.jsonl"),
    ("bench", "--manifest", str(BENCH_DIR / "classical20.jsonl"), "--budget", "50", "--out", "{missing}/r.json"),
    ("report", "--in", "{report}", "--oc-csv", "{missing}/oc.csv"),
    ("gen", "--family", "classical", "--n", "2", "--out", "{missing}/m.jsonl"),
], ids=["solve", "bench", "report", "gen"])
def test_an_output_in_a_missing_directory_is_a_usage_error_before_any_work(tmp_path, tmp_path_factory, args):
    report_path = tmp_path_factory.mktemp("inputs") / "r.json"
    report_path.write_text(json.dumps({"aggregate": REPORT_AGGREGATE, "rows": [REPORT_ROW]}))
    args = [a.format(missing=tmp_path / "missing", report=report_path) for a in args]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "no directory" in result.output
    assert list(tmp_path.iterdir()) == []
