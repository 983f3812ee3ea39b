import csv
import json
import math

from halo.serialize import dumps, fmt_float, read_jsonl, write_csv, write_jsonl


def test_fmt_float_17_digits_round_trip():
    values = [1 / 3, math.pi, 1e-300, -7.25, 0.1 + 0.2, 5.0 / (4.0 * math.pi)]
    for v in values:
        text = fmt_float(v)
        assert float(text) == v
        mantissa = text.lstrip("-").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 17


def test_fmt_float_nonfinite_becomes_null():
    assert fmt_float(float("nan")) == "null"
    assert fmt_float(float("inf")) == "null"


def test_dumps_valid_json_and_key_order():
    doc = {"b": 1, "a": [1.5, None, True, "x"], "c": {"nested": 2.0}}
    text = dumps(doc)
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": [1.5, None, True, "x"], "c": {"nested": 2.0}}
    assert list(parsed.keys()) == ["b", "a", "c"]


def test_dumps_indented_parses():
    doc = {"rows": [{"x": 1.0}, {"x": 2.0}], "empty": [], "none": None}
    parsed = json.loads(dumps(doc, indent=2))
    assert parsed["rows"][1]["x"] == 2.0


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "r.jsonl"
    records = [{"i": i, "v": i / 3.0, "name": f"p{i}"} for i in range(5)]
    write_jsonl(path, records)
    assert read_jsonl(path) == records


def test_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    names = ["a,b", 'q"x', "l\nm", "c\rr", " plain "]
    write_csv(path, ("a", "b", "c"), [(1, True, 1 / 3), (2, None, float("nan"))] + [(s, 3, 0.5) for s in names])
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1].startswith("1,true,0.333333")
    assert lines[2] == "2,,null"
    assert lines[3] == '"a,b",3,0.5'
    assert lines[4] == '"q""x",3,0.5'
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[3:]] == names
    assert all(len(row) == 3 for row in rows)
