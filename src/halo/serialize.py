"""Reproducible text serialization: JSONL records, JSON documents, CSV.

Every floating-point number is written with 17 significant digits, which
round-trips float64 exactly, so regenerating a file from the same inputs
is byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence


def fmt_float(x: float) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value: Any, indent: int = 0, _level: int = 0) -> str:
    """JSON text with 17-significant-digit floats; dict key order preserved."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(str(k))}: {dumps(v, indent, _level + 1)}" for k, v in value.items()]
        return _wrap(items, "{}", indent, _level)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [dumps(v, indent, _level + 1) for v in value]
        return _wrap(items, "[]", indent, _level)
    return _json_scalar(value)


def _wrap(items: list[str], brackets: str, indent: int, level: int) -> str:
    if indent <= 0:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    body = (",\n" + pad).join(items)
    return f"{brackets[0]}\n{pad}{body}\n{close_pad}{brackets[1]}"


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps(record))
            fh.write("\n")


def read_jsonl(path) -> list[dict]:
    """One record per non-blank line; a bad line raises a ValueError naming its line number."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as err:
                raise ValueError(f"line {number} column {err.colno}: {err.msg}") from None
    return records


def write_json(path, document: Any, indent: int = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(document, indent=indent))
        fh.write("\n")


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):  # RFC 4180 quoting, only where a cell needs it
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")
