"""Deterministic CSV/JSON emission for census rows, bound fits, and reports.

A row is a dict or a flat dataclass; its keys (fields) are the columns.

Counts are printed as exact decimal integers; reals are rounded to 12
significant digits so reports are byte-identical across runs and diffable.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json


def fmt_real(v: float) -> str:
    return f"{float(v):.12g}"


def round_real(v: float) -> float:
    return float(fmt_real(v))


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_real(value)
    if isinstance(value, complex):
        return f"{fmt_real(value.real)}{'+' if value.imag >= 0 else '-'}{fmt_real(abs(value.imag))}j"
    if isinstance(value, (tuple, list)):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _fields(row) -> dict:
    if isinstance(row, dict):
        return row
    return {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}


def _jsonable(value):
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, float):
        return round_real(value)
    if isinstance(value, complex):
        return {"re": round_real(value.real), "im": round_real(value.imag)}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict) or dataclasses.is_dataclass(value):
        return {name: _jsonable(v) for name, v in _fields(value).items()}
    return str(value)


def table(rows) -> tuple[list[str], list[list[str]]]:
    """Header (the first row's keys) and formatted cells for rows of one
    shape."""
    rows = [_fields(row) for row in rows]
    if not rows:
        return [], []
    header = list(rows[0])
    return header, [[_cell(row[name]) for name in header] for row in rows]


def render_csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=False) + "\n"


def emit(rows, fmt: str, out) -> None:
    """Write rows as CSV or a JSON document to a file object."""
    if fmt == "csv":
        out.write(render_csv(*table(rows)))
    elif fmt == "json":
        out.write(render_json(list(rows)))
    else:
        raise ValueError(f"unknown output format {fmt!r}")
