"""Serialization helpers for experiment outputs.

Numbers reach a CSV file through one formatter, ``format_column``, which
gives every element of a column 17 significant digits, so doubles round-trip
exactly and integers below 2**53 print the digits of ``str``.  ``write_csv``
takes str cells only; any other cell is a programming error and raises
TypeError.  CSV rows are streamed: each row is joined with ``,`` and ended
with ``\r\n`` as it arrives, so a table is never held whole in memory.  No
cell is quoted; a cell that would need quoting (``,``, ``"``, ``\r`` or
``\n``) is refused with ValueError.  On either refusal no file is left
behind.  JSON summaries are sorted, restricted to plain types and finite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def format_column(values) -> list[str]:
    """Every element of a numeric column with 17 significant digits, as a
    list of str: bit-exact for doubles, the digits of ``str`` for integers
    below 2**53."""
    return [format(x, ".17g") for x in np.asarray(values, dtype=float).tolist()]


def _csv_line(row) -> str:
    line = ",".join(row)
    if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
        raise ValueError(f"CSV cell needs quoting, which the writer does not do: {row!r}")
    return line + "\r\n"


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows``, consumed once by iteration.  Every
    cell must be a str (numbers go through ``format_column`` first); any
    other cell raises TypeError.  On any failure the partial file is
    removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(_csv_line(tuple(header)))
            fh.writelines(_csv_line(row) for row in rows)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def jsonable(value):
    """Recursively coerce numpy scalars/arrays and complex numbers into
    JSON-friendly structures (complex -> {"re": ..., "im": ...})."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if value is None or isinstance(value, str):
        return value
    return str(value)


def write_json(path, payload) -> Path:
    """Write ``payload`` as sorted JSON.  NaN and infinities are not JSON:
    they raise ValueError before the file is opened, so no partial file is
    left behind."""
    text = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path
