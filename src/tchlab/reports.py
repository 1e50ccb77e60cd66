"""Serialization helpers for experiment outputs.

CSV cells carry 17 significant digits so doubles round-trip exactly.  CSV
rows are streamed: each row is joined with ``,`` and ended with ``\r\n`` as
it arrives, so a table is never held whole in memory.  No cell is quoted; a
str cell that would need quoting (``,``, ``"``, ``\r`` or ``\n``) is refused
with ValueError and no file is left behind.  JSON summaries are sorted,
restricted to plain types and finite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def format_float(value) -> str:
    """Render a double with enough digits to reproduce it bit for bit."""
    return format(float(value), ".17g")


def format_column(values) -> list[str]:
    """``format_float`` of every element of a float array, as a list."""
    return [format(x, ".17g") for x in np.asarray(values, dtype=float).tolist()]


def format_cell(value) -> str:
    if isinstance(value, float):  # includes np.float64
        return format_float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        imag = format_float(c.imag)  # carries its own sign, including -0
        return f"{format_float(c.real)}{'' if imag.startswith('-') else '+'}{imag}j"
    return format_float(value)


def _csv_line(row) -> str:
    try:  # rows of preformatted str cells join without a per-cell step
        line = ",".join(row)
    except TypeError:
        line = ",".join([format_cell(v) for v in row])
    if line.count(",") != len(row) - 1 or '"' in line or "\r" in line or "\n" in line:
        raise ValueError(f"CSV cell needs quoting, which the writer does not do: {row!r}")
    return line + "\r\n"


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows``, consumed once by iteration.  str
    cells are written as given, every other cell through ``format_cell``.  On
    any failure the partial file is removed."""
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
