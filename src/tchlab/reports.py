"""Serialization helpers for experiment outputs.

Every number reaches a CSV file with 17 significant digits, through
``format_column`` or the ``%.17g`` template of ``write_grid_csv`` (the same
conversion in CPython): doubles round-trip exactly and integers below 2**53
print the digits of ``str``.  Tables are streamed.  No cell is quoted: a
cell needing it (``,``, ``"``, ``\r``, ``\n``) or a row not as wide as the
header raises ValueError, a non-str cell TypeError, and no file is left
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


def _plain(text: str, n: int, width: int) -> str:
    """``text`` if it is n lines of ``width`` unquoted cells, else ValueError.
    Counts only add up, so checking a block refuses what checking each row
    would."""
    if (text.count(",") != n * (width - 1) or '"' in text
            or text.count("\r") != n or text.count("\n") != n):
        raise ValueError(f"CSV cell needs quoting or row is ragged: {text[:200]!r}")
    return text


def _write_blocks(path, header, blocks) -> Path:
    """Write the checked header, then each block of rows, already checked.
    On failure, no file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="")
    try:
        with fh:
            fh.write(_plain(",".join(header) + "\r\n", 1, len(header)))
            fh.writelines(blocks)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows``, consumed once by iteration.  Every
    cell must be a str (numbers go through ``format_column`` first); any
    other cell raises TypeError.  A row of another width than the header
    counts as no row, which the check refuses."""
    return _write_blocks(path, header, (
        _plain(",".join(row) + "\r\n", int(len(row) == len(header)), len(header))
        for row in rows))


def write_grid_csv(path, header, times, sites, values) -> Path:
    """Rows (time, *site cells, re, im, abs) of a complex (time x site) grid,
    time-major, from numeric times and the str cells of each site, baked into
    one row template that each time sample fills with one ``%`` call.  The
    times and the ``%.17g`` numbers never need quoting, so only the template
    is checked, once, before the file is opened."""
    template = "".join("%s," + ",".join(c).replace("%", "%%") + ",%.17g,%.17g,%.17g\r\n" for c in sites)
    stamps = format_column(times)
    if stamps:  # with no time sample there is no row to refuse
        _plain(template, len(sites), len(header))

    def block(t, z):
        cells = [t] * (4 * len(z))
        cells[1::4], cells[2::4] = z.real.tolist(), z.imag.tolist()
        cells[3::4] = np.hypot(z.real, z.imag).tolist()
        return template % tuple(cells)
    return _write_blocks(path, header, map(block, stamps, values))


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
