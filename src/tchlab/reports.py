"""Serialization helpers for experiment outputs.

The CSV writers take numbers and print each as ``format(x, ".17g")``
would: doubles round-trip exactly and integers below 2**53 print the
digits of ``str``.  One numpy kernel, ``_cells``, computes those 17 digits
for a whole float64 column at once (see its docstring for why it is
exact), and ``format_column``, ``write_csv`` and ``write_grid_csv`` all
read their cells from it.  Tables are streamed as bytes: each block of
lines is a uint8 frame of cells, separators and line ends, whose 0 bytes
one ``bytes.translate`` pass drops, written in binary mode after the
header's UTF-8, so no text layer decodes or re-encodes it.  A number
never needs quoting, so only the header is checked for a field that would
(``,``, ``"``, ``\r``, ``\n``, ValueError); a cell that is not a number
raises TypeError and a row not as wide as the header ValueError, and no
file is left behind.  JSON summaries are sorted, restricted to plain types
and finite."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np


# A cell of ``_cells`` is _CELL bytes of slots in print order, and a 0 byte
# is no character.  Byte 0 is left to the caller (a separator).  Each digit
# has a slot before and one after the point, and the cell's layout keeps one
# of them or neither, so dropping the 0 bytes prints every notation.  The
# digit runs and the exponent digits are 4-byte words at word offsets.
_SIGN = 1
_ZERO = 2  # the "0" before the point of a fixed value below 1
_INT = 1  # word offset of 20 bytes: "000", then digit j at byte 7 + j
_POINT = 24
_LEAD = slice(25, 28)  # the zeros after the point of a fixed value below 0.1
_FRAC = 7  # word offset of 20 bytes: "000", then digit j at byte 31 + j
_EXP = 48  # "e", its sign, then the exponent digits at word offset 13
_CELL = 56
_COLUMN_BLOCK = 2048  # cells per kernel call of format_column and write_csv: a bounded working set

_FAST_RANGE = (1e-250, 1e250)  # |x| where no product below under- or overflows
_MARGIN = 2.0**-30  # a fraction this near 1/2 is not trusted; k moves for y this far out
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for 53-bit doubles
_POW_LO = -240  # the table holds 10**m for m in [_POW_LO, _POW_LO + 510]
# layouts: fixed notation by k in [-4, 16] and the digit count 1 to 17,
# then exponent notation by the exponent's sign and the digit count, then 0
_FIXED_LAYOUTS = 21 * 17
_ZERO_LAYOUT = _FIXED_LAYOUTS + 2 * 17
# D's digits before each of its 4-digit words; the first is "000" + D's lead
_DIGITS_BEFORE = np.array([-3, 1, 5, 9, 13])[:, None]


@functools.cache
def _tables():
    """Powers of ten, digit words and layouts, built once on first use.

    Each 10**m is a pair: hi is 10**m correctly rounded to a double, lo the
    correctly rounded rest 10**m - hi, both from Python ints (int to float
    and int / int round correctly, and a division by a power of 2 is
    exact), so hi + lo is 10**m to about 2**-106 relative.  hi comes split
    into two 26-bit halves for Dekker's product.  The words are the ASCII
    digits "0000" to "9999" as uint32, so that four digits are one lookup,
    with each word's count of digits up to its last nonzero one (-99 for
    "0000").  The exponent words hold |k|'s digits,
    the hundreds left out below 100.  Each layout is a mask of the bytes it
    keeps and the literal bytes it adds, as uint64 words."""
    hi, lo = [], []
    for m in range(_POW_LO, _POW_LO + 511):
        if m >= 0:
            hi.append(float(10**m))
            lo.append(float(10**m - int(hi[-1])))
        else:  # 10**m - a / b = (b - a 10**-m) / 10**-m / b, b a power of 2
            den = 10**-m
            hi.append(1 / den)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * den) / den / b)
    hi = np.array(hi)
    c = hi * _SPLIT
    hi_top = c - (c - hi)

    word = np.arange(10000, dtype=np.int16)
    text = np.empty((10000, 4), np.uint8)
    rest = word
    for place in range(3, -1, -1):
        rest, text[:, place] = np.divmod(rest, 10)
    text += ord("0")
    words = text.view(np.uint32)[:, 0]
    trailing_zeros = sum((word % 10**i == 0).astype(np.int16) for i in (1, 2, 3))  # but 0's
    significant = np.where(word > 0, 4 - trailing_zeros, -99)
    exponents = np.zeros((400, 4), np.uint8)
    exponents[:, :3] = text[:400, 1:]
    exponents[:100, 0] = 0

    # per layout: the digit count, and the last digit before the point
    layout = np.arange(_ZERO_LAYOUT + 1)
    n_digits = layout % 17 + 1
    point = np.where(layout < _FIXED_LAYOUTS, layout // 17 - 4, 0)[:, None]
    exp = (layout >= _FIXED_LAYOUTS) & (layout < _ZERO_LAYOUT)
    j = np.arange(17)
    keep = np.zeros((len(layout), _CELL), bool)
    keep[:, _SIGN] = True
    keep[:, 4 * _INT + 3:4 * _INT + 20] = j <= point
    keep[:, 4 * _FRAC + 3:4 * _FRAC + 20] = (j > point) & (j < n_digits[:, None])
    keep[:, _EXP + 4:] = exp[:, None]
    literal = np.zeros((len(layout), _CELL), np.uint8)
    literal[:, _ZERO] = (point[:, 0] < 0) * ord("0")
    literal[:, _POINT] = (n_digits > point[:, 0] + 1) * ord(".")
    literal[:, _LEAD] = (np.arange(3) < -1 - point) * ord("0")
    literal[exp, _EXP] = ord("e")
    literal[exp, _EXP + 1] = np.where(layout[exp] < _FIXED_LAYOUTS + 17, ord("+"), ord("-"))
    keep[-1, _SIGN + 1:] = literal[-1] = 0  # zero: its sign and "0"
    literal[-1, 4 * _INT + 3] = ord("0")
    keep = (keep * np.uint8(255)).view(np.uint64)
    powers = np.array((hi, lo, hi_top, hi - hi_top))
    return powers, words, significant, exponents.view(np.uint32)[:, 0], keep, literal.view(np.uint64)


def _fallback(values) -> list[bytes]:
    """CPython's own conversion, for the values the kernel leaves out."""
    return [format(v, ".17g").encode() for v in values.tolist()]


def _cells(values) -> np.ndarray:
    """The ``format(x, ".17g")`` text of every element of a float64 column,
    as an (n, _CELL) uint8 array of slots (see _CELL).

    |x| = D 10**(k-16) with D = round(|x| 10**(16-k)) in [10**16, 10**17]:
    k starts from log10 and moves by one until the scaled value y lies
    within _MARGIN of [10**16, 10**17).  y is a double-double: Dekker's
    error-free product of |x| and hi (Dekker, Numer. Math. 18, 224 (1971))
    gives y's integer part p, even since p > 2**53, and the rest
    r = err + |x| lo, whose error is below 2**-46.  So the fraction of y,
    and with it the rounding of D (ties to even), is exact unless it lies
    within _MARGIN of 1/2; such values go to ``_fallback``, with every
    non-finite value and every |x| outside _FAST_RANGE but zero, which is
    written directly.  At a decade edge either k gives the same text: a y
    just below 10**16 rounds to 10**16 at k, as 10 y rounds to 10**17 at
    k - 1, and D = 10**17 is 10**16 at k + 1.  D's digits come as 4-digit
    words (Adams, "Ryu revisited", OOPSLA 2019, prints fixed precision in
    digit blocks too).  %g prints the digits before the point in fixed
    notation when -4 <= k < 17, else one digit and an exponent of at least
    two digits, and drops the fraction's trailing zeros."""
    x = np.asarray(values, dtype=float).reshape(-1)
    powers, words, significant, exponents, keep, literal = _tables()
    ax = np.abs(x)
    fast = (ax >= _FAST_RANGE[0]) & (ax <= _FAST_RANGE[1])  # NaN compares false
    a = np.where(fast, ax, 1.0)
    c = a * _SPLIT
    a_top = c - (c - a)
    a_low = a - a_top
    k = np.floor(np.log10(a)).astype(np.int64)
    for attempt in range(3):  # log10 is off by one at most, at a decade edge
        hi, lo, top, low = np.take(powers, 16 - k - _POW_LO, axis=1)
        p = a * hi
        r = (((a_top * top - p) + a_top * low + a_low * top) + a_low * low) + a * lo
        down, up = (p - 1e16) + r < -_MARGIN, (p - 1e17) + r >= _MARGIN
        if attempt == 2 or not (down | up).any():
            break
        k += up
        k -= down
    whole = np.floor(r)
    frac = r - whole
    fast &= ~down & ~up & (np.abs(frac - 0.5) >= _MARGIN)
    d = np.where(fast, p, 1e16).astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry

    top, low = np.divmod(d, 10**8)
    lead, third = np.divmod(top, 10**4)
    quads = np.array((*np.divmod(lead, 10**4), third, *np.divmod(low, 10**4)))
    n_digits = (_DIGITS_BEFORE + np.take(significant, quads)).max(axis=0)
    layout = np.where((k >= -4) & (k < 17), (k + 4) * 17, _FIXED_LAYOUTS + 17 * (k < 0))
    layout += n_digits - 1
    layout[x == 0.0] = _ZERO_LAYOUT

    cells = np.empty((len(x), _CELL), np.uint8)  # no layout keeps a byte left unset
    wide = cells.view(np.uint32)
    digits = np.take(words, quads.T)
    wide[:, _INT:_INT + 5] = digits
    wide[:, _FRAC:_FRAC + 5] = digits
    wide[:, _EXP // 4 + 1] = np.take(exponents, np.abs(k))
    cells[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    wide = cells.view(np.uint64)
    wide &= np.take(keep, layout, axis=0)
    wide |= np.take(literal, layout, axis=0)
    slow = np.flatnonzero(~fast & (x != 0.0))
    if len(slow):
        text = np.array(_fallback(x[slow]), dtype=f"S{_CELL - 1}")
        cells[slow, 0] = 0
        cells[slow, 1:] = text.view(np.uint8).reshape(-1, _CELL - 1)
    return cells


def _text(cells) -> bytes:
    """The characters of a uint8 slot array, row after row, as ASCII
    bytes: one ``bytes.translate`` pass drops the 0 bytes."""
    return cells.tobytes().translate(None, b"\0")


def format_column(values) -> list[str]:
    """Every element of a numeric column as ``format(x, ".17g")`` prints it,
    as a list of str: bit-exact for doubles, the digits of ``str`` for
    integers below 2**53."""
    x = np.asarray(values, dtype=float).reshape(-1)
    column = []
    for start in range(0, len(x), _COLUMN_BLOCK):
        cells = _cells(x[start:start + _COLUMN_BLOCK])
        cells[:, 0] = ord("\n")
        column += _text(cells).decode().split("\n")[1:]
    return column


def _numbers(rows, width: int) -> np.ndarray:
    """A list of rows as a numeric (n, width) array: TypeError for a cell
    that is not a number and ValueError for a row of another width, read
    off the cells as given, before a float conversion could parse "0.25"."""
    table = np.array(rows) if len(rows) else np.empty((0, width))
    if table.dtype.kind not in "iuf":
        raise TypeError(f"CSV cells must be numbers, not {table.dtype}")
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"CSV rows of shape {table.shape[1:]} for a header of {width} fields")
    return table


def _lines(table: np.ndarray) -> bytes:
    """The CSV lines of a numeric table: a frame of its ``_cells``, each but
    the first after a comma in its byte 0, and the line ends."""
    frame = np.zeros((len(table), table.shape[1] * _CELL + 2), np.uint8)
    cells = frame[:, :-2].reshape(len(table), table.shape[1], _CELL)
    cells[...] = _cells(table).reshape(cells.shape)
    cells[:, 1:, 0] = ord(",")
    frame[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return _text(frame)


def _write_blocks(path, header, blocks) -> Path:
    """Write the header as UTF-8, refused before any file if a field needs
    quoting, then each block of lines, as bytes in binary mode.  On failure,
    no file."""
    line = ",".join(header)
    if line.count(",") != len(header) - 1 or any(c in line for c in '"\r\n'):
        raise ValueError(f"CSV header field needs quoting: {line[:200]!r}")
    head = (line + "\r\n").encode()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(head)
            fh.writelines(blocks)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` of numbers, consumed once by
    iteration, as ``_lines`` in blocks of at most _COLUMN_BLOCK cells."""
    table = _numbers(list(rows), len(header))
    step = max(1, _COLUMN_BLOCK // len(header))
    return _write_blocks(path, header, map(_lines, np.split(table, range(step, len(table), step))))


def write_grid_csv(path, header, times, sites, values) -> Path:
    """Rows (time, *site cells, re, im, abs) of a complex (time x site) grid,
    time-major, from numeric times and site columns (one per header field
    between the time and re, im, abs, refused as ``write_csv`` refuses
    rows), formatted once.  Each time sample is one block: a uint8 matrix
    of one row per site, holding the time's text in a slot as wide as the
    longest time's, the site's cells, the ``_cells`` of the row-major
    (site, (re, im, abs)) array and the separators, whose 0 bytes ``_text``
    drops before it is written.  A block of another width than the sites
    raises TypeError."""
    stamps = np.array(format_column(times), dtype=bytes)
    slot = stamps.dtype.itemsize
    lines = _lines(_numbers(np.transpose(sites), len(header) - 4)).split(b"\r\n")[:-1]
    site_cells = np.array([b"," + line for line in lines], dtype=bytes)
    width = site_cells.dtype.itemsize
    n_sites = len(site_cells)
    # one buffer for every block: the time's slot, each site's cells after
    # their commas, re, im and abs each after a comma in its byte 0, the line
    # end
    frame = np.zeros((n_sites, slot + width + 3 * _CELL + 2), np.uint8)
    frame[:, slot:slot + width] = site_cells.view(np.uint8).reshape(n_sites, width)
    frame[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    numbers = frame[:, slot + width:-2].reshape(n_sites, 3, _CELL)

    def block(stamp, z):
        z = np.asarray(z)
        if z.shape != (n_sites,):
            raise TypeError(f"a block of shape {z.shape} for {n_sites} sites")
        frame[:, :slot] = stamp
        cells = _cells(np.column_stack((z.real, z.imag, np.hypot(z.real, z.imag))))
        numbers[...] = cells.reshape(n_sites, 3, _CELL)
        numbers[:, :, 0] = ord(",")
        return _text(frame)
    return _write_blocks(path, header, map(block, stamps.view(np.uint8).reshape(-1, slot), values))


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
