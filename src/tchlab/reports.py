"""Serialization helpers for experiment outputs.

The CSV writers take numbers and print each as ``format(x, ".17g")``
would: doubles round-trip exactly and integers below 2**53 print the
digits of ``str``.  One numpy kernel, ``_cells``, prints a whole float64
column at once into 32-byte cells (see its docstring for why its digits are
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


# A cell of ``_cells`` is _CELL bytes in print order, four little-endian
# uint64 words; a 0 byte is no character.  Byte 0 is left to the caller (a
# separator).  Byte 1 holds the sign, bytes 2 to 6 "0." and zeros of a fixed
# value below 1, bytes 7 to 23 D's 17 digits, those after the point moved up
# a byte for it, and bytes 26 to 30 "e", the exponent's sign and digits.
_CELL = 32
_COLUMN_BLOCK = 2048  # cells per kernel call of format_column and write_csv: a bounded working set

_FAST_RANGE = (1e-250, 1e250)  # |x| where no product below under- or overflows
_MARGIN = 2.0**-30  # a fraction this near 1/2 is not trusted; k moves for y this far out
_SPLIT = 2.0**27 + 1.0  # Dekker's splitter for 53-bit doubles
_POW_LO = -240  # the tables hold 10**m for m in [_POW_LO, _POW_LO + 510]
# _eight_digits' steps split each lane's number n into n // 10**j, which is
# (n * multiplier) >> shift masked to the lane, and the rest moved up half a
# lane: (n << half) - (n // 10**j) * factor
_SWAR = ((109951163, 40, None, 32, (10**4 << 32) - 1),  # one lane: no mask
         (5243, 19, 0x0000007F0000007F, 16, (100 << 16) - 1),
         (103, 10, 0x000F000F000F000F, 8, (10 << 8) - 1))
# D's second half, plus its first / 2**64 and _BIAS below any digit, has a
# float exponent e whose (e + 7) >> 3 counts the second half's bytes up to its
# last nonzero one, or the first's less 8: D has 9 + that many digits, 0 one.
_BIAS = 2.0**-66


@functools.cache
def _tables():
    """Powers of ten, k's words and the layouts, built once on first use.

    Each 10**m is a pair: hi is 10**m correctly rounded to a double, lo the
    correctly rounded rest 10**m - hi, both from Python ints (int to float
    and int / int round correctly, and a division by a power of 2 is
    exact), so hi + lo is 10**m to about 2**-106 relative.  hi comes split
    into two 26-bit halves for Dekker's product.  Beside it, for k = 16 - m:
    word 3's "e", sign and exponent digits, and 8 (17 notation + 8) + 7,
    which (e + it) >> 3 turns into D's layout (see _BIAS).  A layout, of a
    notation (fixed at k in [-4, 16], exponent by its sign) and a digit
    count, masks the bytes of words 0 to 2 that stay and of words 1 and 2
    that move up past the point, and adds "0." and zeros, or the point."""
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
    powers = np.array((hi, lo, hi_top, hi - hi_top))

    k = 16 - np.arange(_POW_LO, _POW_LO + 511)
    notation = np.where(k < -4, 22, np.minimum(k + 4, 21))
    exponent = np.array([b"" if -4 <= e < 17 else b"\0\0e%+03d" % e for e in k.tolist()], "S8")
    scales = np.array((exponent.view(np.int64), 8 * (17 * notation + 8) + 7))

    notation, last = np.divmod(np.arange(23 * 17), 17)  # last: D's last nonzero digit
    before = np.where(notation < 21, notation - 3, 1)[:, None]  # digits before the point
    cut = np.where(notation < 4, 17, before[:, 0])[:, None]  # the first digit moved up a byte
    kept = np.maximum(last[:, None] + 1, before)
    j = np.arange(17)
    masks = np.zeros((3, len(notation), _CELL), np.uint8)  # stay, move; literals
    masks[0, :, 7:24] = (j < np.minimum(kept, cut)) * np.uint8(255)
    masks[1, :, 7:24] = ((j >= cut) & (j < kept)) * np.uint8(255)
    lead = np.where(notation < 4, 5 - notation, 0)[:, None]  # "0." and -1 - k zeros
    masks[2, :, 2:7] = (np.arange(5) < lead) * np.frombuffer(b"0.000", np.uint8)
    masks[2, :, 7:24] = ((j == cut) & (j <= last[:, None])) * np.uint8(ord("."))
    words = masks.view(np.int64)
    return powers, scales, np.concatenate((words[0, :, :3].T, words[1, :, 1:3].T, words[2, :, :3].T))


def _fallback(values) -> list[bytes]:
    """CPython's own conversion, for the values the kernel leaves out."""
    return [format(v, ".17g").encode() for v in values.tolist()]


def _eight_digits(q) -> np.ndarray:
    """Each int64 of q in [0, 10**8) as its eight decimal digits, one a byte
    and the first lowest, in place: the _SWAR steps split it into 4-digit
    lanes of 32 bits, 2-digit lanes of 16 bits and digit bytes."""
    for multiplier, shift, lanes, half, factor in _SWAR:
        quotient = (q * multiplier) >> shift
        if lanes:
            quotient &= lanes
        q <<= half
        q -= quotient * factor
    return q


def _cells(values) -> np.ndarray:
    """The ``format(x, ".17g")`` text of every element of a float64 column,
    as an (n, _CELL) uint8 array of cells (see _CELL).

    |x| = D 10**(k-16) with D = round(|x| 10**(16-k)) in [10**16, 10**17]:
    k starts from log10 and moves by one until the scaled value y lies
    within _MARGIN of [10**16, 10**17).  y is a double-double: Dekker's
    error-free product of |x| and hi (Dekker, Numer. Math. 18, 224 (1971))
    gives y's integer part p, even since p > 2**53, and the rest
    r = err + |x| lo, whose error is below 2**-46.  So the fraction of y,
    and with it the rounding of D (ties to even), is exact unless it lies
    within _MARGIN of 1/2; such values go to ``_fallback``, with every
    non-finite value and every |x| outside _FAST_RANGE but zero, which is
    written as D = 0 at k = 0.  At a decade edge either k gives the same
    text: a y just below 10**16 rounds to 10**16 at k, as 10 y rounds to
    10**17 at k - 1, and D = 10**17 is 10**16 at k + 1.

    D's lead digit and 8-digit halves become words of digit bytes
    (``_eight_digits``).  The halves' float bit length finds D's last
    nonzero digit, and with k's notation the layout, whose masks keep the
    digits up to that one or the point and move those after the point up a
    byte, across words, every op on contiguous word-major rows.  %g prints
    the digits before the point in fixed notation when -4 <= k < 17, else
    one digit and an exponent of at least two digits, and drops the
    fraction's trailing zeros."""
    x = np.asarray(values, dtype=float).reshape(-1)
    powers, scales, layouts = _tables()
    ax = np.abs(x)
    fast = (ax >= _FAST_RANGE[0]) & (ax <= _FAST_RANGE[1])  # NaN compares false
    a = np.where(fast, ax, 1.0)
    c = a * _SPLIT
    a_top = c - (c - a)
    a_low = a - a_top
    m = (16 - _POW_LO) - np.floor(np.log10(a)).astype(np.int64)  # the column of 10**(16-k)
    for attempt in range(3):  # log10 is off by one at most, at a decade edge
        hi, lo, top, low = np.take(powers, m, axis=1)
        p = a * hi
        r = (((a_top * top - p) + a_top * low + a_low * top) + a_low * low) + a * lo
        down, up = (p - 1e16) + r < -_MARGIN, (p - 1e17) + r >= _MARGIN
        outside = down | up
        if attempt == 2 or not outside.any():
            break
        m -= up
        m += down
    whole = np.floor(r)
    frac = r - whole
    fast &= ~outside & (np.abs(frac - 0.5) >= _MARGIN)
    d = (p * fast).astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    m -= carry

    # word-major rows: the cell's words 0 to 3, then its notation's layout
    w = np.empty((5, len(x)), np.int64)
    np.take(scales, m, axis=1, out=w[3:], mode="clip")
    top = np.divmod(d, 10**8, out=(None, w[2]))[0]
    np.divmod(top, 10**8, out=(w[0], w[1]))  # the lead digit lands in byte 7
    digits = _eight_digits(w[:3].reshape(-1))
    length = np.frexp(w[1] * 2.0**-64 + w[2] + _BIAS)[1]
    digits += 0x3030303030303030  # ASCII; the layout keeps which bytes print
    layout = np.take(layouts, (length + w[4]) >> 3, axis=1, mode="clip")
    move = layout[3:5] & w[1:3]
    w[:3] &= layout[:3]
    w[:3] |= layout[5:]
    w[2:4] |= move >> 56
    move <<= 8
    w[1:3] |= move
    w[0] |= np.signbit(x) * (ord("-") << 8)
    cells = np.ascontiguousarray(w[:4].T).view(np.uint8)
    slow = np.flatnonzero((x != 0.0) ^ fast)  # fast values are nonzero
    if len(slow):
        text = np.array(_fallback(x[slow]), dtype=f"S{_CELL - 1}")
        cells[slow, 0] = 0
        cells[slow, 1:] = text.view(np.uint8).reshape(-1, _CELL - 1)
    return cells


def _text(cells) -> bytes:
    """The characters of a uint8 cell array, row after row, as ASCII
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


def _plain(value):
    """``json.dumps``' hook for a value it has no form for: a numpy bool,
    integer or float scalar as the Python one, an array as its ``tolist``,
    a complex number as {"re": ..., "im": ...}, and TypeError otherwise."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_, np.integer)):
        return value.item()
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path, payload) -> Path:
    """Write ``payload`` as sorted JSON.  NaN and infinities are not JSON:
    they raise ValueError, and a value of a type JSON has no form for
    TypeError, before the file is opened, so no partial file is left."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_plain)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path
