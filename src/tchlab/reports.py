"""Serialization helpers for experiment outputs.

The CSV writers take numbers and print each as ``format(x, ".17g")``
would: doubles round-trip exactly and integers below 2**53 print the
digits of ``str``.  One numpy kernel, ``_cells``, prints a whole float64
column at once into 32-byte cells (see its docstring for why its digits are
exact), and ``format_column``, ``write_csv`` and ``grid_writer`` all
read their cells from it.  A complex (time x site) grid has one writer,
``grid_writer``, fed one time's row at a time, so no grid is held whole
and a grid left short of its times is refused.  Tables are streamed as
bytes: each block of lines is a frame of int64 words holding cells,
separators and line ends, whose 0 bytes one ``translate`` pass drops,
written in binary mode after the header's UTF-8, so no text layer decodes
or re-encodes it.  A number
never needs quoting, so only the header is checked for a field that would
(``,``, ``"``, ``\r``, ``\n``, ValueError); a cell that is not a number
raises TypeError and a row not as wide as the header ValueError, and no
file is left behind.  JSON summaries are sorted, restricted to plain types
and finite."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from pathlib import Path

import numpy as np


# A cell of ``_cells`` is _CELL bytes in print order, four little-endian
# uint64 words; a 0 byte is no character.  Byte 0 holds the caller's
# separator.  Byte 1 holds the sign, bytes 2 to 6 "0." and zeros of a fixed
# value below 1, bytes 7 to 23 D's 17 digits, those after the point moved up
# a byte for it, and bytes 26 to 30 "e", the exponent's sign and digits.
_CELL = 32
_WORDS = _CELL // 8
_WORK_ROWS = 13  # _cells' work rows: the words, a layout index and the layout's 8 rows
_LINE_END = np.frombuffer(b"\r\n".ljust(8, b"\0"), np.int64)[0]  # the word that ends a line
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


def _eight_digits(q, quotient=None) -> np.ndarray:
    """Each int64 of q in [0, 10**8) as its eight decimal digits, one a byte
    and the first lowest, in place: the _SWAR steps split it into 4-digit
    lanes of 32 bits, 2-digit lanes of 16 bits and digit bytes.  The
    quotients go to ``quotient``, an int64 array of q's shape, if given."""
    quotient = np.empty_like(q) if quotient is None else quotient
    for multiplier, shift, lanes, half, factor in _SWAR:
        np.multiply(q, multiplier, out=quotient)
        quotient >>= shift
        if lanes:
            quotient &= lanes
        q <<= half
        quotient *= factor
        q -= quotient
    return q


def _cells(values, sep: int = 0, out=None) -> np.ndarray:
    """The ``format(x, ".17g")`` text of every element of a float64 column,
    as a (4, n) int64 array of word rows: column j holds cell j's four
    words (see _CELL), with the byte ``sep`` in byte 0: the first rows of
    a (_WORK_ROWS, n) work array, which ``out``, a C-ordered one, provides
    in place of a new one.

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

    D's lead digit goes to byte 7 of word 0 and its 8-digit halves become
    words of digit bytes (``_eight_digits``).  The halves' float bit length
    finds D's last nonzero digit, and with k's notation the layout, whose
    masks keep the digits up to that one or the point and move those after
    the point up a byte, across words, every op on contiguous word-major
    rows.  Every step writes into the work rows, so a call allocates only a
    few small temporaries beside them.  %g prints
    the digits before the point in fixed notation when -4 <= k < 17, else
    one digit and an exponent of at least two digits, and drops the
    fraction's trailing zeros."""
    x = np.asarray(values, dtype=float).reshape(-1)
    powers, scales, layouts = _tables()
    w = np.empty((_WORK_ROWS, len(x)), np.int64) if out is None else out
    # the scaling runs in place, on w's rows read as doubles: |x|, its two
    # halves, p, r, the four powers and a spare; then k's column m and D
    f = w.view(np.float64)
    a, a_top, a_low, p, r, spare = f[0], f[1], f[2], f[3], f[4], f[9]
    m, d = w[10], w[11]
    np.abs(x, out=a)
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])  # NaN compares false
    np.copyto(a, 1.0, where=~fast)
    np.multiply(a, _SPLIT, out=a_top)
    np.subtract(a_top, a, out=a_low)
    a_top -= a_low
    np.subtract(a, a_top, out=a_low)
    m[:] = np.floor(np.log10(a, out=spare), out=spare)
    np.subtract(16 - _POW_LO, m, out=m)  # the column of 10**(16-k)
    for attempt in range(3):  # log10 is off by one at most, at a decade edge
        hi, lo, top, low = np.take(powers, m, axis=1, out=f[5:9], mode="clip")
        np.multiply(a, hi, out=p)
        np.multiply(a_top, top, out=r)
        r -= p
        r += np.multiply(a_top, low, out=spare)
        r += np.multiply(a_low, top, out=spare)
        r += np.multiply(a_low, low, out=spare)
        r += np.multiply(a, lo, out=spare)
        np.subtract(p, 1e16, out=spare)
        down = (spare + r) < -_MARGIN
        np.subtract(p, 1e17, out=spare)
        up = (spare + r) >= _MARGIN
        outside = down | up
        if attempt == 2 or not outside.any():
            break
        m -= up
        m += down
    whole = np.floor(r, out=spare)
    frac = np.subtract(r, whole, out=r)
    fast &= ~outside & (np.abs(frac - 0.5) >= _MARGIN)
    p *= fast
    d[:] = p
    w[12] = whole
    d += w[12]
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    m -= carry

    # word-major rows: the cell's words 0 to 3, its layout's index, its layout
    np.take(scales, m, axis=1, out=w[3:5], mode="clip")
    top = np.divmod(d, 10**8, out=(w[5], w[2]))[0]
    np.divmod(top, 10**8, out=(w[0], w[1]))
    w[0] <<= 56  # the lead digit, below 10, in byte 7
    _eight_digits(w[1:3].reshape(-1), w[5:7].reshape(-1))
    bits = np.multiply(w[1], 2.0**-64, out=f[6])
    bits += w[2]
    bits += _BIAS
    length = np.frexp(bits, out=(bits, None))[1]
    w[:3] += 0x3030303030303030  # ASCII; the layout keeps which bytes print
    layout = np.take(layouts, (length + w[4]) >> 3, axis=1, mode="clip", out=w[5:])
    move = np.bitwise_and(layout[3:5], w[1:3], out=layout[3:5])
    w[:3] &= layout[:3]
    w[:3] |= layout[5:]
    w[2:4] |= np.right_shift(move, 56, out=layout[:2])
    move <<= 8
    w[1:3] |= move
    w[0] |= sep
    np.bitwise_or(w[0], ord("-") << 8, out=w[0], where=np.signbit(x))
    slow = np.flatnonzero((x != 0.0) ^ fast)  # fast values are nonzero
    if len(slow):
        cells = np.zeros((len(slow), _CELL), np.uint8)
        cells[:, 0] = sep
        text = np.array(_fallback(x[slow]), dtype=f"S{_CELL - 1}")
        cells[:, 1:] = text.view(np.uint8).reshape(-1, _CELL - 1)
        w[:4, slow] = cells.view(np.int64).T
    return w[:4]


def _text(frame) -> bytes:
    """The characters of an array's bytes, in C order, as ASCII bytes: one
    ``bytes.translate`` pass drops the 0 bytes."""
    return frame.tobytes().translate(None, b"\0")


def format_column(values) -> list[str]:
    """Every element of a numeric column as ``format(x, ".17g")`` prints it,
    as a list of str: bit-exact for doubles, the digits of ``str`` for
    integers below 2**53."""
    x = np.asarray(values, dtype=float).reshape(-1)
    column = []
    for start in range(0, len(x), _COLUMN_BLOCK):
        words = _cells(x[start:start + _COLUMN_BLOCK], ord("\n"))
        column += _text(words.T).decode().split("\n")[1:]
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
    """The CSV lines of a numeric table: a frame of int64 words holding its
    ``_cells``, each after a comma in its byte 0 but the first of a line,
    and a line-end word."""
    rows, width = table.shape
    frame = np.empty((rows, width * _WORDS + 1), np.int64)
    cells = frame[:, :-1].reshape(rows, width, _WORDS)
    cells[...] = _cells(table, ord(",")).reshape(_WORDS, rows, width).transpose(1, 2, 0)
    cells[:, :1, 0] ^= ord(",")
    frame[:, -1] = _LINE_END
    return _text(frame)


@contextlib.contextmanager
def _csv_file(path, header):
    """A file opened in binary mode that holds the header as UTF-8, refused
    before any file if a field needs quoting.  If the with block raises,
    the file is removed, and so are the directories made for it."""
    line = ",".join(header)
    if line.count(",") != len(header) - 1 or any(c in line for c in '"\r\n'):
        raise ValueError(f"CSV header field needs quoting: {line[:200]!r}")
    head = (line + "\r\n").encode()
    path = Path(path)
    made = list(itertools.takewhile(lambda folder: not folder.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "wb") as fh:
            fh.write(head)
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        for folder in made:  # deepest first, up to one that holds another file
            try:
                folder.rmdir()
            except OSError:
                break
        raise


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` of numbers, consumed once by
    iteration, as ``_lines`` in blocks of at most _COLUMN_BLOCK cells (see
    ``_csv_file``)."""
    table = _numbers(list(rows), len(header))
    step = max(1, _COLUMN_BLOCK // len(header))
    with _csv_file(path, header) as fh:
        fh.writelines(map(_lines, np.split(table, range(step, len(table), step))))
    return Path(path)


@contextlib.contextmanager
def grid_writer(paths, headers, times, sites):
    """Files of rows (time, *site cells, re, im, abs) of complex (time x site)
    grids, time-major, one per path and header, on the same numeric times
    and site columns (one per header field between the time and re, im,
    abs, refused as ``write_csv`` refuses rows), fed one time at a time:
    yields a function that takes the next time's row of sites for each
    file, in order, and writes each as one block of lines.  A row of
    another width than the sites raises TypeError.  A row past the last
    time raises ValueError, and so does a with block that ends before
    every time has its row.  Headers of different widths are refused
    before any file.  If the with block raises, every file is removed, and
    so are the directories made for them (see ``_csv_file``).

    The site columns are formatted once.  Every row is printed into one
    frame of int64 words, a row per site: the time's slot, as wide as the
    longest time stamp, the site's cells after their commas, 0 bytes up to
    a word edge, the re, im and abs cells and a line-end word.  The
    ``_cells`` of the row's re, im and abs, one column in that order, are
    assigned into it transposed, each after a comma in its byte 0, and one
    ``bytearray.translate`` pass over the frame's own bytes drops the 0
    bytes.  The frame, the column and the kernel's work rows are allocated
    once."""
    if len({len(header) for header in headers}) != 1:
        raise ValueError("grid headers of different widths")
    stamps = np.array(format_column(times), dtype=bytes)
    slot = stamps.dtype.itemsize
    lines = _lines(_numbers(np.transpose(sites), len(headers[0]) - 4)).split(b"\r\n")[:-1]
    site_cells = np.array([b"," + line for line in lines], dtype=bytes)
    width = site_cells.dtype.itemsize
    n_sites = len(site_cells)
    lead = -(-(slot + width) // 8)  # the words before the numbers
    shape = (n_sites, lead + 3 * _WORDS + 1)
    buffer = bytearray(8 * shape[0] * shape[1])
    frame = np.frombuffer(buffer, np.int64).reshape(shape)
    text = frame.view(np.uint8)
    text[:, slot:slot + width] = site_cells.view(np.uint8).reshape(n_sites, width)
    frame[:, -1] = _LINE_END
    numbers = frame[:, lead:-1].reshape(n_sites, 3, _WORDS)
    column = np.empty((3, n_sites))
    work = np.empty((_WORK_ROWS, 3 * n_sites), np.int64)
    pending = iter(stamps.view(np.uint8).reshape(-1, slot))
    with contextlib.ExitStack() as files:
        handles = [files.enter_context(_csv_file(path, header))
                   for path, header in zip(paths, headers, strict=True)]

        def write(*rows):
            stamp = next(pending, None)
            if stamp is None:
                raise ValueError(f"a row past the grid's {len(stamps)} times")
            text[:, :slot] = stamp
            for fh, z in zip(handles, rows, strict=True):
                z = np.asarray(z)
                if z.shape != (n_sites,):
                    raise TypeError(f"a row of shape {z.shape} for {n_sites} sites")
                column[0] = z.real
                column[1] = z.imag
                np.hypot(z.real, z.imag, out=column[2])
                words = _cells(column, ord(","), out=work)
                numbers[...] = words.reshape(_WORDS, 3, n_sites).transpose(2, 1, 0)
                fh.write(buffer.translate(None, b"\0"))
        yield write
        missing = sum(1 for _ in pending)
        if missing:
            raise ValueError(f"{len(stamps) - missing} of the grid's {len(stamps)} time rows "
                             "written")


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
