import csv
import json
import math
import struct
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import jsonable, walk_grids, write_csv_loop
from tchlab import reports
from tchlab.reports import format_column, grid_writer, write_csv, write_json
from tchlab.walk import WalkConfig

finite = st.floats(allow_nan=False, allow_infinity=False)
# integers are exact as doubles up to 2**53; np.float64 must format like a float
cells = st.one_of(st.integers(-(2**53), 2**53), finite, finite.map(np.float64))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@given(finite)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_float_cells_round_trip_bit_for_bit(x):
    for column in ([x], [np.float64(x)], np.array([x])):
        assert _bits(float(format_column(column)[0])) == _bits(x)


@given(finite)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
def test_percent_and_format_give_the_same_17_digits(x):
    # the kernel's cells are the text of both CPython conversions
    assert format_column([x])[0] == "%.17g" % x == format(x, ".17g")


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@example([0x7FF8000000000001, 0xFFF8000000000000, 0xFFF0000000000000, 1, 0x800FFFFFFFFFFFFF])
def test_cells_print_every_bit_pattern_as_format_does(patterns):
    # every double, NaN payloads, infinities and subnormals included, in
    # columns that mix the kernel's fast path and its fallback
    values = [_double(b) for b in patterns]
    assert format_column(values) == [format(v, ".17g") for v in values]
    assert format_column(np.array(values)) == [format(v, ".17g") for v in values]


def _ulp_neighbours(x, n):
    """x and its n nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


EDGES = {
    # log10 and the decade of the scaled value turn at these
    "powers of ten within 2 ulp": [y for e in range(-323, 309) for y in _ulp_neighbours(10.0**e, 2)],
    # exact decimal ties at 17 digits (odd multiples of 2**-17 near 1, with
    # 18 significant digits ending in 5), and ties at fewer digits
    "ties": [0.5, 2.5, 9999999999999999.5, 0.125, 1.5e-5, 2.5e16]
            + [(2**17 + 2 * i + 1) / 2**17 for i in range(64)]
            + [(2**17 + 2 * i + 1) * 2.0**-90 for i in range(64)],
    "zeros, subnormals and extremes": [0.0, 5e-324, 1e-323, 2.2250738585072009e-308,
                                       2.2250738585072014e-308, 1e-250, 1e250,
                                       1.7976931348623157e308],
    # where %g switches between fixed and exponent notation
    "notation edges": [1e-5, 9.9999999999999991e-6, 1e-4, 9.9999999999999991e-5, 0.001,
                       1e16, 99999999999999984.0, 1e17, 123456789012345678.0, 2.0**53, 2.0**63,
                       0.1, 1.0 / 3.0, 2.0 / 3.0, 100.0, 1234.5],
}


@pytest.mark.parametrize("name", EDGES)
def test_cells_match_format_on_edges(name):
    values = np.array(EDGES[name])
    values = np.concatenate([values, -values])  # -0.0 with 0.0
    assert format_column(values) == [format(v, ".17g") for v in values.tolist()]


def _odd_bits(x: float) -> int:
    """Bits of x's significand without its trailing zeros."""
    n = abs(x.as_integer_ratio()[0])
    return (n // (n & -n)).bit_length() if n else 0


def test_power_table_is_correctly_rounded_and_split():
    # the kernel's exactness rests on hi and lo being 10**m and the rest,
    # each correctly rounded, and on hi's halves multiplying exactly
    powers = reports._tables()[0]
    for i, m in enumerate(range(reports._POW_LO, reports._POW_LO + powers.shape[1])):
        hi, lo, top, low = map(float, powers[:, i])
        exact = Fraction(10) ** m
        assert hi == float(exact) and lo == float(exact - Fraction(hi))
        assert top + low == hi and _odd_bits(top) <= 26 and _odd_bits(low) <= 26


def _decimal(exponents, n: int) -> str:
    """The first of a fixed run of n-digit decimals, last digit nonzero, at
    one of the exponents that is the ``%.17g`` text of its own double."""
    for k in exponents:
        for i in range(300):
            digits = str(10**(n - 1) + (31415926535897932 + 982451653 * i) % (9 * 10**(n - 1)))
            text = f"{digits[0]}.{digits[1:]}e{k}" if n > 1 else f"{digits}e{k}"
            printed = format(float(text), ".17g").split("e")[0].replace(".", "")
            if digits[-1] != "0" and printed.strip("0") == digits:
                return text
    raise AssertionError(f"no {n}-digit decimal at the exponents {exponents}")


# every layout of the kernel: fixed notation at k = -4 to 16, exponent
# notation of either sign (two- and three-digit exponents), 1 to 17 digits
LAYOUT_VALUES = [_decimal([k], n) for k in range(-4, 17) for n in range(1, 18)] + [
    _decimal(range(k, k + 6), n) for n in range(1, 18) for k in (-23 - 12 * n, 5 + 12 * n)]


def test_every_layout_prints_as_format_does():
    values = [float(text) for text in LAYOUT_VALUES] + [0.0, -0.0]
    values += [-v for v in values]
    expected = [format(v, ".17g") for v in values]
    assert format_column(values) == expected
    # the decimals cover every notation (k, or the exponent's sign) and digit count
    layouts = {(k if -4 <= k < 17 else "+-"[k < 0], len(d.as_tuple().digits))
               for d in map(Decimal, LAYOUT_VALUES) for k in [d.adjusted()]}
    assert len(layouts) == len(LAYOUT_VALUES) == (21 + 2) * 17


def test_eight_digit_split_matches_percent_08d_at_its_edges():
    edges = sorted({0, 1, 9999, 10000, 99999999}
                   | {10**j for j in range(8)} | {10**j - 1 for j in range(1, 9)})
    words = reports._eight_digits(np.array(edges, dtype=np.int64))
    text = (words.view(np.uint8).reshape(-1, 8) + ord("0")).tobytes()
    assert text == b"".join(b"%08d" % v for v in edges)


@pytest.mark.parametrize("origin", [None, 700])
def test_the_walk_grid_never_takes_the_fallback(tmp_path, monkeypatch, origin):
    # the kernel's fast path prints every cell of a 1024-cavity walk; a
    # slide onto CPython's conversion fails here, not only in a benchmark
    slow = []

    def counted(values):
        slow.extend(values.tolist())
        return fallback(values)

    fallback = reports._fallback
    monkeypatch.setattr(reports, "_fallback", counted)
    config = WalkConfig(n_cavities=1024, origin=origin)
    amplitudes, kernel, _ = walk_grids(config)
    sites = (np.arange(1024), config.positions)
    for name, values in (("amplitude", amplitudes), ("kernel", kernel)):
        _write_grid(tmp_path / f"{name}.csv", GRID_HEADER, config.times, sites, values)
    assert slow == []
    # the count sees the fallback when it is taken: NaN and an exact tie
    tie = (2**17 + 1) / 2**17
    assert format_column([1.0, math.nan, tie]) == ["1", "nan", "1.0000076293945312"]
    assert slow[0] != slow[0] and slow[1:] == [tie]


@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(cells, min_size=width, max_size=width), max_size=20)))
@example([[0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308]])
@example([[np.float64(-0.0), -7, 1.7976931348623157e308]])
@example([[2**53, -(2**53), 2**53 - 1]])
@example([])
def test_csv_file_round_trips_every_cell(rows):
    header = [f"c{j}" for j in range(len(rows[0]))] if rows else ["a", "b"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "table.csv", header, rows)
        data = path.read_bytes()
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
    assert parsed[0] == header
    assert len(parsed) == len(rows) + 1
    for row, cells_back in zip(rows, parsed[1:]):
        assert len(cells_back) == len(row)
        for value, cell in zip(row, cells_back):
            if isinstance(value, int):
                assert cell == str(value)
            else:
                assert _bits(float(cell)) == _bits(value)
    # every line, the header included, ends in \r\n and no bare \n appears
    assert data.endswith(b"\r\n")
    assert data.count(b"\n") == data.count(b"\r\n") == len(rows) + 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, object(),
                                   np.float32("nan"), complex(1.0, math.inf),
                                   np.array([1.0, -math.inf]), {1j}])
def test_json_rejects_non_finite_floats_before_writing(tmp_path, value):
    # an object JSON has no form for is refused too, not written as its repr
    path = tmp_path / "out" / "summary.json"
    numbers = (float, np.floating, complex, np.ndarray)
    with pytest.raises(ValueError if isinstance(value, numbers) else TypeError):
        write_json(path, {"ok": 1.0, "nested": [{"bad": value}]})
    assert not path.exists()


# every kind of value a summary holds: plain and numpy scalars, complex
# numbers, arrays, tuples and nested lists and dicts
_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)
json_payloads = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=4), finite, st.integers(-2**63, 2**63 - 1),
        st.booleans().map(np.bool_), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.integers(-2**31, 2**31 - 1).map(np.int32), finite.map(np.float64),
        st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
        _complex, _complex.map(np.complex128),
        st.complex_numbers(width=64, allow_nan=False, allow_infinity=False).map(np.complex64),
        st.lists(finite, max_size=3).map(np.array), st.lists(_complex, max_size=3).map(np.array),
    ),
    lambda children: st.one_of(st.lists(children, max_size=3), st.tuples(children, children),
                               st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=12,
)


@given(json_payloads)
@example({"phases": {"00": 1 + 0j, "11": np.complex128(-1 + 1e-8j)}, "grid": np.eye(2),
          "best": (np.int64(4), np.float64(0.1)), "dark": np.bool_(True)})
def test_json_writer_writes_the_text_of_the_plain_copy(payload):
    # the default= hook writes what json.dumps writes for the plain-typed
    # copy of the payload, byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(Path(tmp) / "summary.json", payload)
        expected = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
        assert path.read_bytes() == (expected + "\n").encode()


def test_csv_writer_consumes_a_one_pass_generator(tmp_path):
    rows = ((i, i / 4.0) for i in range(3))
    path = write_csv(tmp_path / "gen.csv", ("i", "x"), rows)
    assert path.read_bytes() == b"i,x\r\n0,0\r\n1,0.25\r\n2,0.5\r\n"
    assert next(rows, None) is None


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
@pytest.mark.parametrize("where", ["header"])
def test_csv_cell_that_needs_quoting_is_refused_without_a_file(tmp_path, char, where):
    # a number never needs quoting, so only the header can hold such a field
    header, rows = ("a", f"b{char}c"), [(1, 2)]
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="quoting"):
        write_csv(path, header, rows)
    assert not path.exists()


@pytest.mark.parametrize("cell", ["1", "2.0", "0.25", None, b"x"])
@pytest.mark.parametrize("where", ["first row", "later row"])
def test_csv_cell_that_is_not_a_number_is_refused_without_a_file(tmp_path, cell, where):
    # text that reads as a number is still text: it is refused, not parsed
    good = (1, 2.0)
    rows = [(1, cell)] if where == "first row" else [good] * 5000 + [(1, cell)]
    path = tmp_path / "table.csv"
    with pytest.raises(TypeError):
        write_csv(path, ("a", "b"), rows)
    assert not path.exists()


@pytest.mark.parametrize("rows", [
    [(1, 2, 3), (4,)],  # wider, then narrower than the header
    [(1, 2)] * 5000 + [(3,)],
    [(1, 2, 3), (4, 5, 6)],  # every row too wide: no reshape may reflow them
])
def test_csv_row_not_as_wide_as_the_header_is_refused_without_a_file(tmp_path, rows):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), rows)
    assert not path.exists()


GRID_HEADER = ("time", "cavity", "position", "re", "im", "abs")


def _write_grid(path, header, times, sites, values):
    """One grid file through ``grid_writer``, a row of ``values`` per time."""
    with grid_writer([path], [header], times, sites) as write:
        for z in values:
            write(z)
    return Path(path)
# signed zeros, subnormals and the extremes next to ordinary values
grid_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    finite,
)


@st.composite
def grids(draw):
    n_sites, n_times = draw(st.integers(2, 16)), draw(st.integers(2, 5))
    entries = st.lists(grid_entries, min_size=n_sites * n_times, max_size=n_sites * n_times)
    re = np.array(draw(entries)).reshape(n_times, n_sites)
    im = np.array(draw(entries)).reshape(n_times, n_sites)
    times = np.array(draw(st.lists(grid_entries, min_size=n_times, max_size=n_times)))
    positions = np.array(draw(st.lists(grid_entries, min_size=n_sites, max_size=n_sites)))
    return times, positions, re + 1j * im


# times of 1, 2, 19, 23 and 24 characters in one grid: every stamp but the
# longest leaves 0 bytes in its slot
STAMP_WIDTHS = (np.array([0.0, -0.0, 0.1, 5e-324, -2.2250738585072014e-308]),
                np.array([1.0, -0.0, 2.5]),
                np.arange(15.0).reshape(5, 3) - 1j * np.arange(15.0).reshape(5, 3) / 7)


@pytest.mark.filterwarnings("ignore:overflow encountered")  # |z| of the extremes is inf
@given(grids())
@example((np.array([0.0, -0.0]), np.array([-0.0, 5e-324]),
          np.array([[-0.0 - 0.0j, 5e-324 + 1j], [-5e-324j, -0.0 + 5e-324j]])))
@example(STAMP_WIDTHS)
@example((np.array([0.5]), np.array([-3.0]), np.array([[0.25 - 1j]])))  # one site, one time
def test_grid_writer_matches_the_per_cell_writer(grid):
    times, positions, values = grid
    with tempfile.TemporaryDirectory() as tmp:
        sites = (np.arange(values.shape[1]), positions)
        path = _write_grid(Path(tmp) / "grid.csv", GRID_HEADER, times, sites, values)
        rows = [(t, q, x, z.real, z.imag, abs(z))
                for t, row in zip(times, values) for q, (x, z) in enumerate(zip(positions, row))]
        reference = write_csv_loop(Path(tmp) / "loop.csv", GRID_HEADER, rows)
        assert path.read_bytes() == reference.read_bytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")  # |z| of the extremes is inf
@given(grids())
@example(STAMP_WIDTHS)
def test_grid_file_holds_no_zero_byte_and_one_crlf_line_per_cell(grid):
    times, positions, values = grid
    with tempfile.TemporaryDirectory() as tmp:
        sites = (np.arange(values.shape[1]), positions)
        data = _write_grid(Path(tmp) / "grid.csv", GRID_HEADER, times, sites, values).read_bytes()
    assert b"\0" not in data
    lines = data.split(b"\r\n")
    assert lines[-1] == b"" and len(lines) - 1 == values.size + 1
    assert b"\n" not in b"".join(lines) and b"\r" not in b"".join(lines)


def test_grid_writer_removes_the_partial_file_when_the_stream_fails(tmp_path):
    sites = (np.arange(64), np.arange(64.0))

    def values():  # enough blocks to reach the disk before the failure
        yield from np.ones((50, 64), complex)
        raise RuntimeError("stream broke")

    path = tmp_path / "grid.csv"
    with pytest.raises(RuntimeError, match="stream broke"):
        _write_grid(path, GRID_HEADER, np.arange(60.0), sites, values())
    assert not path.exists()


def test_grid_writer_feeds_several_files_and_removes_them_when_the_block_fails(tmp_path):
    times, sites = np.arange(3.0), (np.arange(4), np.arange(4.0) / 2)
    values = np.arange(12.0).reshape(3, 4) * (1 - 0.5j)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    headers = [GRID_HEADER, GRID_HEADER[:3] + ("x", "y", "z")]
    with grid_writer(paths, headers, times, sites) as write:
        for z in values:
            write(z, -z)
    for path, grid in zip(paths, (values, -values)):
        reference = _write_grid(tmp_path / "ref.csv", GRID_HEADER, times, sites, grid)
        assert path.read_bytes().split(b"\r\n")[1:] == reference.read_bytes().split(b"\r\n")[1:]
    assert paths[1].read_bytes().startswith(b"time,cavity,position,x,y,z\r\n")
    # a row past the last time raises, and neither file is left
    out = tmp_path / "new" / "dir"
    with pytest.raises(ValueError, match="past the grid's 3 times"):
        with grid_writer([out / "a.csv", out / "b.csv"], [GRID_HEADER] * 2, times, sites) as write:
            for z in np.ones((4, 4)):
                write(z, z)
    assert not (tmp_path / "new").exists()
    # so does a block that ends before every time has its row
    with pytest.raises(ValueError, match="1 of the grid's 3 time rows written"):
        with grid_writer([out / "a.csv", out / "b.csv"], [GRID_HEADER] * 2, times, sites) as write:
            write(values[0], values[0])
    assert not (tmp_path / "new").exists()
    with pytest.raises(ValueError, match="different widths"):
        with grid_writer(paths, [GRID_HEADER, GRID_HEADER[:5]], times, sites):
            pass


@pytest.mark.parametrize("sites, error", [
    ((["0", "1"], [0.0, 1.0]), TypeError),  # text that reads as a number is still text
    (([0, 1], [0.0, None]), TypeError),
    (([0, 1],), ValueError),  # one site column for a header of two
    (([0, 1], [0.0, 1.0], [2.0, 3.0]), ValueError),
    (([0, 1], [0.0]), ValueError),  # columns of unequal length
])
def test_grid_site_columns_that_are_not_numbers_or_do_not_fit_are_refused_without_a_file(
        tmp_path, sites, error):
    path = tmp_path / "grid.csv"
    with pytest.raises(error):
        _write_grid(path, GRID_HEADER, [0.0], sites, np.ones((1, 2), complex))
    assert not path.exists()


def test_grid_with_fewer_sites_than_columns_is_refused_without_a_file(tmp_path):
    path = tmp_path / "grid.csv"
    with pytest.raises(TypeError):
        _write_grid(path, GRID_HEADER, [0.0], ([0], [0.0]), np.ones((1, 2), complex))
    assert not path.exists()
