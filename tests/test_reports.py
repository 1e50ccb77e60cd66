import csv
import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import write_csv_loop
from tchlab import WalkConfig, simulate_walk, reports
from tchlab.reports import format_column, write_csv, write_grid_csv, write_json

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
    result = simulate_walk(WalkConfig(n_cavities=1024, origin=origin))
    sites = (np.arange(1024), result.positions)
    for name, values in (("amplitude", result.amplitudes), ("kernel", result.kernel)):
        write_grid_csv(tmp_path / f"{name}.csv", GRID_HEADER, result.times, sites, values)
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats_before_writing(tmp_path, value):
    path = tmp_path / "out" / "summary.json"
    with pytest.raises(ValueError):
        write_json(path, {"ok": 1.0, "nested": [{"bad": value}]})
    assert not path.exists()


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
        path = write_grid_csv(Path(tmp) / "grid.csv", GRID_HEADER, times, sites, values)
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
        data = write_grid_csv(Path(tmp) / "grid.csv", GRID_HEADER, times, sites, values).read_bytes()
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
        write_grid_csv(path, GRID_HEADER, np.arange(60.0), sites, values())
    assert not path.exists()


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
        write_grid_csv(path, GRID_HEADER, [0.0], sites, np.ones((1, 2), complex))
    assert not path.exists()


def test_grid_with_fewer_sites_than_columns_is_refused_without_a_file(tmp_path):
    path = tmp_path / "grid.csv"
    with pytest.raises(TypeError):
        write_grid_csv(path, GRID_HEADER, [0.0], ([0], [0.0]), np.ones((1, 2), complex))
    assert not path.exists()
