import csv
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import write_csv_loop
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
    # write_grid_csv fills a %.17g template, format_column calls format():
    # both must print every double alike for the tables to agree
    assert "%.17g" % x == format(x, ".17g")


@given(st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(cells, min_size=width, max_size=width), max_size=20)))
@example([[0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308]])
@example([[np.float64(-0.0), -7, 1.7976931348623157e308]])
@example([[2**53, -(2**53), 2**53 - 1]])
@example([])
def test_csv_file_round_trips_every_cell(rows):
    header = [f"c{j}" for j in range(len(rows[0]))] if rows else ["a", "b"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "table.csv", header, map(format_column, rows))
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
    rows = (format_column((i, i / 4.0)) for i in range(3))
    path = write_csv(tmp_path / "gen.csv", ("i", "x"), rows)
    assert path.read_bytes() == b"i,x\r\n0,0\r\n1,0.25\r\n2,0.5\r\n"
    assert next(rows, None) is None


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
@pytest.mark.parametrize("where", ["header", "first row", "later row"])
def test_csv_cell_that_needs_quoting_is_refused_without_a_file(tmp_path, char, where):
    good, bad = ("1", "2"), ("x", f"y{char}z")
    header = ("a", "b")
    if where == "header":
        header, rows = ("a", f"b{char}c"), [good]
    elif where == "first row":
        rows = [bad]
    else:  # enough rows before it that some already reached the disk
        rows = [good] * 5000 + [bad]
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="quoting"):
        write_csv(path, header, rows)
    assert not path.exists()


@pytest.mark.parametrize("cell", [1, 2.0, np.float64(3.0), None, b"x"])
@pytest.mark.parametrize("where", ["first row", "later row"])
def test_csv_cell_that_is_not_str_is_refused_without_a_file(tmp_path, cell, where):
    good = ("1", "2")
    rows = [("x", cell)] if where == "first row" else [good] * 5000 + [("x", cell)]
    path = tmp_path / "table.csv"
    with pytest.raises(TypeError):
        write_csv(path, ("a", "b"), rows)
    assert not path.exists()


@pytest.mark.parametrize("rows", [
    [("1", "2", "3"), ("4",)],  # wider, then narrower than the header
    [("1", "2")] * 5000 + [("3",)],
    [("x,y",)],  # one cell holding the missing comma
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


@pytest.mark.filterwarnings("ignore:overflow encountered")  # |z| of the extremes is inf
@given(grids())
@example((np.array([0.0, -0.0]), np.array([-0.0, 5e-324]),
          np.array([[-0.0 - 0.0j, 5e-324 + 1j], [-5e-324j, -0.0 + 5e-324j]])))
def test_grid_writer_matches_the_per_cell_writer(grid):
    times, positions, values = grid
    with tempfile.TemporaryDirectory() as tmp:
        sites = list(zip(map(str, range(values.shape[1])), format_column(positions)))
        path = write_grid_csv(Path(tmp) / "grid.csv", GRID_HEADER, times, sites, values)
        rows = [(t, q, x, z.real, z.imag, abs(z))
                for t, row in zip(times, values) for q, (x, z) in enumerate(zip(positions, row))]
        reference = write_csv_loop(Path(tmp) / "loop.csv", GRID_HEADER, rows)
        assert path.read_bytes() == reference.read_bytes()


def test_grid_writer_keeps_a_percent_sign_in_a_site_cell(tmp_path):
    path = write_grid_csv(tmp_path / "grid.csv", ("t", "site", "re", "im", "abs"),
                          [0.5], [("5%",), ("%s",)], np.array([1, complex(0, -2)])[None])
    assert path.read_bytes() == b"t,site,re,im,abs\r\n0.5,5%,1,0,1\r\n0.5,%s,0,-2,2\r\n"


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
@pytest.mark.parametrize("site", [0, 7])
def test_grid_site_cell_that_needs_quoting_is_refused_without_a_file(tmp_path, char, site):
    sites = [(str(q), f"x{char}y" if q == site else "1") for q in range(8)]
    path = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="quoting"):
        write_grid_csv(path, GRID_HEADER, np.arange(3.0), sites, np.ones((3, 8), complex))
    assert not path.exists()


def test_grid_writer_removes_the_partial_file_when_the_stream_fails(tmp_path):
    sites = [(str(q), str(q)) for q in range(64)]

    def values():  # enough blocks to reach the disk before the failure
        yield from np.ones((50, 64), complex)
        raise RuntimeError("stream broke")

    path = tmp_path / "grid.csv"
    with pytest.raises(RuntimeError, match="stream broke"):
        write_grid_csv(path, GRID_HEADER, np.arange(60.0), sites, values())
    assert not path.exists()


def test_grid_with_fewer_sites_than_columns_is_refused_without_a_file(tmp_path):
    path = tmp_path / "grid.csv"
    with pytest.raises(TypeError):
        write_grid_csv(path, GRID_HEADER, [0.0], [("0", "0")], np.ones((1, 2), complex))
    assert not path.exists()
