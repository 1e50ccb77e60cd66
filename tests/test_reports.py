import csv
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tchlab.reports import format_column, write_csv, write_json

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


@given(st.lists(st.lists(cells, min_size=1, max_size=6), max_size=20))
@example([[0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308]])
@example([[np.float64(-0.0), -7, 1.7976931348623157e308]])
@example([[2**53, -(2**53), 2**53 - 1]])
@example([])
def test_csv_file_round_trips_every_cell(rows):
    header = ["a", "b"]
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
