import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tchlab.reports import format_cell, write_json

finite = st.floats(allow_nan=False, allow_infinity=False)


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
    assert _bits(float(format_cell(x))) == _bits(x)


@given(finite, finite)
@example(0.0, -0.0)
@example(-0.0, -0.0)
@example(5e-324, -1.7976931348623157e308)
def test_complex_cells_round_trip_bit_for_bit(re, im):
    parsed = complex(format_cell(complex(re, im)))
    assert _bits(parsed.real) == _bits(re)
    assert _bits(parsed.imag) == _bits(im)


def test_integer_and_flag_cells_are_plain():
    assert format_cell(7) == "7"
    assert format_cell(True) == "true"
    assert format_cell("label") == "label"
    assert math.isnan(float(format_cell(float("nan"))))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite_floats_before_writing(tmp_path, value):
    path = tmp_path / "out" / "summary.json"
    with pytest.raises(ValueError):
        write_json(path, {"ok": 1.0, "nested": [{"bad": value}]})
    assert not path.exists()
