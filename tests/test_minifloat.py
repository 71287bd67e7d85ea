"""Tests for the round-to-nearest-even minifloat simulator."""

import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliarith import lanes
from sliarith.minifloat import (
    BFLOAT16,
    BINARY16,
    TOY5,
    FloatFormat,
    fl,
    fl_op,
)

# Value column of the 5-bit toy format listing, word order 00000..11111.
TOY5_VALUES = [
    0.0, 0.0625, 0.125, 0.1875, 0.25, 0.3125, 0.375, 0.4375,
    0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 1.75,
    2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0,
    8.0, 10.0, 12.0, 14.0, math.inf, math.nan, math.nan, math.nan,
]


def _table(fmt: FloatFormat) -> tuple[np.ndarray, ...]:
    """enumerate_values' blocks joined: every word's bits and value."""
    return tuple(np.concatenate(column) for column in zip(*lanes.enumerate_values(fmt)))


class TestFormats:
    def test_presets(self):
        assert (TOY5.precision, TOY5.e_max, TOY5.signed) == (3, 3, False)
        assert (BINARY16.precision, BINARY16.e_max) == (11, 15)
        assert (BFLOAT16.precision, BFLOAT16.e_max) == (8, 127)
        assert BINARY16.signed and BFLOAT16.signed

    def test_derived_quantities(self):
        assert TOY5.e_min == -2
        assert TOY5.max_finite == 14.0
        assert TOY5.min_normal == 0.25
        assert TOY5.exponent_bits == 3
        assert TOY5.width == 5
        assert BINARY16.max_finite == 65504.0
        assert BINARY16.width == 16
        assert BFLOAT16.max_finite == pytest.approx(3.3895313892515355e38, rel=1e-15)

    def test_names(self):
        assert FloatFormat.from_name("binary16") == BINARY16
        assert FloatFormat.from_name("bfloat16") == BFLOAT16
        assert FloatFormat.from_name("toy5") == TOY5
        assert FloatFormat.from_name("b11e15").name == "binary16"
        assert FloatFormat.from_name("b3e3u") == TOY5
        f = FloatFormat.from_name("b5e7u")
        assert (f.precision, f.e_max, f.signed) == (5, 7, False)
        assert FloatFormat.from_name(f.name) == f

    def test_bad_names(self):
        for bad in ("b0e3", "be3", "b3e0", "binary32x", "sli2.12", "b3e3uu"):
            with pytest.raises(ValueError):
                FloatFormat.from_name(bad)

    @pytest.mark.parametrize("precision, e_max, message", [
        (0, 15, "precision must be in 1..53, got 0"),
        (54, 15, "precision must be in 1..53, got 54"),
        (11, 0, "e_max must be in 1..4096, got 0"),
        (11, 4097, "e_max must be in 1..4096, got 4097"),
    ])
    def test_range_errors(self, precision, e_max, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FloatFormat(precision, e_max)

    def test_non_power_of_two_bias_has_no_bit_layout(self):
        f = FloatFormat(3, 4)
        with pytest.raises(ValueError):
            f.exponent_bits


class TestRounding:
    def test_toy5_overflow_boundary(self):
        # boundary (2 - 2^-3) * 2^3 = 15: everything at or past it overflows
        assert fl(14.99, TOY5) == 14.0
        assert math.isinf(fl(15.0, TOY5))
        assert math.isinf(fl(1e300, TOY5))

    def test_binary16_overflow_boundary(self):
        assert fl(65504.0, BINARY16) == 65504.0
        assert fl(65519.9, BINARY16) == 65504.0
        assert math.isinf(fl(65520.0, BINARY16))
        assert math.isinf(fl(65536.0, BINARY16))
        assert fl(-65519.9, BINARY16) == -65504.0

    def test_subnormal_ties_even(self):
        # toy5 subnormal step is 2^-4 = 0.0625
        assert fl(0.04, TOY5) == 0.0625
        assert fl(0.03125, TOY5) == 0.0  # tie, even mantissa is 0
        assert fl(0.09375, TOY5) == 0.125  # tie, rounds to even 2
        assert fl(0.015, TOY5) == 0.0

    def test_normal_ties_even(self):
        # between 2.0 (k=8) and 2.5 (k=9): tie at 2.25 goes to even k=8
        assert fl(2.25, TOY5) == 2.0
        assert fl(2.75, TOY5) == 3.0  # tie between k=11 and even k=12

    def test_passthrough(self):
        assert fl(0.0, TOY5) == 0.0
        assert math.copysign(1.0, fl(-0.0, BINARY16)) == -1.0
        assert math.isnan(fl(math.nan, TOY5))
        assert math.isinf(fl(math.inf, BINARY16))
        assert fl(-math.inf, BINARY16) == -math.inf

    def test_unsigned_zero_is_positive(self):
        # An unsigned format has no sign bit, so -0.0 rounds to its one
        # zero, +0.0; signed formats keep -0.0 (test_passthrough).
        for got in (fl(-0.0, TOY5), fl_op(0.0, -0.0, "*", TOY5),
                    *lanes.encode(np.array([-0.0, 0.0]), TOY5).tolist()):
            assert math.copysign(1.0, got) == 1.0
        assert math.copysign(1.0, lanes.encode(np.array([-0.0]), BINARY16)[0]) == -1.0

    @pytest.mark.parametrize("fmt, table", [
        (BINARY16, [
            (math.nan, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
            (0.0, 0.0), (-0.0, -0.0), (65520.0, math.inf), (-65520.0, -math.inf),
            (65519.99999999999, 65504.0), (-65519.99999999999, -65504.0),
            (1 / 3, 0.333251953125), (-1 / 3, -0.333251953125),
            (1e-7, 1.1920928955078125e-07), (5e-324, 0.0), (1e308, math.inf),
        ]),
        (TOY5, [
            (math.nan, math.nan), (math.inf, math.inf), (-math.inf, ValueError),
            (0.0, 0.0), (-0.0, 0.0), (15.0, math.inf), (-15.0, ValueError),
            (14.999999999999998, 14.0), (1 / 3, 0.3125), (-1 / 3, ValueError),
            (1e-7, 0.0), (1e308, math.inf), (-1.0, ValueError),
        ]),
        # Past binary64: overflow_threshold is inf, and the largest binary64
        # rounds up to 2**1024, which binary64 reads as inf.
        (FloatFormat(11, 1024), [
            (math.nan, math.nan), (math.inf, math.inf), (-math.inf, -math.inf),
            (0.0, 0.0), (-0.0, -0.0), (1.7976931348623157e308, math.inf),
            (-1.7976931348623157e308, -math.inf), (1e308, 9.997912502969618e307),
            (2.0**1000, 2.0**1000), (1 / 3, 0.333251953125), (1e-7, 1.00000761449337e-07),
            (5e-324, 0.0), (-1.0, -1.0),
        ]),
    ], ids=str)
    def test_written_out_table(self, fmt, table):
        threshold = fmt.overflow_threshold
        assert threshold in (65520.0, 15.0, math.inf)
        if math.isfinite(threshold):
            assert any(v == math.nextafter(threshold, 0.0) for v, _ in table)
        for value, want in table:
            if want is ValueError:
                with pytest.raises(ValueError, match="unsigned"):
                    fl(value, fmt)
                continue
            got = fl(value, fmt)
            assert struct.pack("<d", got) == struct.pack("<d", want), (value, got, want)

    def test_unsigned_rejects_negative(self):
        with pytest.raises(ValueError):
            fl(-1.0, TOY5)
        with pytest.raises(ValueError):
            fl(-math.inf, TOY5)

    def test_exact_values_unchanged(self):
        for v in TOY5_VALUES:
            if math.isfinite(v):
                assert fl(v, TOY5) == v

    @settings(deadline=None, max_examples=300)
    @given(st.floats(min_value=2.0**-14, max_value=65504.0))
    def test_binary16_normal_relative_error(self, x):
        r = fl(x, BINARY16)
        assert abs(r - x) <= 2.0**-11 * x
        assert fl(r, BINARY16) == r  # idempotent

    @settings(deadline=None, max_examples=300)
    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_monotone(self, x, y):
        if x > y:
            x, y = y, x
        assert fl(x, TOY5) <= fl(y, TOY5)


class TestWiderThanBinary64:
    """Formats with e_max >= 1024, where 2.0**e_max is past binary64."""

    BIG = sys.float_info.max
    PROBE = [BIG, -BIG, 1e308, 1.7966e308, 1e-300, 5e-324, -2.5, 1 / 3, 0.0,
             math.pi * 2.0**1000]

    def test_derived_limits_are_inf(self):
        for name in ("b53e2000", "b11e1024", "b24e4096"):
            fmt = FloatFormat.from_name(name)
            assert fmt.overflow_threshold == fmt.max_finite == math.inf
        # The last exponent inside binary64 keeps finite limits.
        assert FloatFormat(11, 1023).max_finite == (2.0 - 2.0**-10) * 2.0**1023

    def test_binary64_is_exact_in_b53e2000(self):
        fmt = FloatFormat.from_name("b53e2000")
        got = [fl(v, fmt) for v in self.PROBE]
        assert got == self.PROBE
        assert lanes.encode(np.array(self.PROBE), fmt).tolist() == got
        assert fl_op(self.BIG, self.BIG, "-", fmt) == 0.0

    def test_b11e1024_rounds_without_overflow(self):
        fmt = FloatFormat.from_name("b11e1024")
        got = [fl(v, fmt) for v in self.PROBE]
        assert lanes.encode(np.array(self.PROBE), fmt).tolist() == got
        for v, r in zip(self.PROBE[2:], got[2:]):
            assert math.isfinite(r), v
            if abs(v) >= fmt.min_normal:
                assert abs(r - v) <= 2.0**-11 * abs(v), v
        assert fl(5e-324, fmt) == 0.0  # below half the 2**-1033 quantum
        # Below the top binade the 11-bit rounding is binary16's, scaled.
        assert fl(1e308, fmt) == fl(1e308 * 2.0**-1016, BINARY16) * 2.0**1016
        # Rounding max_double up gives 2**1024: finite in the format, but
        # not a binary64, so both forms return inf.
        assert got[:2] == [math.inf, -math.inf]


class TestFlOp:
    def test_add_overflows(self):
        assert math.isinf(fl_op(14.0, 14.0, "+", TOY5))

    def test_mul_exact(self):
        assert fl_op(1.75, 2.0, "*", TOY5) == 3.5

    def test_matches_round_of_exact_result(self):
        pairs = [(1.25, 3.0), (0.0625, 0.0625), (7.0, 0.875), (12.0, 0.125)]
        for a, b in pairs:
            for op in ("+", "-", "*", "/"):
                exact = {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]
                assert fl_op(a, b, op, BINARY16) == fl(exact, BINARY16)

    def test_division_follows_ieee(self):
        assert math.isinf(fl_op(1.0, 0.0, "/", BINARY16))
        assert fl_op(-1.0, 0.0, "/", BINARY16) == -math.inf
        assert math.isnan(fl_op(0.0, 0.0, "/", BINARY16))
        assert math.isnan(fl_op(math.nan, 2.0, "/", BINARY16))

    def test_op_aliases(self):
        assert fl_op(1.0, 2.0, "add", BINARY16) == fl_op(1.0, 2.0, "+", BINARY16)
        assert fl_op(1.0, 4.0, "div", BINARY16) == fl_op(1.0, 4.0, "/", BINARY16)
        assert fl_op(2.0, 3.0, "x", BINARY16) == 6.0

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            fl_op(2.0, 3.0, "pow", BINARY16)

    def test_single_rounding(self):
        # 1.0625 is not in toy5; the sum must round once, not twice
        got = fl_op(1.0, 0.0625, "+", TOY5)
        assert got == fl(1.0625, TOY5) == 1.0


class TestEnumerate:
    def test_toy5_matches_reference_column(self):
        bits, values = _table(TOY5)
        assert len(values) == 32
        assert bits.tolist() == list(range(32))
        for value, want in zip(values.tolist(), TOY5_VALUES):
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == want

    def test_binary16_census(self):
        vals = _table(BINARY16)[1].tolist()
        assert len(vals) == 65536
        assert vals.count(65504.0) == 1
        assert sum(1 for v in vals if math.isinf(v)) == 2
        assert sum(1 for v in vals if math.isnan(v)) == 2046
        finite = sorted(v for v in vals if math.isfinite(v))
        assert finite[0] == -65504.0
        # smallest positive subnormal
        assert min(v for v in vals if v > 0) == 2.0**-24

    def test_enumeration_is_exhaustive_round_trip(self):
        # every finite enumerated value is a fixed point of fl
        for v in _table(TOY5)[1].tolist():
            if math.isfinite(v):
                assert fl(v, TOY5) == v

    def test_values_past_binary64_read_as_inf(self):
        # Normals from 2**1024 up (exponent fields 3071..4094, four words
        # each) lie past binary64, like the all-ones exponent's infinity.
        values = _table(FloatFormat(3, 2047, signed=False))[1]
        assert values.size == 1 << 14
        assert values[np.isfinite(values)].max() == 1.75 * 2.0**1023
        assert np.isinf(values).sum() == 1024 * 4 + 1

    def test_width_cap(self):
        with pytest.raises(ValueError):
            lanes.enumerate_values(FloatFormat(24, 2048))


class TestAgainstHardwareHalf:
    def test_fl_matches_struct_half_rounding(self):
        # binary64 -> binary16 via struct uses round-nearest-even too
        probe = [0.1, 1.2345, 3.14159, 1000.6, 6.1e-5, 2.0**-24 * 1.5]
        for x in probe:
            want = struct.unpack("<e", struct.pack("<e", x))[0]
            assert fl(x, BINARY16) == want
