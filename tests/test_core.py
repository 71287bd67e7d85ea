"""Codec, conversion, and rounding tests for the core module."""

import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliarith.core import (
    BitWord,
    SliFormat,
    SliNumber,
    _decode_lanes,
    _encode_lanes,
    _Lanes,
    _round_index_lanes,
    _unsettled,
    decode,
    decode_fields,
    encode,
    enumerate_values,
    log_phi10,
    magnitude_rank,
    next_up,
    pack,
    phi,
    psi,
    round_index,
    spacing,
    unpack,
)

F212 = SliFormat(2, 12)
F22U = SliFormat(2, 2, signed=False)
F13U = SliFormat(1, 3, signed=False)


class TestPhiPsi:
    def test_phi_identity_segment(self):
        assert phi(0.0) == 0.0
        assert phi(0.5) == 0.5
        assert phi(0.9990234375) == 0.9990234375

    def test_phi_levels(self):
        assert phi(1.0) == 1.0
        assert phi(2.0) == pytest.approx(math.e, rel=1e-15)
        assert phi(3.0) == pytest.approx(math.exp(math.e), rel=1e-15)
        assert phi(2.5) == pytest.approx(math.exp(math.exp(0.5)), rel=1e-15)

    def test_phi_overflows_to_inf(self):
        # phi(3.75) ~ 4049, so one more level leaves binary64.
        assert phi(4.75) == math.inf
        assert phi(40.0) == math.inf

    def test_phi_domain(self):
        with pytest.raises(ValueError):
            phi(-0.25)
        with pytest.raises(ValueError):
            phi(math.nan)

    def test_psi_values(self):
        assert psi(0.25) == 0.25
        assert psi(1.0) == 1.0
        assert psi(math.e) == pytest.approx(2.0, abs=1e-15)
        assert psi(1e300) == pytest.approx(4.629995963090412, abs=1e-12)

    def test_psi_domain(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                psi(bad)

    def test_inverse_pair_grid(self):
        # 10^4 points across the finite range of phi.
        for i in range(10_000):
            zeta = 20.0 * i / 10_000
            v = phi(zeta)
            if math.isinf(v):
                continue
            assert abs(psi(v) - zeta) <= 1e-10, zeta

    @settings(deadline=None, max_examples=300)
    @given(st.floats(min_value=0.0, max_value=4.6))
    def test_inverse_pair_property(self, zeta):
        assert abs(psi(phi(zeta)) - zeta) <= 1e-10


class TestLogPhi10:
    def test_matches_log10_in_range(self):
        for zeta in (0.25, 1.0, 1.5, 2.75, 3.5):
            assert log_phi10(zeta) == pytest.approx(math.log10(phi(zeta)), rel=1e-13)

    def test_beyond_binary64(self):
        assert log_phi10(4.75) == pytest.approx(1758.3817777457828, rel=1e-10)
        assert log_phi10(4.75) > 308.0

    def test_zero_gives_minus_inf(self):
        assert log_phi10(0.0) == -math.inf

    def test_decimal_exponent_overflow(self):
        assert log_phi10(6.99) == math.inf

    def test_domain(self):
        with pytest.raises(ValueError):
            log_phi10(-1.0)


class TestSliFormat:
    def test_defaults(self):
        fmt = SliFormat()
        assert (fmt.level_bits, fmt.index_bits, fmt.signed) == (2, 12, True)
        assert fmt.name == "sli2.12"
        assert fmt.width == 16
        assert fmt.max_level == 4
        assert fmt.index_scale == 4096

    def test_name_round_trip(self):
        for name in ("sli2.12", "sli1.3u", "sli2.2u", "sli6.24", "sli3.11"):
            assert SliFormat.from_name(name).name == name

    def test_bad_names(self):
        for bad in ("sli0.3", "sli7.1", "sli2.25", "sli2.53", "sli2.12x", "fp16", "sli2", ""):
            with pytest.raises(ValueError):
                SliFormat.from_name(bad)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            SliFormat(0, 12)
        with pytest.raises(ValueError):
            SliFormat(7, 12)
        with pytest.raises(ValueError):
            SliFormat(2, 0)
        with pytest.raises(ValueError):
            SliFormat(2, 25)
        with pytest.raises(ValueError):
            SliFormat(2, 53)

    def test_range_endpoints(self):
        assert F13U.max_zeta == 2.875
        assert F13U.max_value == pytest.approx(11.010785517010257, rel=1e-12)
        assert F13U.min_value == pytest.approx(1 / 11.010785517010257, rel=1e-12)
        # sli2.2u tops out past binary64: phi(4.75) ~ 10^1758.
        assert F22U.max_zeta == 4.75
        assert F22U.max_value == math.inf
        assert F22U.min_value == 0.0


class TestRoundIndex:
    def test_ties_away(self):
        fmt = SliFormat(2, 3)
        # 2.5/8 sits exactly between k=2 and k=3: away from zero picks 3.
        assert round_index(1.0 + 2.5 / 8.0, fmt) == (1, 3)
        assert round_index(1.0 + 3.5 / 8.0, fmt) == (1, 4)

    def test_carry_into_next_level(self):
        assert round_index(1.0 + 4095.5 / 4096.0, F212) == (2, 0)
        assert round_index(2.0 + 4095.9 / 4096.0, F212) == (3, 0)

    def test_saturates_at_top(self):
        assert round_index(4.0 + 4095.7 / 4096.0, F212) == (4, 4095)
        assert round_index(17.25, F212) == (4, 4095)
        assert round_index(math.inf, F212) == (4, 4095)

    def test_below_one_is_level_one(self):
        assert round_index(0.5, SliFormat(2, 3)) == (1, 4)
        assert round_index(0.0, F212) == (1, 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            round_index(-0.5, F212)
        with pytest.raises(ValueError):
            round_index(math.nan, F212)

    def test_just_below_tie_rounds_down(self):
        # The scaled index lands a hair under k + 0.5: must round down.
        # floor(t + 0.5) would misround once t + 0.5 rounds up to k + 1.
        frac = (2047.5 - 2.0 ** -39) / 4096.0  # exact at level 2
        assert round_index(2.0 + frac, F212) == (2, 2047)
        assert round_index(2.0 + 2047.5 / 4096.0, F212) == (2, 2048)


    def test_lane_form_matches(self):
        fmt = SliFormat(2, 3)
        ties = [level + (k + 0.5) / 8.0 for level in (1, 2, 4) for k in range(8)]
        hair = [2.0 + (2047.5 - 2.0**-39) / 4096.0]
        edges = [0.0, 0.5, 1.0, 4.0 + 7.7 / 8.0, 5.0, 17.25, math.inf]
        rng = np.random.default_rng(3)
        zeta = np.array(ties + hair + edges + rng.uniform(0.0, 6.0, 500).tolist())
        for f in (fmt, F212):
            level, k = _round_index_lanes(zeta, f)
            assert list(zip(level.tolist(), k.tolist())) == [round_index(z, f) for z in zeta]

    def test_unsettled_lanes_are_those_near_ties(self):
        tie = 2.0 + 2047.5 / 4096.0  # level 2, index (2047 + 1/2)/4096
        zeta = np.array([tie, tie + 3e-12, tie - 3e-12, tie + 1e-9, 2.0 + 7.0 / 4096.0,
                         3.0, 2.5, 2.5, 5.5])
        err = np.array([0.0, 1e-11, 1e-11, 1e-11, 1e-11, math.inf, math.nan, 1e-11, 0.25])
        # Past the last tie of sli2.12 (4 + 4095.5/4096) every lane
        # saturates, so even a wide bound settles it.
        assert _unsettled(zeta, err, F212).tolist() == [
            True, True, True, False, False, True, True, False, False]


class TestEncodeDecode:
    def test_lane_form_matches_encode(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-320, 308, 2000),
            [0.0, -0.0, 1.0, -1.0, math.e, 5e-324, 1.7e308, 1.0 - 2.0**-53],
        ])
        for fmt in (F212, SliFormat(1, 4), SliFormat(3, 3)):
            got = _encode_lanes(values, fmt)
            want = [encode(float(v), fmt) for v in values]
            assert list(zip(*(f.tolist() for f in got))) == [
                (n.is_zero, n.sign, n.reciprocal, n.level, n.index_k) for n in want]

    def test_lane_form_matches_decode(self):
        # Every word, zero and the sign-bit zero word included.  sli3.3
        # reaches level 8, whose top levels overflow binary64: inf, and
        # 0.0 (signed) for their reciprocals.
        for fmt in (SliFormat(1, 4), SliFormat(2, 6), SliFormat(3, 3)):
            nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
            lanes = _Lanes(*map(np.array, zip(*(
                (n.is_zero, n.sign, n.reciprocal, n.level, n.index_k) for n in nums))))
            got = _decode_lanes(lanes, fmt)
            want = [decode(n) for n in nums]
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))
            assert sum(n.is_zero for n in nums) == 2
        assert math.inf in want and -math.inf in want
        assert [v for v in want if v == 0.0 and math.copysign(1.0, v) < 0]
        assert want.count(0.0) > 2  # reciprocals of overflowed magnitudes

    def test_lane_form_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            _encode_lanes(np.array([1.0, math.nan]), F212)
        with pytest.raises(ValueError, match="unsigned"):
            _encode_lanes(np.array([1.0, -2.0]), F22U)

    def test_pi_level_and_index(self):
        n = encode(math.pi, F212)
        assert (n.sign, n.reciprocal, n.level, n.index_k) == (1, 1, 2, 554)
        assert n.index == 554 / 4096
        assert decode(n) == pytest.approx(3.141899100868418, rel=1e-13)

    def test_reciprocal_with_carry(self):
        # 0.3679 ~ 1/e: zeta of the reciprocal is 1.9999...,
        # which rounds up across the level boundary.
        n = encode(0.3679, F22U)
        assert (n.reciprocal, n.level, n.index_k) == (-1, 2, 0)
        assert decode(n) == pytest.approx(1.0 / math.e, rel=1e-12)

    def test_rounds_up_to_canonical_one(self):
        # Just below one: psi of the reciprocal rounds to zeta = 1,
        # which must come out as the canonical one, not r = -1.
        n = encode(0.9999999, F212)
        assert (n.reciprocal, n.level, n.index_k) == (1, 1, 0)
        assert decode(n) == 1.0

    def test_e_cubed_near_level_three(self):
        n = encode(15.1533, F22U)
        assert (n.reciprocal, n.level, n.index_k) == (1, 3, 0)

    def test_zero_and_signed_zero(self):
        assert encode(0.0, F212).is_zero
        assert encode(-0.0, F212).is_zero
        assert decode(encode(0.0, F212)) == 0.0

    def test_signs(self):
        n = encode(-math.pi, F212)
        assert n.sign == -1
        assert decode(n) == pytest.approx(-3.141899100868418, rel=1e-13)
        with pytest.raises(ValueError):
            encode(-2.0, F22U)

    def test_non_finite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                encode(bad, F212)

    def test_saturation_not_overflow(self):
        n = encode(1e308, F13U)
        assert (n.level, n.index_k) == (2, 7)  # the top of the format
        m = encode(1e-308, F13U)
        assert (m.reciprocal, m.level, m.index_k) == (-1, 2, 7)

    def test_subnormal_magnitude(self):
        # 1/|x| overflows binary64 for subnormal x; encode must not.
        n = encode(5e-324, F212)
        assert n.reciprocal == -1
        assert not n.is_zero

    def test_tiny_magnitudes_well_below_the_format_floor(self):
        n = encode(1e-300, F22U)
        assert (n.reciprocal, n.level, n.index_k) == (-1, 4, 3)
        assert decode(n) == 0.0  # binary64 cannot hold 10^-1758

    def test_round_trip_every_value(self):
        for fmt in (SliFormat(2, 3), F13U, SliFormat(3, 2, signed=False)):
            for _, value, _ in enumerate_values(fmt):
                if value == 0.0 or math.isinf(value):
                    continue
                n = encode(value, fmt)
                assert decode(n) == value

    @settings(deadline=None, max_examples=300)
    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_quantization_bound(self, exponent):
        x = 10.0 ** exponent
        n = encode(x, F212)
        target = psi(x) if x >= 1.0 else psi(1.0 / x)
        assert abs(target - n.zeta) <= 2.0 ** -13 + 1e-12

    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_encode_decode_round_trip_words(self, bits):
        n = unpack(BitWord(bits, 16), F212)
        v = decode(n)
        if n.is_zero or math.isinf(v) or v == 0.0:
            return
        assert encode(v, F212) == n


class TestSliNumber:
    def test_zero_and_one(self):
        z = SliNumber.zero(F212)
        assert z.is_zero and decode(z) == 0.0
        one = SliNumber.one(F212)
        assert decode(one) == 1.0 and one.zeta == 1.0

    def test_of_canonicalizes_one(self):
        n = SliNumber.of(F212, 1, -1, 1, 0)
        assert n.reciprocal == 1

    def test_rejects_non_canonical_one(self):
        with pytest.raises(ValueError):
            SliNumber(F212, False, 1, -1, 1, 0)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SliNumber(F212, False, 1, 1, 5, 0)  # level past max
        with pytest.raises(ValueError):
            SliNumber(F212, False, 1, 1, 2, 4096)  # index past scale
        with pytest.raises(ValueError):
            SliNumber(F22U, False, -1, 1, 2, 1)  # sign in unsigned format
        with pytest.raises(ValueError):
            SliNumber(F212, True, 1, 1, 2, 7)  # zero with fields set

    def test_float_protocol(self):
        assert float(encode(math.pi, F212)) == pytest.approx(3.141899100868418)

    def test_str_forms(self):
        assert "sli2.12" in str(SliNumber.zero(F212))
        assert "phi" in str(SliNumber.one(F212))


def _pi_number(fmt=None):
    return SliNumber(fmt or SliFormat(2, 12), False, 1, 1, 2, 554)


# (build a value, its repr, values differing from it in one field each).
VALUE_TYPES = {
    "SliNumber": (
        _pi_number,
        "SliNumber(fmt=SliFormat(level_bits=2, index_bits=12, signed=True),"
        " is_zero=False, sign=1, reciprocal=1, level=2, index_k=554)",
        [
            _pi_number(SliFormat(3, 12)),
            _pi_number(SliFormat(2, 12, signed=False)),
            SliNumber(F212, False, -1, 1, 2, 554),
            SliNumber(F212, False, 1, -1, 2, 554),
            SliNumber(F212, False, 1, 1, 3, 554),
            SliNumber(F212, False, 1, 1, 2, 555),
            SliNumber.zero(F212),
        ],
    ),
    "BitWord": (
        lambda: BitWord(21034, 16),
        "BitWord(bits=21034, width=16)",
        [BitWord(21035, 16), BitWord(21034, 17)],
    ),
}


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
class TestValueTypes:
    """Immutable values, validated on construction, compared by field."""

    def test_equality_and_hash_go_by_field(self, kind):
        build, _, others = VALUE_TYPES[kind]
        a, b = build(), build()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        for other in others:
            assert a != other and not a == other, other
        assert len({a, b, *others}) == 1 + len(others)

    def test_not_equal_to_a_plain_tuple(self, kind):
        a = VALUE_TYPES[kind][0]()
        fields = tuple(getattr(a, name) for name in a.__match_args__)
        assert not a == fields and a != fields
        assert not fields == a and fields != a

    def test_no_order_and_no_repetition(self, kind):
        a = VALUE_TYPES[kind][0]()
        fields = tuple(getattr(a, name) for name in a.__match_args__)
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for left, right in ((a, a), (a, fields), (fields, a)):
                with pytest.raises(TypeError):
                    op(left, right)
        with pytest.raises(TypeError):
            2 * a

    def test_fields_cannot_be_assigned(self, kind):
        a = VALUE_TYPES[kind][0]()
        for name in a.__match_args__:
            with pytest.raises(AttributeError):
                setattr(a, name, 1)

    def test_repr_text(self, kind):
        build, text, _ = VALUE_TYPES[kind]
        assert repr(build()) == text


class TestConstructionChecks:
    """Every check of the value and format constructors, with its message."""

    @pytest.mark.parametrize("args, message", [
        ((F212, False, 0, 1, 2, 5), "sign and reciprocal must be +1 or -1"),
        ((F212, False, 1, 0, 2, 5), "sign and reciprocal must be +1 or -1"),
        ((F212, False, 1, 2, 2, 5), "sign and reciprocal must be +1 or -1"),
        ((F212, True, 0, 1, 1, 0), "sign and reciprocal must be +1 or -1"),
        ((F22U, False, -1, 1, 2, 1), "sli2.2u is unsigned, sign must be +1"),
        ((F212, True, 1, 1, 2, 7), "zero must carry neutral fields"),
        ((F212, True, -1, 1, 1, 0), "zero must carry neutral fields"),
        ((F212, False, 1, 1, 5, 0), "level 5 outside 1..4 for sli2.12"),
        ((F212, False, 1, 1, 0, 0), "level 0 outside 1..4 for sli2.12"),
        ((F212, False, 1, 1, 2, 4096), "index numerator 4096 outside 0..4095"),
        ((F212, False, 1, 1, 2, -1), "index numerator -1 outside 0..4095"),
        ((F212, False, 1, -1, 1, 0),
         "non-canonical spelling of one (r=-1, zeta=1); use SliNumber.of"),
    ])
    def test_sli_number(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SliNumber(*args)

    @pytest.mark.parametrize("args, message", [
        ((0, 0), "width must be in 1..64, got 0"),
        ((0, 65), "width must be in 1..64, got 65"),
        ((16, 4), "bits 0x10 do not fit in 4 bits"),
        ((1 << 64, 64), "bits 0x10000000000000000 do not fit in 64 bits"),
        ((-1, 4), "bits 0x-1 do not fit in 4 bits"),
    ])
    def test_bit_word(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BitWord(*args)

    @pytest.mark.parametrize("args, message", [
        ((0, 12), "level_bits must be in 1..6, got 0"),
        ((7, 12), "level_bits must be in 1..6, got 7"),
        ((2, 0), "index_bits must be in 1..24, got 0"),
        ((2, 25), "index_bits must be in 1..24, got 25"),
    ])
    def test_sli_format(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SliFormat(*args)

    def test_tuple_helpers_validate(self):
        # _make and _replace come with the NamedTuple base; they must not
        # be a way around the checks.
        with pytest.raises(ValueError, match="sign and reciprocal"):
            _pi_number()._replace(sign=0)
        with pytest.raises(ValueError, match="do not fit"):
            BitWord._make((16, 4))
        assert _pi_number()._replace(index_k=555) == SliNumber(F212, False, 1, 1, 2, 555)

    def test_valid_edges_are_accepted(self):
        assert SliNumber(F212, False, -1, -1, 4, 4095).level == 4
        assert SliNumber(F22U, True, 1, 1, 1, 0).is_zero
        assert SliNumber(F212, False, 1, -1, 1, 1).index_k == 1
        assert BitWord((1 << 64) - 1, 64).width == 64


class TestCodec:
    def test_pi_word(self):
        # sign 0 | reciprocal 1 | level-1 = 01 | index 554 in 12 bits.
        assert str(pack(encode(math.pi, F212))) == "0101001000101010"

    def test_unpack_inverse_on_numbers(self):
        for fmt in (SliFormat(2, 3), SliFormat(1, 2, signed=False)):
            seen = set()
            for bits in range(1 << fmt.width):
                n = unpack(BitWord(bits, fmt.width), fmt)
                seen.add(n)
                assert unpack(pack(n), fmt) == n
            # every representable value is reachable from some word
            expected = 2 * fmt.max_level * fmt.index_scale  # zero + nonzeros
            if fmt.signed:
                expected = 2 * expected - 1  # negative zero folds onto zero
            assert len(seen) == expected

    def test_negative_zero_word_is_zero(self):
        w = BitWord(1 << (F212.width - 1), F212.width)
        assert unpack(w, F212).is_zero

    def test_all_zeros_is_zero_but_raw_reads_one(self):
        cooked = enumerate_values(F22U)
        raw = enumerate_values(F22U, raw=True)
        assert cooked[0][1] == 0.0
        assert raw[0][1] == 1.0
        assert (cooked[0][2], raw[0][2]) == (-math.inf, 0.0)
        # words otherwise agree
        for (w1, v1, lg1), (w2, v2, lg2) in zip(cooked[1:], raw[1:]):
            assert w1 == w2 and (v1 == v2 or (math.isnan(v1) and math.isnan(v2)))
            assert lg1 == lg2

    def test_log10_column(self):
        # The signed log10 column is log10 |value| wherever binary64 holds
        # the value, and stays finite past binary64's range both ways.
        rows = enumerate_values(SliFormat(2, 3, signed=False))
        for _, value, lg in rows:
            if 0.0 < value < math.inf:
                assert lg == pytest.approx(math.log10(value), rel=1e-12, abs=1e-15)
        values = [value for _, value, _ in rows]
        lgs = [lg for _, _, lg in rows]
        assert math.inf in values and 0.0 in values[1:]
        assert max(lgs) > 308 and min(lgs[1:]) < -308 and all(map(math.isfinite, lgs[1:]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            unpack(BitWord(0, 5), F212)

    def test_enumerate_cap(self):
        with pytest.raises(ValueError):
            enumerate_values(SliFormat(6, 18, signed=False))

    def test_bitword_parsing(self):
        w = BitWord.from_string("0101")
        assert (w.bits, w.width) == (5, 4)
        assert str(w) == "0101"
        with pytest.raises(ValueError):
            BitWord.from_string("01x1")
        with pytest.raises(ValueError):
            BitWord.from_string("")
        with pytest.raises(ValueError):
            BitWord(16, 4)

    def test_decode_fields_ignores_conventions(self):
        assert decode_fields(F22U, 1, -1, 1, 0) == 1.0
        assert decode_fields(F212, -1, 1, 2, 554) == pytest.approx(
            -3.141899100868418, rel=1e-13
        )


class TestLadder:
    def test_rank_anchors(self):
        one = SliNumber.one(F22U)
        assert magnitude_rank(one) == 15  # middle of 31 magnitudes
        top = SliNumber.of(F22U, 1, 1, 4, 3)
        assert magnitude_rank(top) == 30
        bottom = SliNumber.of(F22U, 1, -1, 4, 3)
        assert magnitude_rank(bottom) == 0
        with pytest.raises(ValueError):
            magnitude_rank(SliNumber.zero(F22U))

    def test_next_up_walks_the_whole_format(self):
        n = SliNumber.zero(F22U)
        values = [decode(n)]
        ranks = []
        while True:
            try:
                n = next_up(n)
            except ValueError:
                break
            ranks.append(magnitude_rank(n))
            values.append(decode(n))
        assert ranks == list(range(31))
        for lo, hi in zip(values, values[1:]):
            assert lo < hi or (lo == hi and (lo == 0.0 or math.isinf(hi)))

    def test_next_up_of_zero_is_min_positive(self):
        n = next_up(SliNumber.zero(F22U))
        assert (n.reciprocal, n.level, n.index_k) == (-1, 4, 3)

    def test_next_up_negative_approaches_zero(self):
        small = SliNumber.of(F212, -1, -1, 4, 4095)
        assert next_up(small).is_zero

    def test_next_up_top_errors(self):
        top = SliNumber.of(F212, 1, 1, 4, 4095)
        with pytest.raises(ValueError):
            next_up(top)

    def test_spacing(self):
        one = SliNumber.one(F212)
        gap = spacing(one)
        assert 0.0 < gap < 1e-3
        assert spacing(SliNumber.zero(F212)) == decode(next_up(SliNumber.zero(F212)))
