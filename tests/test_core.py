"""Codec, conversion, and rounding tests for the core module."""

import dataclasses
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliarith import lanes
from sliarith.arith import add, compare, div, mul, sub
from sliarith.core import (
    BitWord,
    SliFormat,
    SliNumber,
    _from_key,
    _key,
    _key_fields,
    _key_of,
    _materialize,
    decode,
    encode,
    log_phi10,
    magnitude_rank,
    next_up,
    pack,
    phi,
    psi,
    round_index,
    spacing,
    unpack,
    word_fields,
)
from sliarith.lanes import _materialize_lanes, _value_block

F212 = SliFormat(2, 12)
F22U = SliFormat(2, 2, signed=False)
F13U = SliFormat(1, 3, signed=False)


def _table(fmt: SliFormat, raw: bool = False) -> tuple[np.ndarray, ...]:
    """enumerate_values' blocks joined: every word's bits, value and log10."""
    return tuple(np.concatenate(column) for column in zip(*lanes.enumerate_values(fmt, raw)))


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
        for bad in (-0.25, math.inf, math.nan):
            with pytest.raises(ValueError):
                phi(bad)

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

    def test_two_levels_past_exp_range(self):
        # sli3.16 zeta = 5 + k/2**16: from k = 41432 on, exp would overflow
        # with two levels left, where log10 phi = e**v / ln 10 is finite up
        # to k = 41438.  Oracle values from 60-digit mpmath.
        for k, want in ((41431, 6.9473735313875262e307), (41432, 7.9418535436210424e307),
                        (41438, 1.7734258203997678e308), (41439, math.inf)):
            assert log_phi10(5 + k / 2**16) == pytest.approx(want, rel=1e-12), k
        # The table's row of the word with sign -, r = -1 and k = 41432.
        word = 1 << 20 | 4 << 16 | 41432
        lg = _value_block(np.array([word]), SliFormat(3, 16), False)[2]
        assert lg.tolist() == [pytest.approx(-7.9418535436210424e307, rel=1e-12)]

    def test_decimal_exponent_overflow(self):
        assert log_phi10(6.99) == math.inf

    def test_domain(self):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                log_phi10(bad)


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

    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("level_bits", range(1, 7))
    def test_prefix_fields_are_word_fields_own(self, level_bits, signed):
        fmt = SliFormat(level_bits, 3, signed)
        table = fmt.prefix_fields
        assert len(table) == 1 << (fmt.width - fmt.index_bits) <= 256
        assert list(table) == [word_fields(p << fmt.index_bits, fmt)[:3]
                               for p in range(len(table))]
        # pack's table is the inverse: each triple's bits above the
        # index, and no two prefixes share a triple.
        assert fmt.prefix_bits == {f: p << fmt.index_bits for p, f in enumerate(table)}
        assert len(fmt.prefix_bits) == len(table)

    def test_prefix_fields_leave_equality_hash_and_repr(self):
        a, b = SliFormat(3, 5), SliFormat(3, 5)
        assert a == b and hash(a) == hash(b) and a.prefix_fields is not b.prefix_fields
        assert hash(a) == hash((3, 5, True))
        assert repr(a) == "SliFormat(level_bits=3, index_bits=5, signed=True)"
        assert a != SliFormat(3, 5, signed=False)

    def test_replace_rebuilds_prefix_fields(self):
        fmt = dataclasses.replace(F212, level_bits=3, signed=False)
        assert fmt == SliFormat(3, 12, signed=False)
        assert fmt.prefix_fields == SliFormat(3, 12, signed=False).prefix_fields
        assert len(fmt.prefix_fields) == 16 and len(F212.prefix_fields) == 16
        assert fmt.prefix_fields != F212.prefix_fields

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


    def test_is_the_rounding_of_materialize(self):
        # round_index only checks zeta and reads _materialize's fields:
        # ties, carries into the next level and past the top, saturation,
        # zeta below one, zero (whose neutral fields are (1, 0)) and inf.
        fmt = SliFormat(2, 3)
        ties = [level + (k + 0.5) / 8.0 for level in (1, 2, 4) for k in range(8)]
        carries = [1.0 + 7.5 / 8.0, 2.0 + 7.9 / 8.0, 4.0 + 7.5 / 8.0, 2.0 + (7.5 - 2.0**-40) / 8.0]
        edges = [0.0, 2.0**-30, 0.03, 0.0625, 0.5, 0.99, 1.0, 4.875, 5.0, 17.25, math.inf]
        for f, extra in ((fmt, []), (F212, [1.0 + 4095.5 / 4096.0, 4.0 + 4095.7 / 4096.0])):
            for z in ties + carries + edges + extra:
                num = _materialize(f, 1, 1, z)
                assert round_index(z, f) == (num.level, num.index_k), z
                assert num.is_zero == (z == 0.0)
        assert _materialize(fmt, 1, 1, math.inf) == SliNumber(fmt, False, 1, 1, 4, 7)
        # The fold of 1/1 onto one happens only where the rounding lands
        # on level 1, index 0.
        assert _materialize(fmt, -1, -1, 1.0 + 0.4 / 8.0) == SliNumber.one(fmt, -1)
        assert _materialize(fmt, 1, -1, 2.0**-30) == SliNumber.one(fmt)

    def test_lane_form_matches(self):
        # Over the lane form's domain, zero, zeta >= 1 and inf, settled
        # lanes round as _materialize does; with err 0 only the exact ties
        # are left to the scalar op.
        fmt = SliFormat(2, 3)
        ties = [level + (k + 0.5) / 8.0 for level in (1, 2, 4) for k in range(8)]
        ties += [1.0 + 4095.5 / 4096.0, 2.0 + 2047.5 / 4096.0]  # sli2.12's
        hair = [2.0 + (2047.5 - 2.0**-39) / 4096.0]
        edges = [0.0, 1.0, 4.0 + 7.7 / 8.0, 5.0, 17.25, math.inf]
        rng = np.random.default_rng(3)
        zeta = np.array(ties + hair + edges + rng.uniform(1.0, 6.0, 500).tolist())
        sign = rng.choice([-1, 1], zeta.size)
        reciprocal = rng.choice([-1, 1], zeta.size)
        for f in (fmt, F212):
            redone = []

            def op(i):
                redone.append(i)
                return _materialize(f, int(sign[i]), int(reciprocal[i]), zeta[i].item())

            keys = _materialize_lanes(f, sign, reciprocal, zeta, np.zeros(zeta.size), op)
            assert keys.tolist() == [_key(_materialize(f, int(s), int(r), z)) for s, r, z in
                                     zip(sign.tolist(), reciprocal.tolist(), zeta.tolist())]
            t = np.minimum(zeta, f.max_level + 1) * f.index_scale
            assert redone == np.flatnonzero(t - np.floor(t) == 0.5).tolist()
            assert len(redone) > 0

    def test_unsettled_lanes_are_those_near_ties(self):
        tie = 2.0 + 2047.5 / 4096.0  # level 2, index (2047 + 1/2)/4096
        zeta = np.array([tie, tie + 3e-12, tie - 3e-12, tie + 1e-9, 2.0 + 7.0 / 4096.0,
                         3.0, 2.5, 2.5, 5.5, 6.0, math.inf, math.inf, 0.0, 0.0, math.nan])
        err = np.array([0.0, 1e-11, 1e-11, 1e-11, 1e-11, math.inf, math.nan, 1e-11, 0.25, 1.5,
                        0.0, math.nan, 0.0, 1e-11, 0.0])
        # Past the last tie of sli2.12 (4 + 4095.5/4096) every lane
        # saturates, so even a wide bound settles it, unless the bound
        # reaches below that tie.  A zero lane is settled by err 0 alone.
        redone = []

        def op(i):
            redone.append(i)
            return SliNumber.one(F212)

        keys = _materialize_lanes(F212, 1, 1, zeta, err, op)
        assert redone == [0, 1, 2, 5, 6, 9, 11, 13, 14]
        settled = [i for i in range(zeta.size) if i not in redone]
        assert [keys[i] for i in settled] == [
            _key(_materialize(F212, 1, 1, zeta[i].item())) for i in settled]


class TestEncodeDecode:
    def test_encode_defaults_to_sli2_12(self):
        assert encode(math.pi) == encode(math.pi, SliFormat(2, 12))
        assert encode(math.pi).fmt == SliFormat()

    def test_encode_builds_its_default_format_once(self):
        assert encode(math.pi).fmt is encode(-2.5).fmt is encode(0.0).fmt

    def test_lane_form_matches_encode(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-320, 308, 2000),
            [0.0, -0.0, 1.0, -1.0, math.e, 5e-324, 1.7e308, 1.0 - 2.0**-53],
        ])
        for fmt in (F212, SliFormat(1, 4), SliFormat(3, 3)):
            got = lanes.encode(values, fmt)
            want = [encode(float(v), fmt) for v in values]
            assert [_from_key(fmt, k) for k in got.tolist()] == want

    def test_lane_form_matches_decode(self):
        # Every word, zero and the sign-bit zero word included.  sli3.3
        # reaches level 8, whose top levels overflow binary64: inf, and
        # 0.0 (signed) for their reciprocals.
        for fmt in (SliFormat(1, 4), SliFormat(2, 6), SliFormat(3, 3)):
            nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
            got = lanes.decode(np.array([_key(n) for n in nums]), fmt)
            want = [decode(n) for n in nums]
            assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))
            assert sum(n.is_zero for n in nums) == 2
        assert math.inf in want and -math.inf in want
        assert [v for v in want if v == 0.0 and math.copysign(1.0, v) < 0]
        assert want.count(0.0) > 2  # reciprocals of overflowed magnitudes

    def test_lane_form_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            lanes.encode(np.array([1.0, math.nan]), F212)
        with pytest.raises(ValueError, match="unsigned"):
            lanes.encode(np.array([1.0, -2.0]), F22U)

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
            for value in _table(fmt)[1].tolist():
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
        ((F212, False, 1, 1, 2, 0.5), "index_k=0.5"),
        ((F212, False, 1, 1, 2.0, 5), "level=2.0"),
        ((F212, False, 1.0, -1.0, 2, 5), "sign=1.0, reciprocal=-1.0"),
        ((F212, True, 1, 1, 1, 0.0), "index_k=0.0"),
        ((F212, False, 1, 1, np.float64(3.0), "7"), f"level={np.float64(3.0)!r}, index_k='7'"),
    ])
    def test_sli_number_fields_are_integers(self, args, message):
        with pytest.raises(TypeError, match=f"^SliNumber fields must be integers, got "
                                            f"{re.escape(message)}$"):
            SliNumber(*args)

    @pytest.mark.parametrize("args, message", [
        ((F212, "yes", 1, 1, 1, 0), "SliNumber is_zero must be a bool, got 'yes'"),
        ((F212, None, 1, 1, 2, 5), "SliNumber is_zero must be a bool, got None"),
        ((F212, 1.0, 1, 1, 1, 0), "SliNumber is_zero must be a bool, got 1.0"),
        ((F212, 0, 1, 1, 2, 5), "SliNumber is_zero must be a bool, got 0"),
        ((F212, np.True_, 1, 1, 1, 0), f"SliNumber is_zero must be a bool, got {np.True_!r}"),
        (("sli2.12", False, 1, 1, 2, 5), "SliNumber fmt must be a SliFormat, got 'sli2.12'"),
        ((None, True, 1, 1, 1, 0), "SliNumber fmt must be a SliFormat, got None"),
    ])
    def test_sli_number_flag_and_format_types(self, args, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            SliNumber(*args)

    def test_zero_and_one_check_what_they_are_given(self):
        with pytest.raises(TypeError, match="^SliNumber fmt must be a SliFormat, got 'sli2.12'$"):
            SliNumber.zero("sli2.12")
        with pytest.raises(TypeError, match="^SliNumber fmt must be a SliFormat, got 'sli2.12'$"):
            SliNumber.one("sli2.12")
        for sign, error, message in ((-1, ValueError, "sli2.2u is unsigned, sign must be +1"),
                                     (0, ValueError, "sign and reciprocal must be +1 or -1"),
                                     (1.0, TypeError, "SliNumber fields must be integers, got "
                                                      "sign=1.0")):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                SliNumber.one(F22U, sign)
        one = SliNumber.one(F212, np.int8(-1))
        assert one == SliNumber(F212, False, -1, 1, 1, 0) and type(one.sign) is int
        assert type(SliNumber.one(F212, True).sign) is int

    @pytest.mark.parametrize("args, message", [
        ((3.5, 16), "bits=3.5"),
        ((3, 16.0), "width=16.0"),
        ((1e300, 64), "bits=1e+300"),
    ])
    def test_bit_word_fields_are_integers(self, args, message):
        with pytest.raises(TypeError, match=f"^BitWord fields must be integers, got "
                                            f"{re.escape(message)}$"):
            BitWord(*args)

    def test_numpy_integer_fields_become_ints(self):
        # An int8 level once made pack raise OverflowError: its bit arithmetic ran in int8.
        num = SliNumber(F212, False, np.int64(1), np.int8(-1), np.int8(2), np.uint16(5))
        assert num == SliNumber(F212, False, 1, -1, 2, 5)
        assert all(type(v) is int for v in num[2:])
        assert pack(num) == pack(SliNumber(F212, False, 1, -1, 2, 5))
        assert SliNumber(F212, True, 1, np.int64(1), 1, np.int64(0)).is_zero
        word = BitWord(np.int64(5), np.int32(16))
        assert word == BitWord(5, 16) and type(word.bits) is int is type(word.width)
        with pytest.raises(ValueError, match="do not fit"):
            BitWord(np.int64(16), 4)

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

    @pytest.mark.parametrize("args, message", [
        ((2.0, 12), "SliFormat fields must be integers, got level_bits=2.0"),
        ((2, 12.5), "SliFormat fields must be integers, got index_bits=12.5"),
        (("2", None), "SliFormat fields must be integers, got level_bits='2', index_bits=None"),
        ((2, 12, "no"), "SliFormat signed must be a bool, got 'no'"),
        ((2, 12, 1), "SliFormat signed must be a bool, got 1"),
        ((2, 12, np.True_), f"SliFormat signed must be a bool, got {np.True_!r}"),
    ])
    def test_sli_format_field_types(self, args, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            SliFormat(*args)

    def test_sli_format_integer_fields_become_ints(self):
        # A numpy int8 pair once built a format with index_scale 0, and an
        # int64 level_bits made unpack bare-build values of numpy fields.
        fmt = SliFormat(np.int8(2), np.int8(12))
        assert fmt == F212 and hash(fmt) == hash(F212) and fmt.index_scale == 4096
        assert type(fmt.level_bits) is int is type(fmt.index_bits)
        num = unpack(BitWord(0x5234, 16), SliFormat(np.int64(2), 12))
        assert all(type(v) is int for v in num[2:]) and num == unpack(BitWord(0x5234, 16), F212)
        assert SliFormat(True, 12).name == "sli1.12"

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


def _assert_checked_alike(num: SliNumber) -> BitWord:
    """num, a value the library built, is what the checked constructors
    build from its fields, and so is its packed word, which is returned."""
    assert type(num) is SliNumber and type(num.fmt) is SliFormat
    assert type(num.is_zero) is bool and all(type(v) is int for v in num[2:]), num
    assert num == SliNumber(*num)
    word = pack(num)
    assert type(word) is BitWord and all(type(v) is int for v in word)
    assert word == BitWord(*word) and word.width == num.fmt.width
    return word


class TestBuiltValuesAreValid:
    """unpack, pack and _materialize build the values they have proven
    valid without the constructors' checks: each result must equal the
    checked constructors' build of its own fields."""

    # The last four have level widths 4 to 6 and the widest prefix
    # tables, up to 256 entries.
    @pytest.mark.parametrize("name", ["sli1.3", "sli2.3u", "sli3.2", "sli2.12",
                                      "sli6.2", "sli6.1u", "sli5.3", "sli4.1u"])
    def test_every_word(self, name):
        fmt = SliFormat.from_name(name)
        negative_zero = 1 << (fmt.width - 1) if fmt.signed else None
        for bits in range(1 << fmt.width):
            word = BitWord(bits, fmt.width)
            num = unpack(word, fmt)
            assert num.fmt is fmt
            # Only the negative-zero word packs back to another word, zero's.
            want = BitWord(0, fmt.width) if bits == negative_zero else word
            assert _assert_checked_alike(num) == want, bits

    @pytest.mark.parametrize("name", ["sli1.3", "sli2.3u", "sli3.2", "sli2.12"])
    def test_every_rounding_edge(self, name):
        fmt = SliFormat.from_name(name)
        scale, top = fmt.index_scale, fmt.max_level
        zetas = [0.0, 2.0**-30, 0.4 / scale, 0.5 / scale, 0.3, 0.5, (scale - 0.5) / scale,
                 math.nextafter(1.0, 0.0), top + 1.0, top + 1.5, 17.25, math.inf]
        for level in range(1, top + 1):
            zetas += [level + k / scale for k in (0, 1, scale - 1)]
            # Ties (the last one carries), a hair either side of one, and
            # carries into the next level, or past the top.
            zetas += [level + (k + 0.5) / scale for k in (0, scale // 2, scale - 1)]
            zetas += [level + (scale // 2 + 0.5 + d) / scale for d in (-2.0**-30, 2.0**-30)]
            zetas += [level + (scale - 0.25) / scale, math.nextafter(level + 1.0, 0.0)]
        signs = (1, -1) if fmt.signed else (1,)
        for zeta in zetas:
            for sign in signs:
                for reciprocal in (1, -1):
                    num = _materialize(fmt, sign, reciprocal, zeta)
                    assert num.is_zero == (zeta == 0.0), zeta
                    _assert_checked_alike(num)
                    if zeta >= top + 1:
                        assert (num.level, num.index_k) == (top, scale - 1)

    def test_negative_in_an_unsigned_format_is_refused(self):
        fmt = SliFormat.from_name("sli2.12u")
        with pytest.raises(ValueError, match=r"^sli2\.12u is unsigned, sign must be \+1$"):
            _materialize(fmt, -1, 1, 2.5)
        with pytest.raises(ValueError, match=r"^sli2\.12u is unsigned, sign must be \+1$"):
            _materialize(fmt, -1, 1, math.inf)
        assert _materialize(fmt, -1, 1, 0.0).is_zero

    def test_other_tuples_are_built_checked(self):
        # unpack and pack trust only a BitWord's and a SliNumber's fields.
        num = unpack((np.int64(21034), np.int32(16)), F212)
        assert num == unpack(BitWord(21034, 16), F212) == _pi_number()
        assert all(type(v) is int for v in num[2:])
        with pytest.raises(ValueError, match=r"^bits 0x-1 do not fit in 16 bits$"):
            unpack((-1, 16), F212)
        assert pack(tuple(_pi_number())) == BitWord(21034, 16)
        with pytest.raises(ValueError, match=r"^level 9 outside 1\.\.4 for sli2\.12$"):
            pack((F212, False, 1, 1, 9, 0))

    @pytest.mark.parametrize("op", [add, sub, mul, div], ids=lambda op: op.__name__)
    def test_ops_build_other_operands_checked(self, op):
        # The ops hand their operands' signs and flags to _materialize's
        # bare build, so a plain-tuple operand is built checked first.
        pi, bad = _pi_number(), (F212, False, 3, 1, 2, 5)
        for x, y in ((bad, pi), (pi, bad), (bad, tuple(pi))):
            with pytest.raises(ValueError, match=r"^sign and reciprocal must be \+1 or -1$"):
                op(x, y)
        got = op((F212, False, np.int64(-1), np.int8(1), 2, 5), tuple(pi))
        assert got == op(SliNumber(F212, False, -1, 1, 2, 5), pi)
        assert type(got) is SliNumber and all(type(v) is int for v in got[2:])
        if op is not div:  # the zero operand comes back as given, built
            got = op(tuple(pi), SliNumber.zero(F212))
            assert got == op(pi, SliNumber.zero(F212)) and type(got) is SliNumber


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

    @pytest.mark.parametrize("name", ["sli1.4", "sli2.4", "sli2.4u"])
    def test_unpack_matches_fields_through_of(self, name):
        # unpack builds with SliNumber itself: every word must give what
        # word_fields then SliNumber.of (with its fold) give, and the zero
        # payload, under either sign bit, zero.
        fmt = SliFormat.from_name(name)
        zeros = 0
        for bits in range(1 << fmt.width):
            sign, reciprocal, level, index_k = word_fields(bits, fmt)
            if (reciprocal, level, index_k) == (-1, 1, 0):
                want = SliNumber.zero(fmt)
                zeros += 1
            else:
                want = SliNumber.of(fmt, sign, reciprocal, level, index_k)
            assert unpack(BitWord(bits, fmt.width), fmt) == want
        assert zeros == (2 if fmt.signed else 1)

    def test_negative_zero_word_is_zero(self):
        w = BitWord(1 << (F212.width - 1), F212.width)
        assert unpack(w, F212).is_zero

    def test_all_zeros_is_zero_but_raw_reads_one(self):
        (w1, v1, lg1), (w2, v2, lg2) = _table(F22U), _table(F22U, raw=True)
        assert v1[0] == 0.0
        assert v2[0] == 1.0
        assert (lg1[0], lg2[0]) == (-math.inf, 0.0)
        # words otherwise agree
        assert w1.tolist() == w2.tolist()
        assert np.array_equal(v1[1:], v2[1:], equal_nan=True)
        assert lg1[1:].tolist() == lg2[1:].tolist()

    def test_blocks_run_through_every_word_in_order(self):
        blocks = [bits for bits, _, _ in lanes.enumerate_values(F212)]
        assert len(blocks) > 1
        assert np.concatenate(blocks).tolist() == list(range(1 << F212.width))

    def test_word_fields_of_an_array_match_each_word(self):
        for fmt in (SliFormat(2, 3), F13U):
            words = range(1 << fmt.width)
            fields = np.column_stack(word_fields(np.arange(len(words)), fmt)).tolist()
            assert fields == [list(word_fields(bits, fmt)) for bits in words]

    def test_log10_column(self):
        # The signed log10 column is log10 |value| wherever binary64 holds
        # the value, and stays finite past binary64's range both ways.
        _, values, lgs = (column.tolist() for column in _table(SliFormat(2, 3, signed=False)))
        for value, lg in zip(values, lgs):
            if 0.0 < value < math.inf:
                assert lg == pytest.approx(math.log10(value), rel=1e-12, abs=1e-15)
        assert math.inf in values and 0.0 in values[1:]
        assert max(lgs) > 308 and min(lgs[1:]) < -308 and all(map(math.isfinite, lgs[1:]))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            unpack(BitWord(0, 5), F212)

    def test_enumerate_cap(self):
        with pytest.raises(ValueError):
            lanes.enumerate_values(SliFormat(6, 18, signed=False))

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

    def test_raw_blocks_ignore_conventions(self):
        assert _table(F22U, raw=True)[1][0] == 1.0  # fields (+1, -1, 1, 0)
        word = 1 << 15 | 1 << 14 | 1 << 12 | 554  # fields (-1, +1, 2, 554)
        assert _table(F212, raw=True)[1][word] == pytest.approx(
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

    def test_next_up_walks_a_signed_format_in_order(self):
        # From the most negative value through zero to the top: every step
        # goes up, and every value of the format comes exactly once.
        fmt = SliFormat(1, 3)
        values = {unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)}
        walk = [SliNumber.of(fmt, -1, 1, fmt.max_level, fmt.index_scale - 1)]
        while True:
            try:
                walk.append(next_up(walk[-1]))
            except ValueError:
                break
        assert [compare(lo, hi) for lo, hi in zip(walk, walk[1:])] == [-1] * (len(walk) - 1)
        assert len(walk) == len(values) == (1 << fmt.width) - 1  # one zero of two words
        assert set(walk) == values

    def test_next_up_of_zero_is_min_positive(self):
        n = next_up(SliNumber.zero(F22U))
        assert (n.reciprocal, n.level, n.index_k) == (-1, 4, 3)

    def test_next_up_negative_approaches_zero(self):
        small = SliNumber.of(F212, -1, -1, 4, 4095)
        assert next_up(small).is_zero

    def test_next_up_top_errors(self):
        for fmt in (F212, F13U):
            top = SliNumber.of(fmt, 1, 1, fmt.max_level, fmt.index_scale - 1)
            assert decode(top) == fmt.max_value
            message = (rf"^{re.escape(str(top))} is the largest value of {fmt.name}; "
                       "it has no next value$")
            with pytest.raises(ValueError, match=message):
                next_up(top)
            with pytest.raises(ValueError, match=message):
                spacing(top)
            # One step below the top still has its next value: the top.
            assert next_up(_from_key(fmt, _key(top) - 1)) == top

    def test_spacing(self):
        one = SliNumber.one(F212)
        gap = spacing(one)
        assert 0.0 < gap < 1e-3
        assert spacing(SliNumber.zero(F212)) == decode(next_up(SliNumber.zero(F212)))


class TestKeys:
    """The keys of _key_of and _key_fields, for one int and for int64
    arrays, against the scalar values, over every word."""

    @pytest.mark.parametrize("raw", [False, True], ids=["normal", "raw"])
    @pytest.mark.parametrize("name", ["sli1.3", "sli2.3u", "sli3.2"])
    def test_keys_of_every_word(self, name, raw):
        fmt = SliFormat.from_name(name)
        bits = np.arange(1 << fmt.width)
        sign, reciprocal, level, index_k = word_fields(bits, fmt)
        zero = (reciprocal < 0) & (level == 1) & (index_k == 0) & (not raw)
        keys = np.where(zero, 0, _key_of(fmt, sign, reciprocal, level, index_k))
        # A raw block reads the all-zeros payload as its literal fields,
        # 1/phi(1), which is one.
        nums = [SliNumber.of(fmt, *word_fields(b, fmt)) if raw
                else unpack(BitWord(b, fmt.width), fmt) for b in bits.tolist()]
        assert keys.dtype == np.int64
        assert keys.tolist() == [_key(n) for n in nums]
        assert [_from_key(fmt, k) for k in keys.tolist()] == nums
        # One int at a time, the same body gives the same keys, as ints.
        one_by_one = [0 if z else _key_of(fmt, *f) for z, *f in zip(
            zero.tolist(), sign.tolist(), reciprocal.tolist(), level.tolist(), index_k.tolist())]
        assert one_by_one == keys.tolist()
        assert {type(k) for k in one_by_one} == {int}

        fields = _key_fields(keys, fmt)
        assert [f.dtype for f in fields] == [np.bool_] + [np.int64] * 3 + [np.float64]
        per_key = [_key_fields(k, fmt) for k in keys.tolist()]
        assert {tuple(map(type, f)) for f in per_key} == {(bool, int, int, int, float)}
        assert [list(column) for column in zip(*per_key)] == [f.tolist() for f in fields]
        got_zero, got_sign, got_reciprocal, got_m, got_zeta = fields
        read = [SliNumber.one(fmt) if n.is_zero else n for n in nums]  # zero reads as one
        assert got_zero.tolist() == [n.is_zero for n in nums]
        assert got_zero.any() != raw
        assert got_sign.tolist() == [n.sign for n in read]
        assert got_reciprocal.tolist() == [n.reciprocal for n in read]
        assert got_m.tolist() == [(n.level - 1) * fmt.index_scale + n.index_k for n in read]
        assert list(map(float.hex, got_zeta.tolist())) == [n.zeta.hex() for n in read]

        # Integer order on keys is compare's order, and the decoded
        # values never step down along it.
        signs = np.sign(keys[:, None] - keys[None, :])
        assert signs.tolist() == [[compare(x, y) for y in nums] for x in nums]
        ascending = [decode(nums[i]) for i in np.argsort(keys, kind="stable")]
        assert ascending == sorted(ascending)

    def test_from_key_refuses_keys_off_the_ladder(self):
        top = _key(SliNumber.of(F22U, 1, 1, 4, 3))
        assert top == 31  # 2**4 + 15
        with pytest.raises(ValueError, match="outside"):
            _from_key(F22U, top + 1)
        with pytest.raises(ValueError, match="outside"):
            _from_key(F212, -(1 << 15))
        with pytest.raises(ValueError, match="unsigned"):
            _from_key(F22U, -1)
