"""Kernel and operation tests for SLI arithmetic.

Rounded results are judged against the oracle encode(decode(x) op
decode(y)): exact binary64 op on the decoded operands, rounded once.
Agreement within one position on the magnitude ladder is the
correctness bar wherever the kernel result is not forced exactly.
"""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliarith import arith, core, lanes
from sliarith.arith import (
    absolute,
    add,
    compare,
    div,
    li_add_sub,
    li_mul_div,
    mul,
    neg,
    sub,
)
from sliarith.core import (
    BitWord,
    SliFormat,
    SliNumber,
    _from_key,
    _key,
    _key_of,
    decode,
    encode,
    magnitude_rank,
    next_up,
    pack,
    phi,
    psi,
    unpack,
)

F = SliFormat(2, 12)
F22U = SliFormat(2, 2, signed=False)


def rank_distance(a: SliNumber, b: SliNumber) -> int:
    return abs(magnitude_rank(a) - magnitude_rank(b))


def assert_within_one_ulp(got: SliNumber, want: SliNumber) -> None:
    if got.is_zero or want.is_zero:
        assert got.is_zero and want.is_zero
        return
    assert got.sign == want.sign
    assert rank_distance(got, want) <= 1, (got, want)


def oracle(x: SliNumber, y: SliNumber, op) -> SliNumber:
    return encode(op(decode(x), decode(y)), x.fmt)


class TestKernelAddSub:
    def test_add_against_closed_form(self):
        # phi(2.5) + 1 has a one-level tower, checkable directly.
        got = li_add_sub(2.5, 1.0)
        assert got == pytest.approx(psi(phi(2.5) + 1.0), abs=1e-10)

    def test_add_small_levels_match_psi(self):
        for zx, zy in [(1.5, 1.25), (2.0, 1.0), (2.9, 2.9), (3.2, 1.7), (2.2, 2.2)]:
            got = li_add_sub(zx, zy)
            want = psi(phi(zx) + phi(zy))
            assert got == pytest.approx(want, abs=1e-10), (zx, zy)

    def test_sub_small_levels_match_psi(self):
        for zx, zy in [(1.5, 1.25), (2.0, 1.0), (3.2, 1.7), (2.5, 2.4)]:
            got = li_add_sub(zx, zy, subtract=True)
            diff = phi(zx) - phi(zy)
            want = psi(diff) if diff >= 1.0 else diff
            assert got == pytest.approx(want, abs=1e-9), (zx, zy)

    def test_raw_operands(self):
        assert li_add_sub(0.3, 0.2) == pytest.approx(0.5, abs=1e-15)
        assert li_add_sub(0.3, 0.2, subtract=True) == pytest.approx(0.1, abs=1e-15)
        # crossing one: psi lifts the raw sum to level 1
        assert li_add_sub(0.7, 0.6) == pytest.approx(1.0 + math.log(1.3), abs=1e-12)

    def test_mixed_raw_and_levelled(self):
        got = li_add_sub(2.5, 0.375)
        assert got == pytest.approx(psi(phi(2.5) + 0.375), abs=1e-10)

    def test_carry_when_remainder_passes_one(self):
        # f + ln(c) exceeds one here; the result needs the extra psi fold.
        got = li_add_sub(1.9, 1.9)
        want = psi(2.0 * phi(1.9))
        assert got == pytest.approx(want, abs=1e-10)

    def test_exact_cancellation(self):
        assert li_add_sub(2.25, 2.25, subtract=True) == 0.0

    def test_identity_with_zero_magnitude(self):
        for z in (1.25, 2.625, 3.0):
            assert li_add_sub(z, 0.0) == z
            assert li_add_sub(z, 0.0, subtract=True) == z

    def test_operand_order_enforced(self):
        with pytest.raises(ValueError):
            li_add_sub(1.0, 2.0)

    def test_domain(self):
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                li_add_sub(bad, 0.0)
            if not bad < 0:  # ordering check fires first for negatives
                with pytest.raises(ValueError):
                    li_add_sub(5.0, bad)

    def test_sum_matches_psi_of_phi_sum(self):
        w = li_add_sub(3.25, 2.5)
        assert w == pytest.approx(psi(phi(3.25) + phi(2.5)), rel=1e-12)

    def test_near_equal_subtraction_falls_below_zx(self):
        w = li_add_sub(3.0, 2.9999, subtract=True)
        assert 0.0 < w < 3.0
        assert w == pytest.approx(psi(phi(3.0) - phi(2.9999)), rel=1e-9)


class TestKernelMulDiv:
    def test_divide_matches_quotient(self):
        w, flipped = li_mul_div(psi(6.0), psi(2.0), divide=True)
        assert not flipped
        assert w == pytest.approx(psi(3.0), abs=1e-10)

    def test_divide_flips_when_smaller(self):
        w, flipped = li_mul_div(psi(2.0), psi(6.0), divide=True)
        assert flipped
        assert w == pytest.approx(psi(3.0), abs=1e-10)

    def test_divide_equal_is_one(self):
        assert li_mul_div(2.375, 2.375, divide=True) == (1.0, False)

    def test_multiply_matches_product(self):
        w, flipped = li_mul_div(psi(6.0), psi(2.0))
        assert not flipped
        assert w == pytest.approx(psi(12.0), abs=1e-10)

    def test_multiply_is_symmetric_bitwise(self):
        assert li_mul_div(2.7, 1.3) == li_mul_div(1.3, 2.7)

    def test_domain(self):
        # Finite descriptors >= 1 only: li_add_sub refuses the shifted pair,
        # in either order, for the scalar kernel and for one bad lane among
        # good ones.
        for bad in (math.nextafter(1.0, 0.0), 0.5, 0.0, -1.0, math.inf, -math.inf, math.nan):
            for divide, good in ((False, 1.0), (False, 2.0), (True, 1.0), (True, 2.0)):
                for x, y in ((bad, good), (good, bad)):
                    with pytest.raises(ValueError, match="zeta_x >= zeta_y >= 0"):
                        li_mul_div(x, y, divide)
                    with pytest.raises(ValueError, match="zeta_x >= zeta_y >= 0"):
                        li_mul_div(np.array([2.0, 1.0, x, 3.5]), np.array([1.5, 1.0, y, 3.5]),
                                   divide)


class TestAddSub:
    def test_pi_plus_pi(self):
        x = encode(math.pi, F)
        s = add(x, x)
        assert (s.level, s.index_k) == (2, 2493)
        assert s == oracle(x, x, lambda a, b: a + b)

    def test_reciprocal_pair_crossing_one(self):
        x = encode(0.6065, F)
        s = add(x, x)
        assert s.reciprocal == 1  # 2/e > 1
        assert_within_one_ulp(s, oracle(x, x, lambda a, b: a + b))
        assert (s.level, s.index_k) == (1, 791)

    def test_zero_identities_bit_exact(self):
        z = SliNumber.zero(F)
        x = encode(-2.5, F)
        assert add(x, z) == x
        assert add(z, x) == x
        assert sub(x, z) == x
        assert sub(z, x) == neg(x)

    def test_equal_opposites_cancel(self):
        x = encode(7.25, F)
        assert add(x, neg(x)).is_zero
        assert sub(x, x).is_zero

    def test_mixed_sign_routes_to_subtract(self):
        x = encode(5.0, F)
        y = encode(-3.0, F)
        assert_within_one_ulp(add(x, y), oracle(x, y, lambda a, b: a + b))
        assert_within_one_ulp(sub(y, x), oracle(y, x, lambda a, b: a - b))

    def test_both_reciprocal_subtract(self):
        x = encode(0.5, F)
        y = encode(0.3, F)
        assert_within_one_ulp(sub(x, y), oracle(x, y, lambda a, b: a - b))
        # near-equal pair: the raw-residual branch of the reduction
        a = encode(0.9, F)
        b = encode(0.8, F)
        assert_within_one_ulp(sub(a, b), oracle(a, b, lambda a_, b_: a_ - b_))

    def test_subtract_below_one(self):
        one = SliNumber.one(F)
        y = encode(0.3, F)
        d = sub(one, y)
        assert d.reciprocal == -1
        assert_within_one_ulp(d, oracle(one, y, lambda a, b: a - b))

    def test_saturates_at_the_top(self):
        top = SliNumber.of(F, 1, 1, 4, 4095)
        s = add(top, top)
        assert (s.level, s.index_k) == (4, 4095)

    def test_commutative_bit_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            wx = BitWord(int(rng.integers(1 << F.width)), F.width)
            wy = BitWord(int(rng.integers(1 << F.width)), F.width)
            x, y = unpack(wx, F), unpack(wy, F)
            assert add(x, y) == add(y, x)


class TestMulDiv:
    def test_pi_squared(self):
        x = encode(math.pi, F)
        p = mul(x, x)
        assert (p.level, p.index_k) == (2, 3393)
        assert decode(p) == pytest.approx(9.870807937639510, rel=1e-13)

    def test_one_is_multiplicative_identity(self):
        one = SliNumber.one(F)
        for v in (math.pi, -0.0423, 1e5, 1.0, -1.0, 0.75):
            x = encode(v, F)
            assert mul(x, one) == x
            assert mul(one, x) == x
            assert div(x, one) == x

    def test_sign_algebra(self):
        x = encode(2.5, F)
        y = encode(-4.0, F)
        assert mul(x, y).sign == -1
        assert mul(y, y).sign == 1
        assert div(y, x).sign == -1
        assert mul(neg(x), y) == neg(mul(x, y))

    def test_zero_absorbs(self):
        z = SliNumber.zero(F)
        x = encode(3.0, F)
        assert mul(x, z).is_zero
        assert mul(z, z).is_zero
        assert div(z, x).is_zero

    def test_division_by_zero(self):
        z = SliNumber.zero(F)
        x = encode(3.0, F)
        with pytest.raises(ZeroDivisionError):
            div(x, z)
        with pytest.raises(ZeroDivisionError):
            div(z, z)

    def test_self_division_is_one(self):
        for v in (math.pi, 0.125, -9.5):
            x = encode(v, F)
            q = div(x, x)
            assert (q.reciprocal, q.level, q.index_k) == (1, 1, 0)
            assert q.sign == 1

    def test_reciprocal_of_e_cubed(self):
        one = SliNumber.one(F22U)
        q = div(one, encode(15.1533, F22U))
        assert (q.reciprocal, q.level, q.index_k) == (-1, 3, 0)

    def test_reciprocal_is_exact_representation_flip(self):
        one = SliNumber.one(F)
        for v in (math.pi, 42.0, 0.001, 7.5e5):
            x = encode(v, F)
            q = div(one, x)
            assert (q.level, q.index_k) == (x.level, x.index_k)
            assert q.reciprocal == -x.reciprocal
            assert div(one, q) == x  # double reciprocal restores x bit-exactly

    def test_mixed_reciprocal_product(self):
        x = encode(1000.0, F)
        y = encode(0.004, F)
        assert_within_one_ulp(mul(x, y), oracle(x, y, lambda a, b: a * b))
        assert_within_one_ulp(div(x, y), oracle(x, y, lambda a, b: a / b))
        assert_within_one_ulp(div(y, x), oracle(y, x, lambda a, b: a / b))

    def test_underflow_saturates_at_min(self):
        bottom = SliNumber.of(F, 1, -1, 4, 4095)
        p = mul(bottom, bottom)
        assert (p.reciprocal, p.level, p.index_k) == (-1, 4, 4095)


class TestCompare:
    def test_table_neighbours(self):
        lo = encode(0.1204, F22U)
        hi = encode(0.1923, F22U)
        assert compare(lo, hi) == -1
        assert compare(hi, lo) == 1
        assert compare(lo, lo) == 0

    def test_across_signs_and_zero(self):
        z = SliNumber.zero(F)
        pos = encode(0.5, F)
        neg_small = encode(-1e-4, F)
        neg_big = encode(-1e4, F)
        assert compare(neg_big, neg_small) == -1
        assert compare(neg_small, z) == -1
        assert compare(z, pos) == -1
        assert compare(neg_big, pos) == -1

    def test_huge_magnitudes_compare_exactly(self):
        # both decode to inf in binary64; the ladder still separates them
        a = SliNumber.of(F, 1, 1, 4, 3072)
        b = SliNumber.of(F, 1, 1, 4, 3073)
        assert math.isinf(decode(a)) and math.isinf(decode(b))
        assert compare(a, b) == -1

    def test_format_mismatch(self):
        with pytest.raises(ValueError):
            compare(SliNumber.one(F), SliNumber.one(F22U))


class TestMixedFormats:
    """Operands of two formats are refused before any other check."""

    @pytest.mark.parametrize("op", [add, sub, mul, div, compare])
    def test_every_binary_op_refuses_them(self, op):
        x, y = encode(2.0, F), encode(0.5, F22U)
        for a, b in ((x, y), (y, x), (SliNumber.zero(F), y), (x, SliNumber.zero(F22U))):
            with pytest.raises(ValueError, match="mixed formats"):
                op(a, b)

    def test_format_check_comes_before_a_zero_divisor(self):
        with pytest.raises(ValueError, match="mixed formats"):
            div(encode(2.0, F), SliNumber.zero(F22U))
        with pytest.raises(ValueError, match="mixed formats"):
            div(SliNumber.zero(F), SliNumber.zero(F22U))


class TestSignOps:
    def test_neg_involution(self):
        x = encode(-2.25, F)
        assert neg(neg(x)) == x
        assert neg(SliNumber.zero(F)).is_zero

    def test_neg_unsigned_rejected(self):
        with pytest.raises(ValueError):
            neg(SliNumber.one(F22U))

    def test_unsigned_sub(self):
        # The difference is representable where x >= y and negative,
        # hence refused, where y > x.
        fmt = SliFormat.from_name("sli2.12u")
        x, y = encode(3.0, fmt), encode(1.0, fmt)
        signed = sub(encode(3.0, F), encode(1.0, F))
        assert sub(x, y) == SliNumber(fmt, *signed[1:])
        assert sub(x, x).is_zero
        assert sub(x, SliNumber.zero(fmt)) == x
        with pytest.raises(ValueError, match="negative difference in unsigned sli2.12u"):
            sub(y, x)
        with pytest.raises(ValueError, match="cannot negate"):
            sub(SliNumber.zero(fmt), y)

    def test_absolute(self):
        x = encode(-3.5, F)
        assert absolute(x) == encode(3.5, F)
        assert absolute(absolute(x)) == absolute(x)
        assert absolute(SliNumber.zero(F)).is_zero


class TestSequenceSanity:
    def test_results_stay_within_one_level_of_zx(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            zx = psi(10.0 ** rng.uniform(-6, 6))
            zy = psi(10.0 ** rng.uniform(-6, 6))
            if zx < zy:
                zx, zy = zy, zx
            subtract = bool(rng.integers(2))
            w = li_add_sub(zx, zy, subtract=subtract)
            assert 0.0 <= w <= zx + 1.0
            # A sum never shrinks the larger magnitude, a difference never grows it.
            assert w <= zx if subtract else w >= zx


class TestMagnitudeOrder:
    def test_r_zeta_order_is_rank_order(self):
        # The scalar add and sub order their operands by r (zeta - 1),
        # where zeta - 1 is exactly the rank's offset from one over
        # 2**index_bits; lanes.add orders on the keys' r m instead.
        fmt = SliFormat(2, 4)
        nums = [n for n in (unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width))
                if not n.is_zero]
        assert len(nums) == 2 * (2 * fmt.max_level * fmt.index_scale - 1)
        order = [(n.reciprocal * (n.zeta - 1.0), magnitude_rank(n)) for n in nums]
        for ox, rx in order:
            for oy, ry in order:
                assert (ox > oy) - (ox < oy) == (rx > ry) - (rx < ry)


class TestKernelNames:
    def test_ops_reach_the_kernels_by_name(self, monkeypatch):
        # The benchmark counts kernel calls by wrapping arith.li_add_sub
        # and arith.li_mul_div wherever they are bound; every scalar and
        # lane op must still call them through those names.
        calls = {"li_add_sub": 0, "li_mul_div": 0}

        def counting(name):
            kernel = getattr(arith, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(arith, name, counting(name))
        x, y = encode(3.5, F), encode(0.25, F)
        keys = np.array([_key(x), _key(y)])
        for name, run, kernel in (
            ("add", lambda: add(x, y), "li_add_sub"),
            ("sub", lambda: sub(x, y), "li_add_sub"),
            ("mul", lambda: mul(x, y), "li_mul_div"),
            ("div", lambda: div(x, y), "li_mul_div"),
            ("lanes.add", lambda: lanes.add(keys, keys[::-1], F), "li_add_sub"),
            ("lanes.mul", lambda: lanes.mul(keys, keys[::-1], F), "li_mul_div"),
        ):
            before = calls[kernel]
            run()
            assert calls[kernel] > before, f"{name} does not reach arith.{kernel}"


class TestOracleEquivalence:
    OPS = [
        ("add", add, lambda a, b: a + b),
        ("sub", sub, lambda a, b: a - b),
        ("mul", mul, lambda a, b: a * b),
        ("div", div, lambda a, b: a / b),
    ]

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(31337)
        for _ in range(500):
            x = encode(float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-6, 6), F)
            y = encode(float(rng.choice([-1, 1])) * 10.0 ** rng.uniform(-6, 6), F)
            for name, fn, ref in self.OPS:
                assert_within_one_ulp(fn(x, y), oracle(x, y, ref))

    def test_every_sli1_4_pair_is_exact(self):
        # One level bit keeps every magnitude inside binary64, where the
        # once-rounded binary64 result is the reference.  All word pairs
        # reach every add/sub branch.  Among them are sums of two
        # magnitudes below one that reach one or more, and differences
        # whose ln(1 - r) term outweighs phi(zb - 1) (_mag_add_sub).
        fmt = SliFormat(1, 4)
        nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
        checked = 0
        for x in nums:
            for y in nums:
                for name, fn, ref in self.OPS:
                    if name == "div" and y.is_zero:
                        with pytest.raises(ZeroDivisionError):
                            fn(x, y)
                        continue
                    assert fn(x, y) == oracle(x, y, ref), (name, str(x), str(y))
                    checked += 1
        assert checked == 65280

    # Sums and differences of two magnitudes below one whose smaller
    # operand is a level-4 or level-5 reciprocal, so that the exact result
    # lies a hair from the larger operand: (format, op, x word, y word,
    # the word bench/oracle.py rounds x op y to at 80 digits).
    BELOW_ONE = [
        ("sli3.5", "add", 71, 660, 71),
        ("sli3.5", "sub", 1, 134, 1),
        ("sli2.24", "add", 149877161, 201110368, 149877161),
        ("sli2.24", "add", 201262838, 151781430, 151781430),
        ("sli2.24", "sub", 201178915, 32276913, 166494641),
        ("sli2.24", "sub", 66917449, 11723279, 145941007),
        ("sli2.23", "add", 67211828, 100575075, 67211828),
        ("sli2.23", "sub", 33500445, 72503910, 5395046),
        ("sli2.23", "sub", 33550150, 3233510, 70342374),
    ]

    @pytest.mark.parametrize("name, op, bx, by, want", BELOW_ONE)
    def test_sums_below_one_match_oracle_words(self, name, op, bx, by, want):
        fmt = SliFormat.from_name(name)
        x, y = (unpack(BitWord(b, fmt.width), fmt) for b in (bx, by))
        assert pack({"add": add, "sub": sub}[op](x, y)).bits == want

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    def test_closure_on_random_words(self, bx, by):
        x = unpack(BitWord(bx, 16), F)
        y = unpack(BitWord(by, 16), F)
        for name, fn, _ in self.OPS:
            try:
                r = fn(x, y)
            except ZeroDivisionError:
                assert name == "div" and y.is_zero
                continue
            assert isinstance(r, SliNumber)
            assert not math.isnan(decode(r))


class TestExhaustiveSmallFormats:
    """Every word pair of small formats through the four scalar ops.

    The sha256 of the packed result words (two bytes each, b"Z" for
    ZeroDivisionError, b"N" for the ValueError of a negative result in
    an unsigned format) pins the rounded results bit for bit.  sli1.3
    was recorded before SliNumber and BitWord became tuple-backed,
    sli2.3u once sub gave the unsigned differences x - y for x >= y,
    and sli3.2 (7 bits, levels up to 8 and both reciprocal halves)
    before mul and div shared one path.
    """

    DIGESTS = {
        "sli1.3": "8e88db746189abe762071095174bd329083449b2b545b6a5147cb4babb32ef1d",
        "sli2.3u": "6ac2ff306bd7696d13ac0a1aa4701f1e1046a816f765c3bde1b599c9e95eb078",
        "sli3.2": "93faadfa1c4e8f28c5b2a8201de271111d207c00fe15b68d2272aef1be2947c1",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_packed_results_are_pinned(self, name):
        fmt = SliFormat.from_name(name)
        nums = [unpack(BitWord(bits, fmt.width), fmt) for bits in range(1 << fmt.width)]
        assert _packed_results_digest([(x, y) for x in nums for y in nums]) == self.DIGESTS[name]


def _packed_results_digest(pairs) -> str:
    """sha256 of add, sub, mul and div over the (x, y) pairs, op by op:
    each result's packed word in two bytes, b"Z" for ZeroDivisionError
    and b"N" for the ValueError of a negative unsigned result."""
    h = hashlib.sha256()
    for op in (add, sub, mul, div):
        for x, y in pairs:
            try:
                h.update(pack(op(x, y)).bits.to_bytes(2, "big"))
            except ZeroDivisionError:
                h.update(b"Z")
            except ValueError:
                h.update(b"N")
    return h.hexdigest()


class TestSampledSli212:
    """The four scalar ops over a seeded sample of sli2.12 word pairs.

    sli2.12 (16 bits) is too wide to run every pair, so the sample takes
    uniform words (levels 1 to 4, both reciprocal halves, both signs),
    each against its upper neighbour with like and unlike signs (near
    cancellation in sub and add), zero and negative-zero operands, each
    against itself and its negation (exact cancellation), and words of
    the top and bottom 64 magnitudes (products and quotients that
    saturate).  The digest, as TestExhaustiveSmallFormats takes it, was
    recorded before unpack read its fields from a table.
    """

    DIGEST = "e974be437bf05d562f38c566b859a8741b0b464e52f00a59e141914ed93d6a2d"

    @staticmethod
    def pairs() -> list[tuple[SliNumber, SliNumber]]:
        fmt = SliFormat(2, 12)
        # random() is the one stream Python keeps the same across versions.
        rng = random.Random(2412)

        def word(n: int = 1 << 16, base: int = 0) -> SliNumber:
            return unpack(BitWord(base + int(rng.random() * n), 16), fmt)

        def signed(num: SliNumber) -> SliNumber:
            return neg(num) if rng.random() < 0.5 else num

        pairs = [(word(), word()) for _ in range(1200)]
        for _ in range(300):
            x = word(0x7FFF, 1)  # below the top, so next_up exists
            if x.is_zero:
                continue
            y = next_up(x)
            pairs += [(x, y), (x, neg(y)), (y, x)]
        for zero in (0, 0x8000):
            z = unpack(BitWord(zero, 16), fmt)
            pairs += [(z, z)]
            for _ in range(40):
                x = word()
                pairs += [(z, x), (x, z)]
        for _ in range(200):
            x = word()
            pairs += [(x, x), (x, neg(x))]

        def extreme(high: int) -> SliNumber:  # one of the 64 magnitudes up to high's
            return signed(word(64, high - 63))

        ends = (0x7FFF, 0x3FFF)  # the largest and the smallest magnitude
        for _ in range(50):
            pairs += [(extreme(a), extreme(b)) for a in ends for b in ends]
        return pairs

    def test_packed_results_are_pinned(self):
        assert _packed_results_digest(self.pairs()) == self.DIGEST


class TestLaneForms:
    """The array forms give the scalar ops' rounded results bit for bit;
    the array kernels stay within their bounds of the scalar kernels."""

    @staticmethod
    def keys(nums: list[SliNumber]) -> np.ndarray:
        return np.array([_key(n) for n in nums], dtype=np.int64)

    @staticmethod
    def numbers(fmt: SliFormat, keys: np.ndarray) -> list[SliNumber]:
        return [_from_key(fmt, k) for k in keys.tolist()]

    def test_kernels_stay_within_their_bounds(self):
        rng = np.random.default_rng(7)
        # Descriptors from raw (below one) up to level 5, with ties and
        # equal pairs, whose difference must cancel to exactly 0.0.
        zx = np.round(rng.uniform(0.0, 6.0, 4000), 3)
        zy = np.minimum(zx, np.round(rng.uniform(0.0, 6.0, 4000), 3))
        zy[::7] = zx[::7]
        subtract = rng.random(4000) < 0.5
        got, bound = li_add_sub(zx, zy, subtract)
        want = np.array([li_add_sub(a, b, s)
                         for a, b, s in zip(zx.tolist(), zy.tolist(), subtract.tolist())])
        cancel = subtract & (zx == zy)
        assert cancel.sum() > 200
        assert not (got[cancel].any() or want[cancel].any() or bound[cancel].any())
        assert np.all(np.abs(got - want) <= bound)
        # A bound is given up only where phi(zeta_x) leaves binary64
        # (zeta_x above about 4.64), and the others are a few ulps.
        assert np.all(zx[np.isinf(bound)] > 4.6)
        assert bound[np.isfinite(bound)].max() < 1e-12
        # phi(4.633) is about e**720, so its reciprocal rung is subnormal,
        # where no relative bound holds.
        assert np.isinf(li_add_sub(np.array([4.633]), np.array([2.5]))[1]).all()
        zx, zy = zx + 1.0, zy[::-1] + 1.0  # unordered, descriptors >= 1
        zy[::9] = zx[::9]
        w, flipped, bound = li_mul_div(zx, zy, subtract)
        want = [li_mul_div(a, b, s) for a, b, s in zip(zx.tolist(), zy.tolist(), subtract.tolist())]
        assert flipped.tolist() == [f for _, f in want]
        assert np.all(np.abs(w - [v for v, _ in want]) <= bound)
        equal = subtract & (zx == zy)
        assert equal.any() and np.all(w[equal] == 1.0)

    def test_kernels_take_a_reciprocal_y(self):
        # With reciprocal_y, Y is 1/phi(zeta_y), which both kernels feed
        # as its a_0; the array lanes take a_0 from their own rung run and
        # stay within their bounds of the scalar kernel.
        rng = np.random.default_rng(13)
        zx = np.round(rng.uniform(1.0, 6.0, 3000), 3)
        zy = np.round(rng.uniform(1.001, 6.0, 3000), 3)
        inverted = rng.random(3000) < 0.5
        zy[~inverted] = np.minimum(zx, zy)[~inverted]
        subtract = rng.random(3000) < 0.5
        got, bound = li_add_sub(zx, zy, subtract, reciprocal_y=inverted)
        cases = list(zip(zx.tolist(), zy.tolist(), subtract.tolist(), inverted.tolist()))
        want = np.array([li_add_sub(a, b, s, reciprocal_y=r) for a, b, s, r in cases])
        assert np.all(np.abs(got - want) <= bound)
        assert np.isfinite(bound[inverted]).mean() > 0.5
        a_0 = [arith._ladder(b, 0.0)[0][0] for b in zy.tolist()]
        assert [w for w, r in zip(want.tolist(), inverted.tolist()) if r] == [
            li_add_sub(a, y, s) for (a, _, s, r), y in zip(cases, a_0) if r]
        # 1/phi(1) is one, not a Y below one.
        with pytest.raises(ValueError, match="zeta_y > 1"):
            li_add_sub(2.0, 1.0, reciprocal_y=True)
        with pytest.raises(ValueError, match="zeta_y > 1"):
            li_add_sub(np.array([2.0]), np.array([1.0]), reciprocal_y=True)

    def test_kernel_bounds_hold_against_a_perturbed_numpy(self, perturbed_numpy):
        # The lanes claim their results on any host whose numpy is
        # within _TRANS of libm; these bounds must cover such a numpy.
        self.test_kernels_stay_within_their_bounds()
        self.test_kernels_take_a_reciprocal_y()

    @staticmethod
    def unrounded(scalar_module, lane_call, scalar_calls):
        """Per lane the zeta and err lane_call() hands _materialize_lanes,
        and the zeta each of scalar_calls hands scalar_module's
        _materialize."""
        lane_round, scalar_round = lanes._materialize_lanes, scalar_module._materialize
        got, want = [], []

        def lane_spy(fmt, sign, reciprocal, zeta, err, op):
            got.append((zeta.copy(), err.copy()))
            return lane_round(fmt, sign, reciprocal, zeta, err, op)

        def scalar_spy(fmt, sign, reciprocal, zeta):
            want.append(zeta)
            return scalar_round(fmt, sign, reciprocal, zeta)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lanes, "_materialize_lanes", lane_spy)
            lane_call()
            patch.setattr(scalar_module, "_materialize", scalar_spy)
            for call in scalar_calls:
                call()
        (zeta, err), = got
        assert len(want) == zeta.size
        return zeta, err, np.array(want)

    @pytest.mark.parametrize("fmt", [F, SliFormat(2, 20)], ids=["sli2.12", "sli2.20"])
    def test_sums_below_one_stay_within_their_bounds(self, fmt, perturbed_numpy):
        # lanes.add with both operands below one: t from log1p and psi,
        # then one kernel run.  Neighbours 1-3 ranks apart, like and
        # unlike signs, so r = b_0 comes near one and 1 -/+ r near 2 or 0.
        rng = np.random.default_rng(31)
        n = 1500
        m = rng.integers(1, fmt.max_level * fmt.index_scale - 4, n)  # r = -1, from level 1
        sign = rng.choice([-1, 1], n)
        x = _key_of(fmt, sign, -1, 1, m)
        y = _key_of(fmt, sign * rng.choice([-1, 1], n), -1, 1, m + rng.integers(1, 4, n))
        xs, ys = [_from_key(fmt, k) for k in x.tolist()], [_from_key(fmt, k) for k in y.tolist()]
        zeta, err, want = self.unrounded(arith, lambda: lanes.add(x, y, fmt),
                                         [lambda a=a, b=b: add(a, b) for a, b in zip(xs, ys)])
        finite = np.isfinite(err)
        assert np.count_nonzero(finite) > n // 2
        assert np.all(np.abs(zeta - want)[finite] <= err[finite])

    def test_encode_stays_within_its_bound(self, perturbed_numpy):
        # lanes.encode's psi of |ln |x||, from subnormals to near the top
        # of binary64, values near one among them.
        rng = np.random.default_rng(37)
        values = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-323.5, 308.2, 3000)
        values[:200] = 1.0 + rng.uniform(-1e-6, 1e-6, 200)
        values[200:208] = [5e-324, 1e-310, 2.2e-308, 1.7e308, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
                           math.e, 1 / math.e]
        for fmt in (F, SliFormat(2, 20)):
            zeta, err, want = self.unrounded(
                core, lambda: lanes.encode(values, fmt),
                [lambda v=v: encode(v, fmt) for v in values.tolist()])
            assert np.all(np.isfinite(err))
            assert np.all(np.abs(zeta - want) <= err)

    def test_h_clamp_on_a_pinned_pair(self):
        # phi(zx) - phi(zy) = e**0.903... - e**0.383... is one, phi(1), up
        # to rounding: the ladder stops at c_0 = exp(-f) computed, where
        # f + ln c_0 comes out -2**-53 in libm and in numpy alike.  Both
        # kernels clamp that h to 0 and return 1.0 on the nose.
        zx, zy = 1.9032958721069146, 1.3837122354075024
        assert li_add_sub(zx, zy, subtract=True) == 1.0
        got, bound = li_add_sub(np.array([zx]), np.array([zy]), True)
        assert got.tolist() == [1.0] and bound[0] < 1e-13

    def test_kernel_err_terms_may_be_lists(self):
        # A list err term of the descriptors' length is taken as its
        # array; one of another length is refused like an array.
        zx, zy = np.array([2.5, 3.0]), np.array([1.5, 1.0])
        subtract = np.array([False, True])
        ex, ey = [1e-15, 0.0], [0.0, 2e-15]
        got = li_add_sub(zx, zy, subtract, err=(ex, ey))
        want = li_add_sub(zx, zy, subtract, err=(np.array(ex), np.array(ey)))
        assert [v.tolist() for v in got] == [v.tolist() for v in want]
        got = li_add_sub(zx, zy, err=([0.0, 0.0], 0.0))
        want = li_add_sub(zx, zy, err=(np.zeros(2), 0.0))
        assert [v.tolist() for v in got] == [v.tolist() for v in want]
        with pytest.raises(ValueError, match="1-D descriptor arrays of one length"):
            li_add_sub(zx, zy, err=([0.0], 0.0))

    def test_kernel_domain_holds_for_arrays(self):
        with pytest.raises(ValueError, match="zeta_x >= zeta_y"):
            li_add_sub(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="zeta_x >= zeta_y >= 0"):  # the shifted pair's
            li_mul_div(np.array([2.0, 0.5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("fmt", [SliFormat(1, 4), F, SliFormat(2, 24), SliFormat(3, 8),
                                     SliFormat(4, 4), SliFormat(6, 2), SliFormat(4, 8, False)],
                             ids=["sli1.4", "sli2.12", "sli2.24", "sli3.8", "sli4.4",
                                  "sli6.2", "sli4.8u"])
    def test_add_and_mul_match_scalar_ops(self, fmt):
        if fmt.width <= 8:  # every word pair
            nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
            xs = [x for x in nums for _ in nums]
            ys = [y for _ in nums for y in nums]
        else:  # random words, each also against its upper neighbour, negated if signed
            rng = np.random.default_rng(11)
            top = 2 * ((1 << (fmt.level_bits + fmt.index_bits)) - 1)
            ranks = rng.integers(0, top, 3000).tolist()
            if fmt.signed:
                signs = rng.choice([-1, 1], 3000).tolist()
                xs = [_from_key(fmt, s * (r + 1)) for s, r in zip(signs, ranks)]
                ys = [_from_key(fmt, -s * (r + 2)) for s, r in zip(signs, ranks)]
            else:
                xs = [_from_key(fmt, r + 1) for r in ranks]
                ys = [_from_key(fmt, r + 2) for r in ranks]
            ys[:1000] = [unpack(BitWord(int(b), fmt.width), fmt)
                         for b in rng.integers(0, 1 << fmt.width, 1000)]
            if fmt.signed:
                ys[1000:1100] = [neg(x) for x in xs[1000:1100]]  # exact cancellation
            # 30 more lanes: zero against random words and against zero.
            zero = SliNumber.zero(fmt)
            words = [unpack(BitWord(int(b), fmt.width), fmt)
                     for b in rng.integers(0, 1 << fmt.width, 20)]
            xs += [zero] * 20 + words[:10]
            ys += words[10:] + [zero] * 20
        for lane_op, op in ((lanes.add, add), (lanes.mul, mul)):
            got = lane_op(self.keys(xs), self.keys(ys), fmt)
            want = [op(x, y) for x, y in zip(xs, ys)]
            assert self.numbers(fmt, got) == want, lane_op.__name__

    @pytest.mark.parametrize("fmt", [F, SliFormat(3, 8)], ids=["sli2.12", "sli3.8"])
    def test_small_reciprocals_above_every_big_level(self, fmt, monkeypatch):
        # Every small operand is below one, at a higher level than every
        # big operand, which is at least one: all lanes are reciprocal Ys
        # of the kernel, so the top level of lanes.add's one rung run comes
        # from their stacked lanes.  Sums and differences, either order.
        rng = np.random.default_rng(23)
        n, scale = 400, fmt.index_scale
        big = [SliNumber(fmt, False, int(s), 1, int(lv), int(k)) for s, lv, k in zip(
            rng.choice([-1, 1], n), rng.integers(1, 3, n), rng.integers(0, scale, n))]
        small = [SliNumber(fmt, False, int(s), -1, int(lv), int(k)) for s, lv, k in zip(
            rng.choice([-1, 1], n), rng.integers(3, fmt.max_level + 1, n), rng.integers(0, scale, n))]
        xs, ys = big[:n // 2] + small[n // 2:], small[:n // 2] + big[n // 2:]
        tops = []
        rungs = lanes._rungs_lanes

        def spying(zx, ex):
            tops.append(int(zx.max()))
            return rungs(zx, ex)

        monkeypatch.setattr(lanes, "_rungs_lanes", spying)
        got = lanes.add(self.keys(xs), self.keys(ys), fmt)
        assert tops == [fmt.max_level]
        assert self.numbers(fmt, got) == [add(x, y) for x, y in zip(xs, ys)]

    def test_one_rung_run_per_add(self, monkeypatch):
        # Lanes whose small operand is below one under a big one at least
        # one (positive sums as in the matvec, small terms among them) take
        # their a_0 from the kernel's rung run: one run per lanes.add call
        # unless some lanes have both operands below one.
        runs = []
        rungs = lanes._rungs_lanes

        def counting(zx, ex):
            runs.append(zx.size)
            return rungs(zx, ex)

        monkeypatch.setattr(lanes, "_rungs_lanes", counting)
        rng = np.random.default_rng(5)
        acc = lanes.encode(rng.uniform(1.0, 1e4, 600), F)
        terms = lanes.encode(rng.uniform(0.0, 100.0, 600) * rng.uniform(0.0, 1.0, 600), F)
        chain = np.count_nonzero(lanes.decode(terms, F) < 1.0)
        assert chain > 10
        got = lanes.add(acc, terms, F)
        assert runs == [600 + chain]
        xs, ys = self.numbers(F, acc), self.numbers(F, terms)
        assert self.numbers(F, got) == [add(x, y) for x, y in zip(xs, ys)]

    def test_sums_below_one_with_a_subnormal_rung(self):
        # The ladders of phi(5 + 162/256) and phi(6 + 162/256) have a
        # subnormal rung, below which the lane b_0 of x against itself is
        # NaN; such lanes go to the scalar op, not into the kernel.
        fmt = SliFormat(3, 8)
        xs = [SliNumber(fmt, False, 1, -1, 5, 162), SliNumber(fmt, False, -1, -1, 6, 162)]
        got = lanes.add(self.keys(xs), self.keys(xs), fmt)
        assert self.numbers(fmt, got) == [add(x, x) for x in xs]

    def test_fallback_gives_the_scalar_ops(self, monkeypatch):
        # Widen the bound of every lane that rounds to inf: each one is
        # redone by the scalar op and written back into its lane.
        redone = []
        redo = lanes._redo
        materialize = lanes._materialize_lanes

        def counting(keys, mask, op):
            redone.append(int(np.count_nonzero(mask)))
            return redo(keys, mask, op)

        def widened(fmt, sign, reciprocal, zeta, err, op):
            err = np.where(zeta > 0.0, math.inf, err)
            return materialize(fmt, sign, reciprocal, zeta, err, op)

        monkeypatch.setattr(lanes, "_redo", counting)
        monkeypatch.setattr(lanes, "_materialize_lanes", widened)
        fmt = SliFormat(1, 4)
        nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
        xs = [x for x in nums for _ in nums]
        ys = [y for _ in nums for y in nums]
        for lane_op, op in ((lanes.add, add), (lanes.mul, mul)):
            got = lane_op(self.keys(xs), self.keys(ys), fmt)
            assert self.numbers(fmt, got) == [op(x, y) for x, y in zip(xs, ys)]
            # Zero operands and exact cancellations are settled without
            # rounding; every other lane went to the scalar op.
            cancel = sum(x == neg(y) for x, y in zip(xs, ys) if not x.is_zero)
            assert cancel > 0
            rounded = sum(not (x.is_zero or y.is_zero) for x, y in zip(xs, ys))
            assert redone.pop() == rounded - (cancel if op is add else 0)
        values = [decode(n) for n in nums]
        values += [(u + v) / 2 for u, v in zip(values, values[1:])]  # ties, too
        got = lanes.encode(np.array(values), fmt)
        assert self.numbers(fmt, got) == [encode(v, fmt) for v in values]
        assert redone == [sum(v != 0.0 for v in values)]


class TestDunderOps:
    def test_operator_sugar(self):
        x = encode(2.0, F)
        y = encode(3.0, F)
        assert (x + y) == add(x, y)
        assert (x - y) == sub(x, y)
        assert (x * y) == mul(x, y)
        assert (x / y) == div(x, y)
        assert -x == neg(x)
        assert abs(-x) == x
