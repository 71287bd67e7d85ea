"""Kernel and operation tests for SLI arithmetic.

Rounded results are judged against the oracle encode(decode(x) op
decode(y)): exact binary64 op on the decoded operands, rounded once.
Agreement within one position on the magnitude ladder is the
correctness bar wherever the kernel result is not forced exactly.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliarith import arith, core
from sliarith.arith import (
    _add_lanes,
    _mul_lanes,
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
    _from_rank,
    _encode_lanes,
    _Lanes,
    decode,
    encode,
    magnitude_rank,
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
        with pytest.raises(ValueError):
            li_mul_div(0.5, 2.0)
        with pytest.raises(ValueError):
            li_mul_div(2.0, math.nan)


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
        # reach every add/sub branch, including the raw difference of two
        # magnitudes below one.
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
    """Every word pair of two 6-bit formats through the four scalar ops.

    The sha256 of the packed result words (two bytes each, b"Z" for
    ZeroDivisionError, b"N" for the ValueError of a negative result in
    an unsigned format) pins the rounded results bit for bit.  sli1.3
    was recorded before SliNumber and BitWord became tuple-backed, and
    sli2.3u once sub gave the unsigned differences x - y for x >= y.
    """

    DIGESTS = {
        "sli1.3": "8e88db746189abe762071095174bd329083449b2b545b6a5147cb4babb32ef1d",
        "sli2.3u": "6ac2ff306bd7696d13ac0a1aa4701f1e1046a816f765c3bde1b599c9e95eb078",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_packed_results_are_pinned(self, name):
        fmt = SliFormat.from_name(name)
        nums = [unpack(BitWord(bits, fmt.width), fmt) for bits in range(1 << fmt.width)]
        h = hashlib.sha256()
        for op in (add, sub, mul, div):
            for x in nums:
                for y in nums:
                    try:
                        h.update(pack(op(x, y)).bits.to_bytes(2, "big"))
                    except ZeroDivisionError:
                        h.update(b"Z")
                    except ValueError:
                        h.update(b"N")
        assert h.hexdigest() == self.DIGESTS[name]


class TestLaneForms:
    """The array forms give the scalar ops' rounded results bit for bit;
    the array kernels stay within their bounds of the scalar kernels."""

    @staticmethod
    def fields(n: SliNumber) -> tuple:
        return (n.is_zero, n.sign, n.reciprocal, n.level, n.index_k)

    def lanes(self, nums: list[SliNumber]) -> _Lanes:
        return _Lanes(*(np.array(f) for f in zip(*map(self.fields, nums))))

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

    def test_h_clamp_on_a_pinned_pair(self):
        # phi(zx) - phi(zy) = e**0.903... - e**0.383... is one, phi(1), up
        # to rounding: the ladder stops at c_0 = exp(-f) computed, where
        # f + ln c_0 comes out -2**-53 in libm and in numpy alike.  Both
        # kernels clamp that h to 0 and return 1.0 on the nose.
        zx, zy = 1.9032958721069146, 1.3837122354075024
        assert li_add_sub(zx, zy, subtract=True) == 1.0
        got, bound = li_add_sub(np.array([zx]), np.array([zy]), True)
        assert got.tolist() == [1.0] and bound[0] < 1e-13

    def test_kernel_domain_holds_for_arrays(self):
        with pytest.raises(ValueError, match="zeta_x >= zeta_y"):
            li_add_sub(np.array([2.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=">= 1"):
            li_mul_div(np.array([2.0, 0.5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("fmt", [SliFormat(1, 4), F], ids=["sli1.4", "sli2.12"])
    def test_add_and_mul_match_scalar_ops(self, fmt):
        if fmt.width <= 8:  # every word pair
            nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
            xs = [x for x in nums for _ in nums]
            ys = [y for _ in nums for y in nums]
        else:  # random words, each also against its negated upper neighbour
            rng = np.random.default_rng(11)
            top = 2 * ((1 << (fmt.level_bits + fmt.index_bits)) - 1)
            ranks = rng.integers(0, top, 3000).tolist()
            signs = rng.choice([-1, 1], 3000).tolist()
            xs = [_from_rank(fmt, s, r) for s, r in zip(signs, ranks)]
            ys = [_from_rank(fmt, -s, r + 1) for s, r in zip(signs, ranks)]
            ys[:1000] = [unpack(BitWord(int(b), fmt.width), fmt)
                         for b in rng.integers(0, 1 << fmt.width, 1000)]
            ys[1000:1100] = [neg(x) for x in xs[1000:1100]]  # exact cancellation
        for lane_op, op in ((_add_lanes, add), (_mul_lanes, mul)):
            got = lane_op(fmt, self.lanes(xs), self.lanes(ys))
            want = [self.fields(op(x, y)) for x, y in zip(xs, ys)]
            assert list(zip(*(f.tolist() for f in got))) == want, lane_op.__name__

    def test_fallback_gives_the_scalar_ops(self, monkeypatch):
        # Widen the tie band to everything: every lane that rounds is
        # redone by the scalar op and written back into its lane.
        redone = []
        redo = _Lanes.redo

        def counting(lanes, mask, op):
            redone.append(int(np.count_nonzero(mask)))
            return redo(lanes, mask, op)

        def everything(zeta, err, fmt):
            return np.ones(zeta.shape, dtype=bool)

        monkeypatch.setattr(_Lanes, "redo", counting)
        monkeypatch.setattr(arith, "_unsettled", everything)
        monkeypatch.setattr(core, "_unsettled", everything)
        fmt = SliFormat(1, 4)
        nums = [unpack(BitWord(b, fmt.width), fmt) for b in range(1 << fmt.width)]
        xs = [x for x in nums for _ in nums]
        ys = [y for _ in nums for y in nums]
        for lane_op, op in ((_add_lanes, add), (_mul_lanes, mul)):
            got = lane_op(fmt, self.lanes(xs), self.lanes(ys))
            want = [op(x, y) for x, y in zip(xs, ys)]
            assert list(zip(*(f.tolist() for f in got))) == list(map(self.fields, want))
            # Zero operands and exact cancellations are settled without
            # rounding; every other lane went to the scalar op.
            cancel = sum(x == neg(y) for x, y in zip(xs, ys) if not x.is_zero)
            assert cancel > 0
            rounded = sum(not (x.is_zero or y.is_zero) for x, y in zip(xs, ys))
            assert redone.pop() == rounded - (cancel if op is add else 0)
        values = [decode(n) for n in nums]
        values += [(u + v) / 2 for u, v in zip(values, values[1:])]  # ties, too
        got = _encode_lanes(np.array(values), fmt)
        assert list(zip(*(f.tolist() for f in got))) == [
            self.fields(encode(v, fmt)) for v in values]
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
