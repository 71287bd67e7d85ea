"""Bulk arithmetic: many numbers at once, one array element ("lane") each.

encode(values, fmt), decode(lanes, fmt), add(x, y, fmt) and mul(x, y,
fmt) take 1-D arrays of one length and an SLI or a float format, checked
here only, and give per lane the number of the scalar encode, decode,
add and mul, or of fl and fl_op.  A float lane is its binary64 value; an
SLI lane is the int64 key of its value, written and read by core's
_key_of and _key_fields as for one value, so integer order on keys is
value order.  Either way -x negates a lane, so a signed format
subtracts with add(x, -y, fmt).  enumerate_values(fmt, raw) lists every
word of an SLI or a float format, a block of 2048 words at a time, for
the value tables.

The SLI lanes run the scalar ops' own kernel arithmetic: the loops of
the compiled kernel (_kernel.c) that the scalar ops call one value at a
time, here once over contiguous arrays, so every unrounded lane result
is the scalar op's binary64.  The lanes' numpy code only orders, selects
and rounds, all of it exact.  Each add and mul call is one kernel run
over all its lanes.  Where add's small operand is below one and its big
one is not, the kernel takes the small one as a reciprocal Y
(li_add_sub's reciprocal_y).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import arith
from ._kernel import ffi as _ffi, lib as _lib
from .core import SliFormat, _key_fields, _key_of, word_fields
from .minifloat import FloatFormat

__all__ = ["encode", "decode", "add", "mul", "enumerate_values"]

# Widest format whose every word may be listed (enumerate_values and the
# value tables).  Words are listed a block at a time, so memory stays flat
# and the cap bounds run time: 24 bits is 16.8 million rows.
MAX_TABLE_BITS = 24
_TABLE_BLOCK = 1 << 11  # words per block of an enumeration


def _checked(fmt: SliFormat | FloatFormat | None, *arrays) -> list[np.ndarray]:
    """The arrays, checked to be 1-D and of one length: int64 keys of an
    SLI fmt, else binary64 values."""
    sli = isinstance(fmt, SliFormat)
    out = [np.asarray(a) if sli else np.asarray(a, dtype=np.float64) for a in arrays]
    if any(a.ndim != 1 for a in out) or len({a.size for a in out}) != 1:
        raise ValueError(f"lanes must be 1-D arrays of one length, got {[a.shape for a in out]}")
    end = 2 << (fmt.level_bits + fmt.index_bits) if sli else 0  # past the top key
    for keys in out if sli else ():
        if keys.dtype != np.int64:
            raise ValueError(f"{fmt.name} lanes must be int64 keys, got {keys.dtype}")
        off = (keys >= end) | (keys <= (-end if fmt.signed else -1))
        if np.count_nonzero(off):
            raise ValueError(f"key {keys[off][0]} outside the {fmt.name} ladder")
    return out


def encode(values, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """encode, or fl, per lane of a 1-D binary64 array, with the same
    errors: SLI lanes come back as keys, float lanes as values."""
    (values,) = _checked(None, values)
    if isinstance(fmt, FloatFormat):
        # fl's steps, with np.rint for round() (both tie to even).
        if not fmt.signed and np.any(values < 0.0):
            raise ValueError(f"cannot round negative value into unsigned {fmt.name}")
        a = np.abs(values)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.frexp(a)[1] - 1
            shift = np.maximum(e, fmt.e_min) - (fmt.precision - 1)
            out = np.copysign(np.ldexp(np.rint(np.ldexp(a, -shift)), shift), values)
        big = a >= fmt.overflow_threshold
        out[big] = np.copysign(np.inf, values[big])
        keep = np.isnan(values) | np.isinf(values) | (values == 0.0)
        out[keep] = values[keep]
        if not fmt.signed:
            out[values == 0.0] = 0.0  # no -0.0, as in fl
        return out
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"cannot encode non-finite value {values[bad][0]}")
    negative = values < 0.0
    if not fmt.signed and negative.any():
        raise ValueError(f"cannot encode negative value in unsigned {fmt.name}")
    a = np.abs(values)
    # encode's zeta per lane; a zero lane's is 0, which rounds to zero.
    zeta = _loop(_lib.encode_zeta_lanes, (a,))[0]
    return _materialize_lanes(fmt, np.where(negative, -1, 1), np.where(a >= 1.0, 1, -1), zeta)


def decode(lanes, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """The binary64 value of every lane: decode's for SLI, a copy for floats."""
    (lanes,) = _checked(fmt, lanes)
    if isinstance(fmt, FloatFormat):
        return lanes.copy()
    # Lanes repeat words (a sweep's points share their nearest values), so
    # each distinct magnitude is decoded once and spread back.
    keys, inverse = np.unique(np.abs(lanes), return_inverse=True)
    zero, _, reciprocal, _, zeta = _key_fields(keys, fmt)
    return np.where(lanes < 0, -1, 1) * _magnitudes(zero, reciprocal, zeta)[inverse]


def _magnitudes(zero, reciprocal, zeta) -> np.ndarray:
    """decode's |value| per lane of the zero flags, reciprocal flags and
    zetas: phi of zeta, inverted below one (1/inf is 0.0, as in decode),
    and 0.0 for a zero lane."""
    mag = _loop(_lib.phi_lanes, (zeta,))[0]
    mag[zero] = 0.0
    below = reciprocal < 0
    mag[below] = 1.0 / mag[below]
    return mag


def add(x, y, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """add, or fl_op's "+", per lane of x and y: one kernel run for all
    SLI lanes, zero lanes included (they read as one)."""
    x, y = _checked(fmt, x, y)
    if isinstance(fmt, FloatFormat):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in fl_op
            return encode(x + y, fmt)
    # Row 0 of each field is x's, row 1 y's.
    zero, sign, rec, m, z = _key_fields(np.array((x, y)), fmt)
    # r m orders magnitudes as the keys do; big is y where swap, else x,
    # and small the other one.
    order = rec * m
    swap = order[0] < order[1]
    bz, sz = np.where(swap, z[::-1], z)
    big_rec, small_rec = np.where(swap, rec[::-1], rec)
    up = big_rec > 0
    subtract = sign[0] != sign[1]
    # Both below one: the kernel takes u = zb - 1 and t from ratio_log, in
    # order, as in _mag_add_sub.  Equal opposites are left out: their
    # equal descriptors cancel to exactly 0.0 in the kernel.
    down = ~up & ~(subtract & (bz == sz))
    n_down = np.count_nonzero(down)
    kx, ky, k_sub = bz, sz, subtract
    if n_down:
        sub_d = subtract[down]
        u = bz[down] - 1.0
        t = _loop(_lib.ratio_log_lanes, (bz[down], sz[down]), (sub_d,))[0]
        first = u >= t
        kx, ky, k_sub = bz.copy(), sz.copy(), subtract.copy()
        kx[down], ky[down], k_sub[down] = np.maximum(u, t), np.minimum(u, t), ~sub_d
    zeta = arith.li_add_sub(kx, ky, k_sub, reciprocal_y=up & (small_rec < 0))
    # A raw w of big at least one is wrapped as the descriptor
    # 1 + psi(-ln w) of 1/w, encode's zeta of w.
    raw = up & (zeta > 0.0) & (zeta < 1.0)
    if np.count_nonzero(raw):
        zeta[raw] = _loop(_lib.encode_zeta_lanes, (zeta[raw],))[0]
    reciprocal = np.where(raw, -1, 1)
    if n_down:
        zeta[down] += 1.0
        reciprocal[down] = np.where(sub_d | first, -1, 1)
    # A lane with a zero operand is rounded as zero, then takes the other.
    x_zero, y_zero = zero
    zero = x_zero | y_zero
    n_zero = np.count_nonzero(zero)
    if n_zero:
        zeta[zero] = 0.0
    out = _materialize_lanes(fmt, np.where(swap, sign[1], sign[0]), reciprocal, zeta)
    if n_zero:
        out = np.where(x_zero, y, np.where(y_zero, x, out))
    return out


def mul(x, y, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """mul, or fl_op's "*", per lane of x and y."""
    x, y = _checked(fmt, x, y)
    if isinstance(fmt, FloatFormat):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in fl_op
            return encode(x * y, fmt)
    (x_zero, y_zero), (x_sign, y_sign), (x_rec, y_rec), _, (zx, zy) = _key_fields(
        np.array((x, y)), fmt)
    # The kernel run of _mul_signed, whose comment has the case split.
    w, flipped = arith.li_mul_div(zx, zy, x_rec != y_rec)
    w[x_zero | y_zero] = 0.0
    return _materialize_lanes(fmt, x_sign * y_sign, np.where(flipped, -x_rec, x_rec), w)


def enumerate_values(fmt: SliFormat | FloatFormat,
                     raw: bool = False) -> Iterator[tuple[np.ndarray, ...]]:
    """All 2**width words of an SLI or a float format in word order, a
    block of 2048 at a time, made as they are iterated.  An SLI block is
    (bits, values, log10): the words, their decoded values and the
    base-10 logarithm of each magnitude (log_phi10 of zeta, negated below
    one), finite past binary64's range.  A float block is (bits, values).

    With raw=True an SLI word decodes through its literal fields, without
    the zero convention or canonicalization (the all-zeros payload reads
    as one); otherwise zero payloads give 0.0 and -inf.  raw changes
    nothing for a float format, whose every word already decodes through
    its fields: sign (if signed) | exponent | trailing significand, MSB
    first, for an IEEE-shaped e_max, the all-ones exponent being inf or
    NaN, and values past binary64 (e_max >= 1024) reading as inf.
    Formats wider than MAX_TABLE_BITS are refused by the call itself,
    before any block.
    """
    width = fmt.width
    if width > MAX_TABLE_BITS:
        raise ValueError(f"refusing to enumerate {width}-bit format {fmt.name}")
    end = 1 << width
    words = (np.arange(b0, min(b0 + _TABLE_BLOCK, end)) for b0 in range(0, end, _TABLE_BLOCK))
    if isinstance(fmt, FloatFormat):
        return ((bits, _float_values(bits, fmt)) for bits in words)
    return (_value_block(bits, fmt, raw) for bits in words)


# ---------------------------------------------------------------------------
# Below the public functions: the kernel's lane loops, the word
# listings, the rounding, and the kernels per lane.  add and mul enter
# those through arith's public kernels, whose names the benchmark
# counts, once per call.


def _loop(loop, values, flags=()):
    """loop, one of the compiled kernel's lane loops, over 1-D float64
    value arrays and then bool flags (a scalar flag is spread over the
    lanes), all of one length, into a new float64 array: that array and
    what loop returns."""
    n = values[0].size
    arrays = [np.ascontiguousarray(v, np.float64) for v in values]
    arrays += [np.full(n, f, np.bool_) if np.ndim(f) == 0 else np.ascontiguousarray(f, np.bool_)
               for f in flags]
    if any(a.shape != (n,) for a in arrays):  # the loop reads n lanes of each
        raise ValueError(f"kernel lanes of unequal lengths {[a.shape for a in arrays]}")
    out = np.empty(n)
    args = [_ffi.from_buffer("_Bool[]" if a.dtype == np.bool_ else "double[]", a) for a in arrays]
    return out, loop(n, *args, _ffi.from_buffer("double[]", out))


def _value_block(bits: np.ndarray, fmt: SliFormat, raw: bool) -> tuple[np.ndarray, ...]:
    sign, reciprocal, level, index_k = word_fields(bits, fmt)
    zero = (not raw) & (reciprocal < 0) & (level == 1) & (index_k == 0)
    zeta = level + index_k / fmt.index_scale
    # The raw all-zeros word, 1/phi(1), decodes as one, and its log10,
    # -0.0 from its literal r = -1, gets one's 0.0 from the + 0.0.  Both
    # zero words read as +1/1 and decode as +0.0, as key 0 does.
    lg = _loop(_lib.log_phi10_lanes, (zeta,))[0] * reciprocal + 0.0
    lg[zero] = -math.inf
    sign[zero] = reciprocal[zero] = 1
    return bits, sign * _magnitudes(zero, reciprocal, zeta), lg


def _float_values(bits: np.ndarray, fmt: FloatFormat) -> np.ndarray:
    w = fmt.exponent_bits
    t_bits = fmt.precision - 1
    e_field = bits >> t_bits & ((1 << w) - 1)
    t = bits & ((1 << t_bits) - 1)
    # Normals add the implicit bit.  ldexp of an integer below 2**53 is
    # exact inside binary64's range and overflows to inf past it: on the
    # all-ones exponent, set below, and on the top normals of e_max >= 1024.
    m = np.where(e_field == 0, t, t + (1 << t_bits))
    with np.errstate(over="ignore"):
        v = np.ldexp(m.astype(np.float64), np.maximum(e_field, 1) - fmt.e_max - t_bits)
    top = e_field == (1 << w) - 1
    v[top] = np.where(t[top] == 0, math.inf, math.nan)
    if fmt.signed:
        v *= 1 - 2 * (bits >> (fmt.width - 1))
    return v


def _materialize_lanes(fmt: SliFormat, sign, reciprocal, zeta: np.ndarray) -> np.ndarray:
    """_materialize per lane, as keys, for zeta <= 0 (zero), zeta >= 1 or
    inf.  No caller has a raw zeta in (0, 1), which _materialize alone
    rounds as level 1.

    One pass over t = zeta * 2**index_bits, exact like _materialize's
    scaled fraction: the integer part of t carries the level, so the
    rounded t splits into level and index, and a carry past the last
    index moves up a level by itself.  t - floor(t) is exact, and t
    rounds up, ties away, where it is at least 1/2.  zeta is clamped at
    the top level + 1, which saturates.
    """
    scale = fmt.index_scale
    top = fmt.max_level
    t = np.minimum(zeta, top + 1)
    t *= scale  # exact: a power-of-two scaling
    r = np.floor(t)
    t -= r
    r += t >= 0.5
    # Level 1 and the index counted from it give the same key as the
    # rounded level and index.
    index_k = np.minimum(r, (top + 1) * scale - 1).astype(np.int64) - scale  # saturate
    del t, r  # freed before the keys' temporaries, which set the peak memory
    return np.where(zeta <= 0.0, 0, _key_of(fmt, sign, reciprocal, 1, index_k))


def _kernel_shapes(zeta_x: np.ndarray, zeta_y, *terms) -> None:
    """Refuse kernel lanes unless the descriptors are 1-D arrays of one
    length and each other term is a scalar or an array of that length."""
    n = zeta_x.shape
    ok = zeta_x.ndim == 1 and isinstance(zeta_y, np.ndarray) and zeta_y.shape == n
    for t in terms:  # arrays and plain scalars first: every lane kernel call runs this
        if isinstance(t, np.ndarray):
            ok = ok and t.shape in ((), n)
        elif not isinstance(t, (bool, int, float)):
            ok = ok and np.shape(t) in ((), n)
    if not ok:
        raise ValueError(
            "kernel lanes must be 1-D descriptor arrays of one length, with scalar or"
            f" equal-length terms; got shapes {[np.shape(v) for v in (zeta_x, zeta_y, *terms)]}")


def _li_add_sub_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, subtract,
                      reciprocal_y) -> np.ndarray:
    """li_add_sub per lane.  The first lane outside its domain is refused
    by its own scalar call."""
    _kernel_shapes(zeta_x, zeta_y, subtract, reciprocal_y)
    out, bad = _loop(_lib.li_add_sub_lanes, (zeta_x, zeta_y), (subtract, reciprocal_y))
    if bad >= 0:
        subtract, reciprocal_y = (np.broadcast_to(f, out.shape)[bad].item()
                                  for f in (subtract, reciprocal_y))
        arith.li_add_sub(zeta_x[bad].item(), zeta_y[bad].item(), subtract,
                         reciprocal_y=reciprocal_y)
    return out


def _li_mul_div_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, divide):
    """li_mul_div per lane: the descriptors and the flipped flags.  The
    first lane outside its domain is refused by its own scalar call."""
    _kernel_shapes(zeta_x, zeta_y, divide)
    w, bad = _loop(_lib.li_mul_div_lanes, (zeta_x, zeta_y), (divide,))
    if bad >= 0:
        arith.li_mul_div(zeta_x[bad].item(), zeta_y[bad].item(),
                         np.broadcast_to(divide, w.shape)[bad].item())
    return w, (zeta_x < zeta_y) & divide

