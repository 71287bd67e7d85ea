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

The SLI lanes follow the scalar code step by step, but take exp and log
from numpy, whose float64 versions may round differently from libm's
(on AVX512 CPUs numpy runs its own SIMD code; elsewhere it calls libm).
So an unrounded lane result may differ from the scalar one by a few
ulps, and every rounding lane op carries a per-lane bound on that
difference.  A lane whose result lies within its bound of a rounding
tie, or whose bound is not finite, is redone by the scalar op (Ziv's
rounding test, ACM TOMS 17(3), 1991).  Rounded lane results are thus
the scalar op's, bit for bit.  The lane decode keeps libm, one element
at a time: it does no rounding into a format, and its binary64 output
is what gets printed.

Each add and mul call is one kernel run over all its lanes: per-call
numpy overhead, not the lane count, sets its cost at the sizes the
matvec runs.  Where add's small operand is below one and its big one is
not, the kernel takes the small one as a reciprocal Y (li_add_sub's
reciprocal_y): its a_0 = 1/phi(zeta) comes from the kernel's own rung
run, its lanes stacked after those of X's ladders, with the arithmetic
and bound of a run of its own.

The bound is a running error bound (Higham, Accuracy and Stability of
Numerical Algorithms, ch. 3) on |lane - scalar| for the same inputs,
carried beside every intermediate value:
- numpy's and glibc's float64 exp and log are each within one ulp of
  the correctly rounded value: numpy's accuracy tests hold them to
  ulperror 1 (umath-validation-set-exp.csv and -log.csv), and glibc
  documents 0.511 and 0.519 ulp.  Two implementations then differ by
  at most two ulps; _TRANS allows four (one ulp is at most 2**-52 of
  the value), which leaves room for the product terms the bounds
  below drop.
- Given a bound e on the argument, exp's relative bound is
  expm1(e + _TRANS) and log's absolute bound -log1p(-e/x) + _TRANS |ln x|,
  exact forms rather than first-order ones; past their domain they
  give inf or NaN, and a lane with such a bound is never settled.
- + - * / are IEEE in both; an op whose inputs may differ adds 2u of
  its result (each side rounds by at most u = 2**-53).
- Relative bounds fail below the normal range (2**-1022), where an exp
  result is instead off by a few 2**-1074 at most.  exp of an argument
  below -_EXP_GONE is +0 on both paths (the exact value is under
  e**-750, far below half the least subnormal, 2**-1075 ~ e**-745.1).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import arith, core
from .core import (SliFormat, _EXP_MAX_ARG, _U, _from_key, _key, _key_fields, _key_of,
                   log_phi10, word_fields)
from .minifloat import FloatFormat

__all__ = ["encode", "decode", "add", "mul", "enumerate_values"]

_TRANS = 2.0 ** -50
_TINY = 2.0 ** -1022
_EXP_GONE = 750.0

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
    zero = a == 0.0
    # |x| >= 1 has zeta psi(|x|) = 1 + psi(ln |x|), and |x| < 1 has
    # 1 + psi(-ln |x|), psi(1/|x|) without forming 1/|x|, as in encode.
    with np.errstate(all="ignore"):  # log 0, and logs of finished lanes
        v = np.abs(np.log(a))
        v[zero] = 0.0
        z, err = _psi_lanes(v, _TRANS * v)
    # Zero lanes have z = 0 within err 0, so they settle as zero.
    zeta = np.where(zero, 0.0, 1.0 + z)
    return _materialize_lanes(fmt, np.where(negative, -1, 1), np.where(a >= 1.0, 1, -1),
                              zeta, err + 2 * _U * zeta,
                              lambda i: core.encode(values[i].item(), fmt))


def decode(lanes, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """The binary64 value of every lane: decode's for SLI, a copy for floats."""
    (lanes,) = _checked(fmt, lanes)
    if isinstance(fmt, FloatFormat):
        return lanes.copy()
    # Lanes repeat words (a sweep's points share their nearest values), so
    # each distinct magnitude is decoded once and spread back.
    keys, inverse = np.unique(np.abs(lanes), return_inverse=True)
    zero, _, reciprocal, _, zeta = _key_fields(keys, fmt)
    # _peel per magnitude: the exact index of zeta, exponentiated once per
    # level, and inf past the guard as in phi.  Zero, read as one, skips
    # that and keeps its index 0 as the value.
    level = zeta.astype(np.int64)
    mag = zeta - level
    live = np.flatnonzero(~zero)
    for step in range(1, fmt.max_level + 1):
        live = live[level[live] >= step]
        over = mag[live] > _EXP_MAX_ARG
        mag[live[over]] = math.inf
        live = live[~over]
        mag[live] = _lane_map(math.exp, mag[live])
    below = reciprocal < 0
    mag[below] = 1.0 / mag[below]  # 1/inf is 0.0, as in decode
    return np.where(lanes < 0, -1, 1) * mag[inverse]


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
    # A small operand below one under a big one at least one is a
    # reciprocal Y of the kernel, whose a_0 comes from the kernel's own
    # rung run.  Equal opposites have equal descriptors, which the kernel
    # cancels to exactly 0.0.
    chain = up & (small_rec < 0)
    kx, ky, k_sub, ex, ey = bz, sz, subtract, 0.0, 0.0
    with np.errstate(all="ignore"):  # log 0 and 1/0 on dead lanes
        # Both below one: the kernel takes phi(zb - 1) and ln(1 +/- r),
        # r = b_0 of zb against zs, as in _mag_add_sub.
        down = ~up
        if np.count_nonzero(down):
            down &= ~(subtract & (bz == sz))
        n_down = np.count_nonzero(down)
        if n_down:
            u = bz[down] - 1.0
            *_, bad, b, eb = _ladder_lanes(sz[down], bz[down], 0.0, 0.0)
            deep = bad[1:].any(axis=0)  # a rung a step leaves from
            sub_d = subtract[down]
            s = np.where(sub_d, -np.minimum(b, 1.0 - _U), b)
            # log1p's bound is _log's on 1 + s; numpy's log1p and libm's
            # are each within an ulp (umath-validation-set-log1p.csv).
            t = np.log1p(s)
            et = _TRANS * np.abs(t) - np.log1p(-eb / (1.0 + s))
            t, et = _psi_lanes(np.abs(t), et)
            # Where the order of u and t is not settled the kernel run
            # may not be the scalar op's.  A deep lane's t may be NaN.
            lost = deep | ~(np.abs(u - t) > et)
            t[lost] = 0.0
            first = u >= t
            kx, ky, k_sub = bz.copy(), sz.copy(), subtract.copy()
            ex, ey = np.zeros(bz.shape), np.zeros(bz.shape)
            kx[down], ky[down] = np.where(first, u, t), np.where(first, t, u)
            ex[down], ey[down] = np.where(first, 0.0, et), np.where(first, et, 0.0)
            k_sub[down] = ~sub_d
        zeta, err = arith.li_add_sub(kx, ky, k_sub, err=(ex, ey), reciprocal_y=chain)

        # A raw w of big at least one is wrapped as the descriptor
        # 1 + psi(-ln w) of 1/w.
        raw = up & (zeta > 0.0) & (zeta < 1.0)
        if np.count_nonzero(raw):
            log_w, elog = _log(zeta[raw], err[raw])
            z, ez = _psi_lanes(-log_w, elog)
            zeta[raw] = 1.0 + z
            err[raw] = ez + 2 * _U * zeta[raw]
        reciprocal = np.where(raw, -1, 1)
        if n_down:
            zeta[down] += 1.0
            err[down] = np.where(lost, math.inf, err[down] + 2 * _U * zeta[down])
            reciprocal[down] = np.where(sub_d | first, -1, 1)
    # A lane with a zero operand is settled as zero, then takes the other.
    x_zero, y_zero = zero
    zero = x_zero | y_zero
    n_zero = np.count_nonzero(zero)
    if n_zero:
        zeta[zero] = err[zero] = 0.0
    out = _materialize_lanes(
        fmt, np.where(swap, sign[1], sign[0]), reciprocal, zeta, err,
        lambda i: arith.add(_from_key(fmt, int(x[i])), _from_key(fmt, int(y[i]))))
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
    w, flipped, err = arith.li_mul_div(zx, zy, x_rec != y_rec)
    zero = x_zero | y_zero
    if np.count_nonzero(zero):
        w[zero] = err[zero] = 0.0
    return _materialize_lanes(
        fmt, x_sign * y_sign, np.where(flipped, -x_rec, x_rec), w, err,
        lambda i: arith.mul(_from_key(fmt, int(x[i])), _from_key(fmt, int(y[i]))))


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
# Below the public functions: the libm map, the word listings,
# rounding with the scalar redo, and the kernels per lane.  add and mul
# enter them through arith's public kernels, whose names the benchmark
# counts, once per call.  _li_add_sub_lanes is the one add/sub entry and
# checks its lanes; the mul kernel hands it the shifted pair, so that
# check is mul's too.


def _lane_map(fn, values: np.ndarray) -> np.ndarray:
    """fn of every lane of a 1-D float64 array, through libm: math.exp in
    decode and log_phi10 in _value_block, whose binary64 results are
    printed as they are, so they must be libm's."""
    return np.fromiter(map(fn, memoryview(np.ascontiguousarray(values))),
                       np.float64, values.size)


def _log(values: np.ndarray, err) -> tuple[np.ndarray, np.ndarray]:
    """log per lane, for values > 0, and the bound on its difference
    between paths, given err bounding the values'."""
    out = np.log(values)
    return out, _TRANS * np.abs(out) - np.log1p(-err / values)


def _value_block(bits: np.ndarray, fmt: SliFormat, raw: bool) -> tuple[np.ndarray, ...]:
    sign, reciprocal, level, index_k = word_fields(bits, fmt)
    zero = (not raw) & (reciprocal < 0) & (level == 1) & (index_k == 0)
    # The raw all-zeros word, 1/phi(1), has the key of one, and its
    # log10, -0.0 from its literal r = -1, gets one's 0.0 from the + 0.0.
    keys = np.where(zero, 0, _key_of(fmt, sign, reciprocal, level, index_k))
    lg = _lane_map(log_phi10, level + index_k / fmt.index_scale) * reciprocal + 0.0
    lg[zero] = -math.inf
    return bits, decode(keys, fmt), lg


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


def _redo(keys: np.ndarray, mask: np.ndarray, op) -> np.ndarray:
    """Overwrite every lane the mask selects with the key of op(i), the
    scalar op's SliNumber for lane i."""
    for i in np.flatnonzero(mask).tolist() if np.count_nonzero(mask) else ():
        keys[i] = _key(op(i))
    return keys


def _psi_lanes(values: np.ndarray, err) -> tuple[np.ndarray, np.ndarray]:
    """psi per lane, for finite values >= 0, and the bound on its
    difference between paths, given err bounding the values'.  psi is
    1-Lipschitz, so each log step carries the bound through _log."""
    v, e = values, err
    level = np.zeros(v.shape)
    up = v >= 1.0
    while np.count_nonzero(up):
        lv, le = _log(v, e)
        v, e = np.where(up, lv, v), np.where(up, le, e)
        level += up
        up = v >= 1.0
    out = level + v
    return out, e + 2 * _U * out


def _materialize_lanes(fmt: SliFormat, sign, reciprocal, zeta: np.ndarray, err: np.ndarray,
                       op) -> np.ndarray:
    """_materialize per lane, as keys, for zeta <= 0 (zero), zeta >= 1 or
    inf.  No caller has a raw zeta in (0, 1), which _materialize alone
    rounds as level 1.  A lane whose rounding err cannot settle, NaN
    among them, is redone by op(i), the scalar op's SliNumber for lane i;
    a zero lane is settled only by err 0.

    One pass over t = zeta * 2**index_bits, exact like _materialize's
    scaled fraction, both rounds and tests the ties (Ziv's test).  The
    integer part of t carries the level, so the rounded t splits into
    level and index, and a carry past the last index moves up a level by
    itself.  off = t - floor(t) - 1/2, exact wherever its sign matters
    (Sterbenz), rounds up where it is >= 0, and settles a lane where |off|
    exceeds err * 2**index_bits.  zeta is clamped at the top level + 1, which
    saturates; past the last tie, top + (2**index_bits - 1/2)/2**index_bits,
    every lane saturates, so a lane whose err keeps it above that settles.
    """
    scale = fmt.index_scale
    top = fmt.max_level
    off = np.minimum(zeta, top + 1)
    off *= scale  # t, exact: a power-of-two scaling
    r = np.floor(off)
    off -= r
    off -= 0.5  # in place, so one array holds t and then off
    unsettled = ~((np.abs(off) > err * scale) | (zeta - err > top + (scale - 0.5) / scale))
    zero = zeta <= 0.0
    fill = zero | unsettled
    if np.count_nonzero(fill):
        # Level 1, index 0, then replaced by zero's key or the scalar op's.
        r[fill] = scale
        off[fill] = -0.5
        if np.count_nonzero(zero):
            unsettled = np.where(zero, err != 0.0, unsettled)
    r += off >= 0.0
    # Level 1 and the index counted from it give the same key as the
    # rounded level and index.
    index_k = np.minimum(r, (top + 1) * scale - 1).astype(np.int64) - scale  # saturate
    del off, r  # freed before the keys' temporaries, which set the peak memory
    return _redo(np.where(zero, 0, _key_of(fmt, sign, reciprocal, 1, index_k)), unsettled, op)


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
                      err=(0.0, 0.0), reciprocal_y=False) -> tuple[np.ndarray, np.ndarray]:
    """li_add_sub per lane, and per lane a bound on the distance from the
    scalar kernel's result, given bounds err on the inputs' distances."""
    _kernel_shapes(zeta_x, zeta_y, subtract, reciprocal_y, *err)
    subtract, reciprocal_y = np.asarray(subtract), np.asarray(reciprocal_y)
    ex, ey = (np.asarray(e, dtype=np.float64) for e in err)
    ok = (0.0 <= zeta_y) & (zeta_y <= zeta_x) & (zeta_x < math.inf)
    inv = None  # the lanes of a reciprocal Y, if any
    if np.count_nonzero(reciprocal_y):
        inv = reciprocal_y.nonzero()[0] if reciprocal_y.ndim else np.arange(zeta_x.size)
        zx, zy = zeta_x[inv], zeta_y[inv]
        ok[inv] = (1.0 <= zx) & (zx < math.inf) & (1.0 < zy) & (zy < math.inf)
    if np.count_nonzero(ok) != ok.size:
        i = int(np.argmin(ok))
        raise ValueError(
            f"need finite descriptors zeta_x >= zeta_y >= 0 (zeta_x >= 1 and zeta_y > 1"
            f" for a reciprocal Y), got {zeta_x[i]}, {zeta_y[i]}"
        )
    raw = zeta_x < 1.0
    n_raw = np.count_nonzero(raw)
    with np.errstate(all="ignore"):  # dead lanes divide by zero, log 0, ...
        if n_raw < raw.size:
            # All lanes climb the ladders.  A raw lane, at level 0, sets no
            # rung or step of another lane, and its values are replaced.
            out, bound = _ladders(zeta_x, zeta_y, subtract, ex, ey, inv)
        else:
            out, bound = np.empty(raw.shape), np.empty(raw.shape)
        if n_raw:
            # Both magnitudes are raw values below one (a reciprocal Y has
            # zeta_x >= 1).
            zx, zy = zeta_x[raw], zeta_y[raw]
            v = np.where(_pick(subtract, raw), zx - zy, zx + zy)
            out[raw], bound[raw] = _psi_lanes(v, _pick(ex, raw) + _pick(ey, raw) + 2 * _U * v)
        # Equal descriptors subtracted cancel to exactly 0.0; from inexact
        # inputs the scalar path may not see them equal.  A reciprocal Y
        # is below one and X is not, so they never cancel.
        same = subtract & (zeta_x == zeta_y)
        if inv is not None:
            same[inv] = False
        if np.count_nonzero(same):
            out[same] = 0.0
            bound[same] = np.where((ex + ey > 0.0) & same, math.inf, 0.0)[same]
    np.copyto(bound, math.inf, where=np.isnan(bound))
    return out, bound


def _pick(v: np.ndarray, mask: np.ndarray):
    """v at the lanes mask selects, or v itself if it is a scalar term."""
    return v[mask] if v.ndim else v


def _rungs_lanes(zx, ex):
    """The reciprocal ladders of _ladder for lanes with zx >= 1, given a
    bound ex on zx's distance.  Bounds named r* are relative, e* absolute.
    A bad rung has no relative bound, and no step from it has one; a_0 is
    within a_0 ra_0 + _TINY, bad or not."""
    n = zx.size
    lev = np.trunc(zx)
    f = zx - lev
    top = int(lev.max())

    # Reciprocal ladders of X: row j holds a_j and its bound ra, and
    # ia = 1/a_j with ria bounding the other path's 1/a_j relative to ia:
    # ra/(1 - ra) <= 2 ra while ra <= 1/2 (other lanes get inf at the
    # end), plus the division's 2u.  Each lane starts at its top level;
    # rows above it restart there.
    a, ra = np.empty((top, n)), np.empty((top, n))
    ia, ria = np.empty((top, n)), np.empty((top, n))
    a_top, ra_top = np.exp(-f), np.expm1(ex + _TRANS)
    a[top - 1], ra[top - 1] = a_top, ra_top
    for j in range(top - 1, -1, -1):
        np.divide(1.0, a[j], out=ia[j])
        np.multiply(ra[j] + _U, 2.0, out=ria[j])
        if j:
            # a_{j-1} = exp(-1/a_j); a rung that underflows past
            # _EXP_GONE on both paths is exactly +0, with bound 0.
            np.exp(-ia[j], out=a[j - 1])
            np.expm1(ia[j] * ria[j] + _TRANS, out=ra[j - 1])
            if np.count_nonzero(a[j - 1] == 0.0):
                np.copyto(ra[j - 1], 0.0, where=ia[j] * (1.0 - ria[j]) > _EXP_GONE)
            start = lev <= j
            if np.count_nonzero(start):
                np.copyto(a[j - 1], a_top, where=start)
                np.copyto(ra[j - 1], ra_top, where=start)
    # Other rungs below the normal range have no relative bound.
    bad = ((a < _TINY) & (ra != 0.0)) | (ra > 0.5)
    return a, ra, ia, ria, bad


def _ladder_lanes(zx, zy, ex, ey, inv=None):
    """_ladder for lanes with zx >= 1 and 0 <= zy <= zx, given bounds ex
    and ey on the inputs' distances: the rungs, the bounds li_add_sub's
    climb takes from them, and b_0 within eb (a_0 bad or not).

    A reciprocal Y (zy > 1 in the lanes of the indices inv) is replaced
    by its a_0, a raw descriptor, first.  Its rungs run stacked after X's
    in one run: each lane walks down from its own top level, so its rows
    are those of a run of its own."""
    ey_0 = ey  # the bound on the raw Y (m = 0) that b_0 starts from
    if inv is None:
        a, ra, ia, ria, bad = _rungs_lanes(zx, ex)
    else:
        n = zx.size
        e = np.concatenate((np.full(zx.shape, ex), np.full(zy.shape, ey)[inv]))
        a, ra, ia, ria, bad = _rungs_lanes(np.concatenate((zx, zy[inv])), e)
        a_y, ra_y = a[0, n:], ra[0, n:]
        # Copies: numpy runs whole-ladder ops on strided views about three
        # times slower.
        a, ra, ia, ria = (np.ascontiguousarray(v[:, :n]) for v in (a, ra, ia, ria))
        zy = zy.copy()
        zy[inv] = a_y
        ey_0 = np.full(zy.shape, ey)
        ey_0[inv] = np.where(bad[1:, n:].any(axis=0), math.inf, a_y * ra_y + _TINY)
        bad = bad[:, :n]
    ia_hi = ia * (1.0 + ria)  # bounds 1/a_j on either path
    ria += 4 * _U  # and the rounding of a product with ia
    ra_hi = 1.0 + ra

    # Ratio ladders of Y against X down to b_0, bounds eb; a raw Y (m = 0)
    # keeps b_0 = a_0 g.  _TINY covers results below the normal range.
    m = np.trunc(zy)
    g = zy - m
    b = a[0] * g
    eb = b * (ra[0] + 2 * _U) + a[0] * ra_hi[0] * ey_0 + _TINY
    m_top = int(m.max())
    if m_top:
        exp_g = np.exp(g)
        rb_start = ra + np.expm1(ey + _TRANS) * ra_hi + 2 * _U
    for j in range(m_top - 1, -1, -1):
        if j < m_top - 1:
            # b_j = exp(-(1 - b_{j+1}) / a_{j+1}), 1 once that difference
            # is <= 0.
            walk = m > j + 1
            d = np.maximum(1.0 - b, 0.0)
            q = d * ia[j + 1]
            eq = (eb + 2 * _U) * ia_hi[j + 1] + q * ria[j + 1]
            step = np.exp(-q)
            # The other path's b is within e**eq of exp(-q), which itself
            # is at most step plus the least subnormal; both b lie in [0, 1].
            eb_step = np.minimum((step + 5e-324) * np.expm1(eq + _TRANS), 1.0) + _TINY
            far = eq > 1.0
            if np.count_nonzero(far):
                # or the other b is below exp(eq - q), and this one is step
                np.copyto(eb_step, np.maximum(step, np.exp(eq - q + _TRANS)) + _TINY,
                          where=far & (eq < q))
            zero_rung = ra[j + 1] == 0.0
            if np.count_nonzero(zero_rung):
                # Below a rung that is +0 on both paths b_j is 1 where the
                # difference is 0, else 0: settled unless its sign is not.
                np.copyto(step, d == 0.0, where=zero_rung)
                np.copyto(eb_step, np.where(d > eb + 2 * _U, _TINY, 1.0), where=zero_rung)
            np.copyto(eb, eb_step, where=walk)
            np.copyto(b, step, where=walk)
        start = m == j + 1
        if np.count_nonzero(start):
            b_start = a[j] * exp_g
            np.copyto(eb, b_start * rb_start[j] + _TINY, where=start)
            np.copyto(b, b_start, where=start)
    return a, ra, ra_hi, ia, ia_hi, ria, bad, b, eb


def _ladders(zx, zy, sub, ex, ey, inv) -> tuple[np.ndarray, np.ndarray]:
    """li_add_sub for lanes with zx >= 1: the ladders, then the result
    against X, each lane left where the scalar kernel would return.  A
    lane with a rung that has no relative bound gets inf (or NaN).  A
    lane with zx < 1 sits at level 0, below every rung and step of the
    others, and gets values of no use."""
    a, ra, ra_hi, ia, ia_hi, ria, bad, b, eb = _ladder_lanes(zx, zy, ex, ey, inv)
    n, top = zx.size, a.shape[0]
    lev = np.trunc(zx)
    f = zx - lev

    # Result against X, c_0 = 1 -/+ b_0, up the levels of X until c_j < a_j,
    # which an addition (c_j >= 1) never meets.
    terminate = np.count_nonzero(sub)
    c = np.where(sub, 1.0 - b, 1.0 + b) if terminate else 1.0 + b
    ec = eb + 4 * _U
    if terminate:
        res, eres = np.zeros(n), np.zeros(n)
        running = np.ones(n, dtype=bool)
        ran_out = np.zeros(n, dtype=bool)
    ra += 2 * _U  # and the rounding of a product with a
    for j in range(top):
        if terminate:
            # c <= 0: the result is j on the nose, where the other path
            # may still hold c up to ec.  c < a_j: phi(zeta_z - j) = c/a_j.
            hit = running & (c <= 0.0)
            below = running & ~hit & (c < a[j])
            r = c * ia[j]
            np.copyto(res, j, where=hit)
            np.copyto(res, j + r, where=below)
            np.copyto(eres, ec * ia_hi[j], where=hit)
            np.copyto(eres, ec * ia_hi[j] + np.abs(r) * ria[j] + 2 * _U * (j + r), where=below)
            running &= ~(hit | below)
            climb = running & (lev > j + 1)
            ran_out |= running & ~climb
            running = climb
        else:
            climb = lev > j + 1
        if not np.count_nonzero(climb):
            break
        # c_{j+1} = 1 + a_{j+1} ln c_j; a zero rung on both paths keeps
        # c = 1 exactly.
        log_c, elog = _log(c, ec)
        p = a[j + 1] * log_c
        ep = (np.abs(log_c) * ra[j + 1] + ra_hi[j + 1] * elog) * a[j + 1] + 4 * _U
        np.copyto(c, 1.0 + p, where=climb)
        np.copyto(ec, ep, where=climb)

    # Ran through every level: h = f + ln c_{l-1} = phi(zeta_z - l), below
    # 1 + ln 2, so psi(h) takes at most one more log.
    log_c, elog = _log(c, ec)
    h = np.maximum(f + log_c, 0.0)  # roundoff below the a_{l-1} <= c guarantee
    eh = ex + elog + 2 * _U * h
    log_h, elog_h = _log(h, eh)
    up = h >= 1.0
    zeta = lev + np.where(up, 1.0 + log_h, h)
    err = np.where(up, elog_h, eh) + 4 * _U * zeta
    if terminate:
        zeta = np.where(ran_out, zeta, res)
        err = np.where(ran_out, err, eres)
    err[bad.any(axis=0)] = math.inf
    return zeta, err


def _li_mul_div_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, divide):
    """li_mul_div per lane, with the bound li_add_sub gives."""
    _kernel_shapes(zeta_x, zeta_y, divide)  # before np.maximum broadcasts a bad shape
    divide = np.asarray(divide)
    # Equal operands need no short cut here: their descriptors cancel
    # exactly in the kernel, giving (1.0, False) as the scalar path does.
    # The add/sub lanes check the shifted pair, whose rule is finite
    # descriptors >= 1 here; np.maximum and np.minimum pass NaN on.
    w, bound = _li_add_sub_lanes(np.maximum(zeta_x, zeta_y) - 1.0,
                                 np.minimum(zeta_x, zeta_y) - 1.0, divide)
    w += 1.0
    return w, (zeta_x < zeta_y) & divide, bound + 2 * _U * w
