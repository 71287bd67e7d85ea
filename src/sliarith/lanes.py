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
is the scalar op's binary64.  Each SLI call is a fixed handful of
compiled loops over all its lanes: keys or values to kernel operands,
one kernel run (add and mul reach it through arith's li_add_sub and
li_mul_div), its results to unrounded zetas, and the rounding to keys.
The case split of the scalar op is made per lane in those loops; where
add's small operand is below one and its big one is not, the kernel
takes the small one as a reciprocal Y (li_add_sub's reciprocal_y).  The
lanes' numpy code only checks, gathers and spreads.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import arith
from ._kernel import ffi as _ffi, lib as _lib
from .core import SliFormat, _key_fields, word_fields
from .minifloat import FloatFormat

__all__ = ["encode", "decode", "add", "mul", "enumerate_values"]

# Widest format whose every word may be listed (enumerate_values and the
# value tables).  Words are listed a block at a time, so memory stays flat
# and the cap bounds run time: 24 bits is 16.8 million rows.
MAX_TABLE_BITS = 24
_TABLE_BLOCK = 1 << 11  # words per block of an enumeration


def _checked(fmt: SliFormat | FloatFormat | None, *arrays) -> list[np.ndarray]:
    """The arrays, checked to be 1-D and of one length, as contiguous
    arrays: int64 keys of an SLI fmt, else binary64 values.  The keys'
    ladder is checked by the compiled loops that read them, or by
    _ladder."""
    sli = isinstance(fmt, SliFormat)
    out = [np.asarray(a) if sli else np.asarray(a, dtype=np.float64) for a in arrays]
    if any(a.ndim != 1 for a in out) or len({a.size for a in out}) != 1:
        raise ValueError(f"lanes must be 1-D arrays of one length, got {[a.shape for a in out]}")
    for keys in out if sli else ():
        if keys.dtype != np.int64:
            raise ValueError(f"{fmt.name} lanes must be int64 keys, got {keys.dtype}")
    return [np.ascontiguousarray(a) for a in out]


def _ladder(fmt: SliFormat, *keys: np.ndarray) -> None:
    """Refuse the first key of keys, in their order, off fmt's ladder."""
    for k in keys:
        (bad,) = _loop(_lib.ladder_lanes, fmt.level_bits, fmt.index_bits, fmt.signed, k)
        if bad >= 0:
            raise ValueError(f"key {k[bad]} outside the {fmt.name} ladder")


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
    sign, reciprocal, zeta, bad = _loop(_lib.encode_lanes, fmt.signed, values)
    if bad >= 0:
        nonfinite = ~np.isfinite(values)
        if nonfinite.any():
            raise ValueError(f"cannot encode non-finite value {values[nonfinite][0]}")
        raise ValueError(f"cannot encode negative value in unsigned {fmt.name}")
    return _materialize_lanes(fmt, sign, reciprocal, zeta)


def decode(lanes, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """The binary64 value of every lane: decode's for SLI, a copy for floats."""
    (lanes,) = _checked(fmt, lanes)
    if isinstance(fmt, FloatFormat):
        return lanes.copy()
    _ladder(fmt, lanes)
    # Lanes repeat words (a sweep's points share their nearest values), so
    # each distinct magnitude is decoded once and spread back.
    keys, inverse = np.unique(np.abs(lanes), return_inverse=True)
    zero, _, reciprocal, _, zeta = _key_fields(keys, fmt)
    return np.where(lanes < 0, -1, 1) * _magnitudes(zero, reciprocal, zeta)[inverse]


def _magnitudes(zero, reciprocal, zeta) -> np.ndarray:
    """decode's |value| per lane of the zero flags, reciprocal flags and
    zetas: phi of zeta, inverted below one (1/inf is 0.0, as in decode),
    and 0.0 for a zero lane."""
    mag, _ = _loop(_lib.phi_lanes, zeta)
    mag[zero] = 0.0
    below = reciprocal < 0
    mag[below] = 1.0 / mag[below]
    return mag


def add(x, y, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """add, or fl_op's "+", per lane of x and y: one kernel run for all
    SLI lanes."""
    x, y = _checked(fmt, x, y)
    if isinstance(fmt, FloatFormat):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in fl_op
            return encode(x + y, fmt)
    bits = fmt.level_bits, fmt.index_bits
    zx, zy, subtract, reciprocal_y, sign, reciprocal, bad = _loop(
        _lib.add_operands_lanes, *bits, fmt.signed, x, y)
    if bad >= 0:
        _ladder(fmt, x, y)
    zeta = arith.li_add_sub(zx, zy, subtract, reciprocal_y=reciprocal_y)
    _loop(_lib.add_results_lanes, *bits, x, y, zeta, sign, reciprocal)
    return _materialize_lanes(fmt, sign, reciprocal, zeta)


def mul(x, y, fmt: SliFormat | FloatFormat) -> np.ndarray:
    """mul, or fl_op's "*", per lane of x and y."""
    x, y = _checked(fmt, x, y)
    if isinstance(fmt, FloatFormat):
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in fl_op
            return encode(x * y, fmt)
    zx, zy, divide, sign, reciprocal, bad = _loop(
        _lib.mul_operands_lanes, fmt.level_bits, fmt.index_bits, fmt.signed, x, y)
    if bad >= 0:
        _ladder(fmt, x, y)
    w, flipped = arith.li_mul_div(zx, zy, divide)
    _loop(_lib.mul_results_lanes, x, y, flipped, w, reciprocal)
    return _materialize_lanes(fmt, sign, reciprocal, w)


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
# the kernels through arith's public li_add_sub and li_mul_div, whose
# names the benchmark counts, once per call.


# Per lane loop of the compiled kernel, its parameters after the lane
# count: the cffi type of each and, for an array, the dtype of its lanes.
_DTYPES = {"double": np.float64, "int64_t": np.int64, "_Bool": np.bool_}
_LOOP_PARAMS = {
    loop: tuple((p, np.dtype(_DTYPES[p.item.cname]) if p.kind == "pointer" else None)
                for p in _ffi.typeof(loop).args[1:])
    for loop in (getattr(_lib, name) for name in dir(_lib) if name.endswith("_lanes"))}


def _loop(loop, *args):
    """Run loop, one of the compiled kernel's lane loops, as
    loop(n, *args, *outputs), and return the outputs, then what loop
    returns.  args are its leading parameters: numbers, and for its array
    parameters 1-D contiguous arrays of n lanes of the parameter's
    dtype, which the loop may write in place; the outputs are new arrays
    of n lanes for its parameters after args."""
    params = _LOOP_PARAMS[loop]
    n = next(a.size for a in args if isinstance(a, np.ndarray))
    outputs = [np.empty(n, dtype) for _, dtype in params[len(args):]]
    c_args = []
    for (ctype, dtype), a in zip(params, (*args, *outputs)):
        if dtype is not None:
            if a.shape != (n,) or a.dtype != dtype:  # the loop reads n lanes of dtype
                raise ValueError(f"{loop.__name__} takes arrays of {n} lanes of its types")
            a = _ffi.from_buffer(ctype, a)
        c_args.append(a)
    return (*outputs, loop(n, *c_args))


def _spread(v, n: int, dtype) -> np.ndarray:
    """v as a contiguous array of n lanes of dtype, a scalar spread over
    them."""
    return np.full(n, v, dtype) if np.ndim(v) == 0 else np.ascontiguousarray(v, dtype)


def _value_block(bits: np.ndarray, fmt: SliFormat, raw: bool) -> tuple[np.ndarray, ...]:
    sign, reciprocal, level, index_k = word_fields(bits, fmt)
    zero = (not raw) & (reciprocal < 0) & (level == 1) & (index_k == 0)
    zeta = level + index_k / fmt.index_scale
    # The raw all-zeros word, 1/phi(1), decodes as one, and its log10,
    # -0.0 from its literal r = -1, gets one's 0.0 from the + 0.0.  Both
    # zero words read as +1/1 and decode as +0.0, as key 0 does.
    lg = _loop(_lib.log_phi10_lanes, zeta)[0] * reciprocal + 0.0
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
    inf: the compiled round_lanes, whose comment has the method.  sign
    and reciprocal are ints or int arrays of zeta's length.  No caller
    has a raw zeta in (0, 1), which _materialize alone rounds as level 1."""
    zeta = np.ascontiguousarray(zeta, np.float64)
    key, _ = _loop(_lib.round_lanes, fmt.level_bits, fmt.index_bits,
                   _spread(sign, zeta.size, np.int64), _spread(reciprocal, zeta.size, np.int64),
                   zeta)
    return key


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
    n = zeta_x.size
    out, bad = _loop(_lib.li_add_sub_lanes, *(_spread(v, n, np.float64) for v in (zeta_x, zeta_y)),
                     *(_spread(f, n, np.bool_) for f in (subtract, reciprocal_y)))
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
    n = zeta_x.size
    w, flipped, bad = _loop(_lib.li_mul_div_lanes, _spread(zeta_x, n, np.float64),
                            _spread(zeta_y, n, np.float64), _spread(divide, n, np.bool_))
    if bad >= 0:
        arith.li_mul_div(zeta_x[bad].item(), zeta_y[bad].item(),
                         np.broadcast_to(divide, w.shape)[bad].item())
    return w, flipped

