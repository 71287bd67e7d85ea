"""Arithmetic on SLI numbers through short exp/log sequence kernels.

The kernels never form the represented magnitudes directly (they
usually do not fit binary64).  Instead they work on ratios against the
larger operand, which live in [0, 1] by construction:

    a_j = 1 / phi(zeta_x - j)           reciprocal ladder of X,
    b_j = phi(zeta_y - j) / phi(zeta_x - j)   Y measured against X,
    c_j = phi(zeta_z - j) / phi(zeta_x - j)   the result against X,

with a seeded at the top level by a_{l-1} = exp(-f) and walked down by
a_{j-1} = exp(-1/a_j), b seeded analogously, and

    c_0 = 1 +/- b_0,    c_j = 1 + a_j * ln(c_{j-1}).

If some c_j drops below a_j then phi(zeta_z - j) = c_j / a_j < 1 and
the result level is j; otherwise after level steps the remainder
h = f + ln(c_{l-1}) equals phi(zeta_z - l) and zeta_z = l + psi(h)
(psi absorbs the carry when h lands at or above one).

Operands and results of the kernels are *generalized descriptors*:
floats w >= 0 where the described magnitude is phi(w), so w >= 1 reads
as a level-index pair and w < 1 is the magnitude itself.  That makes
small residuals, operands below one, and the multiply reduction
(shift both levels down by one, add, shift back) uniform.

The kernel arithmetic, up to the unrounded zeta and reciprocal flag
that _materialize rounds, is compiled from one C source, _kernel.c,
which sliarith.lanes runs over arrays too.  li_add_sub and li_mul_div
are its checked entries, one value at a time or over arrays.
"""

from __future__ import annotations

import numpy as np

from ._kernel import lib as _lib
from .core import SliFormat, SliNumber, _key, _materialize

__all__ = [
    "li_add_sub",
    "li_mul_div",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "absolute",
    "compare",
]


def li_add_sub(zeta_x: float, zeta_y: float, subtract: bool = False, *,
               reciprocal_y: bool = False) -> float:
    """Magnitude add/subtract on generalized descriptors.

    Needs finite zeta_x >= zeta_y >= 0, i.e. the caller puts the larger
    magnitude first (phi is monotone, so descriptor order is magnitude
    order).  Returns the descriptor of phi(zeta_x) +/- phi(zeta_y);
    exact cancellation returns 0.0.

    With reciprocal_y, Y is 1/phi(zeta_y) instead, for finite zeta_x >= 1
    and zeta_y > 1, so Y < 1 <= X: the kernel feeds Y as the raw
    descriptor a_0 = 1/phi(zeta_y), the foot of Y's own reciprocal ladder.
    Descriptors of 2**52 and more are refused (ValueError), as are those
    outside these rules.

    zeta_x and zeta_y may also be 1-D float64 arrays of one length, with
    subtract and reciprocal_y each a scalar or an array of that length
    (any other shape raises ValueError), the route of sliarith.lanes:
    then the call returns the descriptors, the scalar call's per element.
    """
    if isinstance(zeta_x, np.ndarray):
        return lanes._li_add_sub_lanes(zeta_x, zeta_y, subtract, reciprocal_y)
    w = _lib.li_add_sub(zeta_x, zeta_y, subtract, reciprocal_y)
    if w != w:
        raise _refused(zeta_x, zeta_y, reciprocal_y)
    return w


def _refused(zeta_x: float, zeta_y: float, reciprocal_y) -> ValueError:
    """The error of a descriptor pair outside li_add_sub's domain."""
    rule = "zeta_x >= 1, zeta_y > 1" if reciprocal_y else "zeta_x >= zeta_y >= 0"
    return ValueError(f"need finite descriptors {rule}, below 2**52, got {zeta_x}, {zeta_y}")


def li_mul_div(zeta_x: float, zeta_y: float, divide: bool = False) -> tuple[float, bool]:
    """Magnitude multiply/divide on descriptors with zeta >= 1.

    ln phi(zeta) = phi(zeta - 1), so shifting both levels down by one
    turns the product into a sum of descriptors and the quotient into a
    difference.  Returns (descriptor, flipped): the descriptor is that
    of the product, or of the quotient-or-its-reciprocal whichever is
    >= 1; flipped is True when the division came out below one, i.e.
    the caller must flip the reciprocal sign.  Equal operands divide to
    exactly (1.0, False): their shifted descriptors cancel in the kernel.
    li_add_sub's rule on the shifted pair, larger first, is this
    kernel's, and its ValueError names that pair: a descriptor that is
    not finite and >= 1 is refused.

    Takes 1-D float64 arrays of one length too, with divide a scalar or
    an array of that length, the route of sliarith.lanes, and then
    returns two arrays: the descriptors and the flipped flags.
    """
    if isinstance(zeta_x, np.ndarray):
        return lanes._li_mul_div_lanes(zeta_x, zeta_y, divide)
    w = _lib.li_mul_div(zeta_x, zeta_y, divide)
    if w != w:
        big, small = (zeta_y, zeta_x) if zeta_x < zeta_y else (zeta_x, zeta_y)
        raise _refused(big - 1.0, small - 1.0, False)
    return w, zeta_x < zeta_y and divide


def _require_same_format(x: SliNumber, y: SliNumber) -> SliFormat:
    if x.fmt is not y.fmt and x.fmt != y.fmt:
        raise ValueError(f"mixed formats: {x.fmt.name} vs {y.fmt.name}")
    return x.fmt


def _mag_add_sub(fmt: SliFormat, rb: int, zb: float, rs: int, zs: float, subtract: bool,
                 sign: int) -> SliNumber:
    """sign * (|big| +/- |small|) for nonzero |big| = phi(zb)**rb at least
    |small| = phi(zs)**rs (greater to subtract)."""
    if rb > 0:
        # A small operand below one goes in as a reciprocal Y.  A raw
        # result w is wrapped as 1 + psi(-ln w), the descriptor of 1/w and
        # the zeta encode gives w; the kernel never emits one below about
        # 2**-53.
        w = li_add_sub(zb, zs, subtract, reciprocal_y=rs < 0)
        if 0.0 < w < 1.0:
            return _materialize(fmt, sign, -1, _lib.encode_zeta(w))
        return _materialize(fmt, sign, 1, w)
    # Both below one, so zb <= zs for the descriptors of big and small,
    # and r = phi(zb)/phi(zs) is the b_0 of zb against zs.  Then
    # |big| +/- |small| = (1 +/- r)/phi(zb), whose reciprocal has the log
    # phi(zb - 1) -/+ ln(1 +/- r), the descriptor w of which one kernel run
    # gives from t = psi(|ln(1 +/- r)|): the result's zeta is 1 + w, and
    # that log's sign is the reciprocal flag's.
    t = _lib.ratio_log(zb, zs, subtract)
    u = zb - 1.0
    w = li_add_sub(max(u, t), min(u, t), not subtract)
    # A sum can reach one or more.
    return _materialize(fmt, sign, -1 if subtract or u >= t else 1, 1.0 + w)


def _add_signed(x: SliNumber, y: SliNumber, negate_y: bool) -> SliNumber:
    """Rounded x + y, or x + (-y) for negate_y, so that no negated y is
    ever built.  Other operands than a SliNumber (a plain tuple) are
    first built into one, checked."""
    if x.__class__ is not SliNumber or y.__class__ is not SliNumber:
        x, y = SliNumber(*x), SliNumber(*y)  # checked: _materialize trusts their signs
    fmt, x_zero, x_sign, rx, lx, kx = x
    y_fmt, y_zero, y_sign, ry, ly, ky = y
    if y_fmt is not fmt:
        _require_same_format(x, y)
    if x_zero:
        return neg(y) if negate_y else y
    if y_zero:
        return x
    if negate_y:
        y_sign = -y_sign
    zx, zy = lx + kx / fmt.index_scale, ly + ky / fmt.index_scale
    # r (zeta - 1) orders magnitudes exactly as magnitude_rank does: zeta - 1
    # is the rank's offset from one over 2**index_bits.
    ox, oy = rx * (zx - 1.0), ry * (zy - 1.0)
    subtract = x_sign != y_sign
    if subtract and ox == oy:
        return SliNumber.zero(fmt)
    if ox >= oy:
        return _mag_add_sub(fmt, rx, zx, ry, zy, subtract, x_sign)
    if y_sign < 0 and not fmt.signed:
        raise ValueError(f"negative difference in unsigned {fmt.name}")
    return _mag_add_sub(fmt, ry, zy, rx, zx, subtract, y_sign)


def add(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded sum.  Exact cancellation of equal opposites gives zero."""
    return _add_signed(x, y, False)


def sub(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded difference x + (-y).  In an unsigned format it raises
    ValueError only where y > x, when the difference is negative."""
    return _add_signed(x, y, True)


def _mul_signed(x: SliNumber, y: SliNumber, invert_y: bool) -> SliNumber:
    """Rounded x * y, or x * (1/y) for invert_y (1/y flips only y's
    reciprocal flag, with no rounding), so that no inverted y is ever
    built.  Mixed formats are refused before a zero divisor."""
    if x.__class__ is not SliNumber or y.__class__ is not SliNumber:
        x, y = SliNumber(*x), SliNumber(*y)  # checked: _materialize trusts their signs
    fmt, x_zero, sx, rx, lx, kx = x
    y_fmt, y_zero, sy, ry, ly, ky = y
    if y_fmt is not fmt:
        _require_same_format(x, y)
    if y_zero and invert_y:
        raise ZeroDivisionError("SLI division by zero")
    if x_zero or y_zero:
        return SliNumber.zero(fmt)
    # With r x's reciprocal flag, x * y is (phi(zeta_x) * phi(zeta_y))**r
    # for like flags and (phi(zeta_x) / phi(zeta_y))**r for unlike ones.
    scale = fmt.index_scale
    w, flipped = li_mul_div(lx + kx / scale, ly + ky / scale, (rx != ry) != invert_y)
    return _materialize(fmt, sx * sy, -rx if flipped else rx, w)


def mul(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded product.  Saturates at the format boundary, never overflows."""
    return _mul_signed(x, y, False)


def div(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded quotient x * (1/y).  Any zero divisor raises ZeroDivisionError."""
    return _mul_signed(x, y, True)


def neg(x: SliNumber) -> SliNumber:
    """Sign flip.  Zero stays zero; unsigned formats reject nonzero input."""
    if x.is_zero:
        return x
    if not x.fmt.signed:
        raise ValueError(f"cannot negate in unsigned {x.fmt.name}")
    return SliNumber(x.fmt, False, -x.sign, x.reciprocal, x.level, x.index_k)


def absolute(x: SliNumber) -> SliNumber:
    """Magnitude of x, same representation with the sign cleared."""
    if x.is_zero or x.sign > 0:
        return x
    return SliNumber(x.fmt, False, 1, x.reciprocal, x.level, x.index_k)


def compare(x: SliNumber, y: SliNumber) -> int:
    """Total order on represented values: -1, 0, or +1.

    Exact: works on the discrete magnitude ladder, so values whose
    binary64 decodings both overflow or both underflow still compare
    correctly.
    """
    _require_same_format(x, y)
    kx, ky = _key(x), _key(y)
    return (kx > ky) - (kx < ky)


from . import lanes  # noqa: E402  (lanes imports arith; bound last)
