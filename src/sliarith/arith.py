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
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    SliFormat,
    SliNumber,
    _EXP_GONE,
    _TINY,
    _TRANS,
    _U,
    _from_key,
    _key,
    _key_fields,
    _log,
    _materialize,
    _materialize_lanes,
    _psi_lanes,
    magnitude_rank,
    psi,
)

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


def li_add_sub(
    zeta_x: float, zeta_y: float, subtract: bool = False, *, err=(0.0, 0.0)
) -> float:
    """Magnitude add/subtract on generalized descriptors.

    Needs finite zeta_x >= zeta_y >= 0, i.e. the caller puts the larger
    magnitude first (phi is monotone, so descriptor order is magnitude
    order).  Returns the descriptor of phi(zeta_x) +/- phi(zeta_y);
    exact cancellation returns 0.0.

    zeta_x and zeta_y may also be equal-length float64 arrays, with
    subtract a bool or a bool array.  Then every element is one kernel
    run on numpy's exp and log, which may differ from the scalar call's
    libm result in the last bits, and the call returns two arrays: the
    descriptors, and per element a bound on the distance from the
    scalar call's descriptor (inf where the kernel has none).  err
    bounds the inputs' own distances from the scalar path's inputs, as
    a bound returned by an earlier array call does.
    """
    if isinstance(zeta_x, np.ndarray):
        return _li_add_sub_lanes(zeta_x, zeta_y, subtract, err)
    if not 0.0 <= zeta_y <= zeta_x < math.inf:
        raise ValueError(
            f"need finite descriptors zeta_x >= zeta_y >= 0, got {zeta_x}, {zeta_y}"
        )
    if subtract and zeta_x == zeta_y:
        # The ladder computes b_0 = 1 only up to roundoff; equal
        # descriptors must cancel exactly, so short-circuit.
        return 0.0
    lev = int(zeta_x)
    f = zeta_x - lev

    if lev == 0:
        # Both magnitudes are raw values below one.
        return psi(zeta_x - zeta_y if subtract else zeta_x + zeta_y)

    a, b = _ladder(zeta_x, zeta_y)
    c = 1.0 - b if subtract else 1.0 + b
    j = 0
    while True:
        if c <= 0.0:
            # The result magnitude is phi(j) on the nose (or full
            # cancellation at j = 0); roundoff cannot sit below this.
            return float(j)
        if c < a[j]:
            # phi(zeta_z - j) = c/a_j < 1: result level is j.
            return j + c / a[j]
        if j == lev - 1:
            break
        j += 1
        c = 1.0 + a[j] * math.log(c)

    h = f + math.log(c)
    if h < 0.0:  # roundoff below the a_{l-1} <= c guarantee
        h = 0.0
    return lev + psi(h)


def _ladder(zeta_x: float, zeta_y: float) -> tuple[list[float], float]:
    """The ladders of li_add_sub, for zeta_x >= 1 and 0 <= zeta_y <= zeta_x:
    the reciprocals a_j = 1/phi(zeta_x - j) below the level of X, and
    b_0 = phi(zeta_y)/phi(zeta_x)."""
    lev = int(zeta_x)
    # Reciprocal ladder of X, top level down to a_0 = 1/phi(zeta_x).
    a = [0.0] * lev
    a[lev - 1] = math.exp(-(zeta_x - lev))
    for j in range(lev - 1, 0, -1):
        a[j - 1] = math.exp(-1.0 / a[j]) if a[j] > 0.0 else 0.0

    # Ratio ladder of Y against X, down to b_0 = |Y|/|X|.
    m = int(zeta_y)
    g = zeta_y - m
    if m == 0:
        return a, a[0] * g
    b = a[m - 1] * math.exp(g)
    for j in range(m - 1, 0, -1):
        d = 1.0 - b
        if d <= 0.0:
            b = 1.0
        elif a[j] <= 0.0:
            b = 0.0
        else:
            b = math.exp(-d / a[j])
    return a, b


def li_mul_div(zeta_x: float, zeta_y: float, divide: bool = False) -> tuple[float, bool]:
    """Magnitude multiply/divide on descriptors with zeta >= 1.

    ln phi(zeta) = phi(zeta - 1), so shifting both levels down by one
    turns the product into a sum of descriptors and the quotient into a
    difference.  Returns (descriptor, flipped): the descriptor is that
    of the product, or of the quotient-or-its-reciprocal whichever is
    >= 1; flipped is True when the division came out below one, i.e.
    the caller must flip the reciprocal sign.  Equal operands divide to
    exactly (1.0, False): their shifted descriptors cancel in the kernel.

    Takes equal-length float64 arrays too, with divide a bool or a bool
    array, and then returns three arrays: the descriptors, the flipped
    flags (the scalar results' own), and the bounds li_add_sub gives for
    the descriptors.
    """
    if isinstance(zeta_x, np.ndarray):
        return _li_mul_div_lanes(zeta_x, zeta_y, divide)
    if not (1.0 <= zeta_x < math.inf and 1.0 <= zeta_y < math.inf):
        raise ValueError(f"need finite descriptors >= 1, got {zeta_x}, {zeta_y}")
    w = li_add_sub(max(zeta_x, zeta_y) - 1.0, min(zeta_x, zeta_y) - 1.0, divide)
    return w + 1.0, divide and zeta_x < zeta_y


def _require_same_format(x: SliNumber, y: SliNumber) -> SliFormat:
    if x.fmt is not y.fmt and x.fmt != y.fmt:
        raise ValueError(f"mixed formats: {x.fmt.name} vs {y.fmt.name}")
    return x.fmt


def _mag_add_sub(fmt: SliFormat, big: SliNumber, small: SliNumber, subtract: bool,
                 sign: int) -> SliNumber:
    """sign * (|big| +/- |small|) for |big| >= |small| (> to subtract),
    both nonzero."""
    if big.reciprocal > 0:
        # A small operand below one is fed as a raw level-0 descriptor,
        # its a_0.  A raw result w is wrapped as 1 + psi(-ln w), the
        # descriptor of 1/w; the kernel never emits one below about 2**-53.
        zy = small.zeta if small.reciprocal > 0 else _ladder(small.zeta, 0.0)[0][0]
        w = li_add_sub(big.zeta, zy, subtract)
        if 0.0 < w < 1.0:
            return _materialize(fmt, sign, -1, 1.0 + psi(-math.log(w)))
        return _materialize(fmt, sign, 1, w)
    # Both below one, so zb <= zs for the descriptors of big and small,
    # and r = phi(zb)/phi(zs) is the b_0 of zb against zs.  Then
    # |big| +/- |small| = (1 +/- r)/phi(zb), whose reciprocal has the log
    # phi(zb - 1) -/+ ln(1 +/- r), the descriptor w of which one kernel run
    # gives: the result's zeta is 1 + w, and that log's sign is the
    # reciprocal flag's.
    r = _ladder(small.zeta, big.zeta)[1]
    # Distinct words give r below 1 - 5e-8 up to 24 index bits, but keep
    # 1 - r > 0, so that a difference is never zero.
    t = psi(-math.log1p(-min(r, 1.0 - _U)) if subtract else math.log1p(r))
    u = big.zeta - 1.0
    w = li_add_sub(max(u, t), min(u, t), not subtract)
    # A sum can reach one or more.
    return _materialize(fmt, sign, -1 if subtract or u >= t else 1, 1.0 + w)


def _add_signed(x: SliNumber, y: SliNumber, y_sign: int) -> SliNumber:
    """Rounded x + y, with y's sign taken as y_sign (add passes y.sign,
    sub -y.sign), so that no negated y is ever built."""
    fmt = _require_same_format(x, y)
    if x.is_zero:
        return y if y_sign == y.sign else neg(y)
    if y.is_zero:
        return x
    rx, ry = magnitude_rank(x), magnitude_rank(y)
    subtract = x.sign != y_sign
    if subtract and rx == ry:
        return SliNumber.zero(fmt)
    if rx >= ry:
        return _mag_add_sub(fmt, x, y, subtract, x.sign)
    if y_sign < 0 and not fmt.signed:
        raise ValueError(f"negative difference in unsigned {fmt.name}")
    return _mag_add_sub(fmt, y, x, subtract, y_sign)


def add(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded sum.  Exact cancellation of equal opposites gives zero."""
    return _add_signed(x, y, y.sign)


def sub(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded difference x + (-y).  In an unsigned format it raises
    ValueError only where y > x, when the difference is negative."""
    return _add_signed(x, y, -y.sign)


def _mul_signed(x: SliNumber, y: SliNumber, y_reciprocal: int) -> SliNumber:
    """Rounded x * y, with y's reciprocal flag taken as y_reciprocal (mul
    passes y.reciprocal, div -y.reciprocal: 1/y flips only that flag, with
    no rounding), so that no inverted y is ever built."""
    fmt = _require_same_format(x, y)
    if x.is_zero or y.is_zero:
        return SliNumber.zero(fmt)
    # With r x's reciprocal flag, x * y is (phi(zeta_x) * phi(zeta_y))**r
    # for like flags and (phi(zeta_x) / phi(zeta_y))**r for unlike ones.
    w, flipped = li_mul_div(x.zeta, y.zeta, x.reciprocal != y_reciprocal)
    return _materialize(fmt, x.sign * y.sign, -x.reciprocal if flipped else x.reciprocal, w)


def mul(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded product.  Saturates at the format boundary, never overflows."""
    return _mul_signed(x, y, y.reciprocal)


def div(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded quotient x * (1/y).  Any zero divisor raises ZeroDivisionError."""
    if y.is_zero:
        _require_same_format(x, y)  # mixed formats are refused first
        raise ZeroDivisionError("SLI division by zero")
    return _mul_signed(x, y, -y.reciprocal)


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


# ---------------------------------------------------------------------------
# Lane forms of the kernels and of add/mul, one array element per operation.
# They run on numpy's exp and log, carry the bounds described in the lane
# section of core, and hand lanes those bounds cannot settle to the scalar op.
# The kernels are reached through the names li_add_sub and li_mul_div, like
# the scalar ops reach them.


def _li_add_sub_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, subtract,
                      err=(0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """li_add_sub per lane, and per lane a bound on the distance from the
    scalar kernel's result, given bounds err on the inputs' distances."""
    ok = (0.0 <= zeta_y) & (zeta_y <= zeta_x) & (zeta_x < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"need finite descriptors zeta_x >= zeta_y >= 0, got {zeta_x[i]}, {zeta_y[i]}"
        )
    subtract = np.asarray(subtract)
    ex, ey = err
    lad = zeta_x >= 1.0
    with np.errstate(all="ignore"):  # dead lanes divide by zero, log 0, ...
        if np.count_nonzero(lad) == lad.size:  # the usual case: all climb ladders
            out, bound = _ladders(zeta_x, zeta_y, subtract, ex, ey)
        else:
            out, bound = np.empty(zeta_x.shape), np.empty(zeta_x.shape)
            subtract, ex, ey = (np.broadcast_to(v, zeta_x.shape) for v in (subtract, ex, ey))
            if lad.any():
                out[lad], bound[lad] = _ladders(
                    zeta_x[lad], zeta_y[lad], subtract[lad], ex[lad], ey[lad])
            # Both magnitudes are raw values below one.
            raw = ~lad
            zx, zy = zeta_x[raw], zeta_y[raw]
            v = np.where(subtract[raw], zx - zy, zx + zy)
            out[raw], bound[raw] = _psi_lanes(v, ex[raw] + ey[raw] + 2 * _U * v)
        # Equal descriptors subtracted cancel to exactly 0.0; from inexact
        # inputs the scalar path may not see them equal.
        same = subtract & (zeta_x == zeta_y)
        if np.count_nonzero(same):
            out[same] = 0.0
            bound[same] = np.where((ex + ey > 0.0) & same, math.inf, 0.0)[same]
    np.copyto(bound, math.inf, where=np.isnan(bound))
    return out, bound


def _rungs_lanes(zx, ex):
    """The reciprocal ladders of _ladder for lanes with zx >= 1, given a
    bound ex on zx's distance.  Bounds named r* are relative, e* absolute;
    a deep lane has none, others have a_0 within a_0 ra_0 + _TINY."""
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
    # Other rungs below the normal range have no relative bound; a_0
    # steps to no further rung.
    deep = (((a[1:] < _TINY) & (ra[1:] != 0.0)) | (ra[1:] > 0.5)).any(axis=0)
    return a, ra, ia, ria, deep


def _ladder_lanes(zx, zy, ex, ey):
    """_ladder for lanes with zx >= 1 and 0 <= zy <= zx, given bounds ex
    and ey on the inputs' distances: the rungs, the bounds li_add_sub's
    climb takes from them, and b_0 within eb (a_0 subnormal or not)."""
    a, ra, ia, ria, deep = _rungs_lanes(zx, ex)
    ia_hi = ia * (1.0 + ria)  # bounds 1/a_j on either path
    ria += 4 * _U  # and the rounding of a product with ia
    ra_hi = 1.0 + ra

    # Ratio ladders of Y against X down to b_0, bounds eb; a raw Y (m = 0)
    # keeps b_0 = a_0 g.  _TINY covers results below the normal range.
    m = np.trunc(zy)
    g = zy - m
    b = a[0] * g
    eb = b * (ra[0] + 2 * _U) + a[0] * ra_hi[0] * ey + _TINY
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
    return a, ra, ra_hi, ia, ia_hi, ria, deep, b, eb


def _ladders(zx, zy, sub, ex, ey) -> tuple[np.ndarray, np.ndarray]:
    """li_add_sub for lanes with zx >= 1: the ladders, then the result
    against X, each lane left where the scalar kernel would return.  A
    lane with a rung that has no relative bound gets inf (or NaN)."""
    a, ra, ra_hi, ia, ia_hi, ria, deep, b, eb = _ladder_lanes(zx, zy, ex, ey)
    n, top = zx.size, a.shape[0]
    lev = np.trunc(zx)
    f = zx - lev
    deep = deep | (a[0] < _TINY) & (ra[0] != 0.0) | (ra[0] > 0.5)

    # Result against X, c_0 = 1 -/+ b_0, up the levels of X until c_j < a_j,
    # which an addition (c_j >= 1) never meets.
    c = np.where(sub, 1.0 - b, 1.0 + b)
    ec = eb + 4 * _U
    terminate = np.count_nonzero(sub)
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
    err[deep] = math.inf
    return zeta, err


def _li_mul_div_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, divide):
    """li_mul_div per lane, with the bound li_add_sub gives."""
    ok = (1.0 <= zeta_x) & (zeta_x < math.inf) & (1.0 <= zeta_y) & (zeta_y < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"need finite descriptors >= 1, got {zeta_x[i]}, {zeta_y[i]}")
    # Equal operands need no short cut here: their descriptors cancel
    # exactly in the kernel, giving (1.0, False) as the scalar path does.
    w, bound = li_add_sub(np.maximum(zeta_x, zeta_y) - 1.0, np.minimum(zeta_x, zeta_y) - 1.0,
                          divide)
    w += 1.0
    return w, (zeta_x < zeta_y) & divide, bound + 2 * _U * w


def _add_lanes(fmt: SliFormat, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """add per lane of the key arrays x and y, the kernel run once for all
    of them; returns keys.  Zero lanes, which read as one, run through the
    kernel like the rest and take the other operand at the end."""
    x_zero, x_sign, x_rec, zx = _key_fields(x, fmt)
    y_zero, y_sign, y_rec, zy = _key_fields(y, fmt)
    # r (zeta - 1) orders magnitudes exactly as magnitude_rank does; big
    # is y where swap, else x, and small the other one.
    swap = x_rec * (zx - 1.0) < y_rec * (zy - 1.0)
    bz, sz = np.where(swap, zy, zx), np.where(swap, zx, zy)
    up = np.where(swap, y_rec, x_rec) > 0
    subtract = x_sign != y_sign
    # Kernel operands (big, small) and their bounds, replaced below where
    # small, or both, are below one.  Equal opposites have equal
    # descriptors, which the kernel cancels to exactly 0.0.
    kx, ky, k_sub = bz.copy(), sz.copy(), subtract.copy()
    ex, ey = np.zeros(bz.shape), np.zeros(bz.shape)
    with np.errstate(all="ignore"):  # log 0 and 1/0 on dead lanes
        # A small operand below one is fed as a raw level-0 descriptor,
        # its a_0.
        chain = up & (np.where(swap, x_rec, y_rec) < 0)
        if np.count_nonzero(chain):
            a, ra, _, _, deep = _rungs_lanes(sz[chain], 0.0)
            ky[chain] = a[0]
            ey[chain] = np.where(deep, math.inf, a[0] * ra[0] + _TINY)
        # Both below one: the kernel takes phi(zb - 1) and ln(1 +/- r),
        # r = b_0 of zb against zs, as in _mag_add_sub.
        down = ~up & ~(subtract & (bz == sz))
        n_down = np.count_nonzero(down)
        if n_down:
            u = bz[down] - 1.0
            *_, deep, b, eb = _ladder_lanes(sz[down], bz[down], 0.0, 0.0)
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
            kx[down], ky[down] = np.where(first, u, t), np.where(first, t, u)
            ex[down], ey[down] = np.where(first, 0.0, et), np.where(first, et, 0.0)
            k_sub[down] = ~sub_d
        zeta, err = li_add_sub(kx, ky, k_sub, err=(ex, ey))

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
    zero = x_zero | y_zero
    if np.count_nonzero(zero):
        zeta[zero] = err[zero] = 0.0
    out = _materialize_lanes(fmt, np.where(swap, y_sign, x_sign), reciprocal, zeta, err,
                             lambda i: add(_from_key(fmt, int(x[i])), _from_key(fmt, int(y[i]))))
    if np.count_nonzero(zero):
        out = np.where(x_zero, y, np.where(y_zero, x, out))
    return out


def _mul_lanes(fmt: SliFormat, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mul per lane of the key arrays x and y; returns keys."""
    x_zero, x_sign, x_rec, zx = _key_fields(x, fmt)
    y_zero, y_sign, y_rec, zy = _key_fields(y, fmt)
    # The kernel run of _mul_signed, whose comment has the case split.
    w, flipped, err = li_mul_div(zx, zy, x_rec != y_rec)
    zero = x_zero | y_zero
    return _materialize_lanes(fmt, x_sign * y_sign, np.where(flipped, -x_rec, x_rec),
                              np.where(zero, 0.0, w), np.where(zero, 0.0, err),
                              lambda i: mul(_from_key(fmt, int(x[i])), _from_key(fmt, int(y[i]))))
