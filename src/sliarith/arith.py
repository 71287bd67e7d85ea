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

Reciprocal operands reduce compositionally, e.g. for x, y both below
one, x + y = (P_x + P_y) / (P_x P_y) with P = 1/|operand|, evaluated as
unrounded descriptors and rounded once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    SliFormat,
    SliNumber,
    _EXP_GONE,
    _TINY,
    _TRANS,
    _U,
    _Lanes,
    _log,
    _psi_lanes,
    _round_index_lanes,
    _unsettled,
    magnitude_rank,
    psi,
    round_index,
)

__all__ = [
    "SequenceState",
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


@dataclass
class SequenceState:
    """Trace of one kernel run, for inspection and property checks.

    a, b, c hold the sequences indexed by subscript (a[0] = 1/phi(X)).
    terminated_at is the step j where c_j < a_j ended the recursion
    early, or None when the kernel ran through all levels of X.
    """

    a: list[float] = field(default_factory=list)
    b: list[float] = field(default_factory=list)
    c: list[float] = field(default_factory=list)
    terminated_at: int | None = None


def li_add_sub(
    zeta_x: float,
    zeta_y: float,
    subtract: bool = False,
    trace: SequenceState | None = None,
    *,
    err=(0.0, 0.0),
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
    a bound returned by an earlier array call does; trace is unused.
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
        v = zeta_x - zeta_y if subtract else zeta_x + zeta_y
        return psi(v) if v >= 1.0 else max(v, 0.0)

    # Reciprocal ladder of X, top level down to a_0 = 1/phi(zeta_x).
    a = [0.0] * lev
    a[lev - 1] = math.exp(-f)
    for j in range(lev - 1, 0, -1):
        a[j - 1] = math.exp(-1.0 / a[j]) if a[j] > 0.0 else 0.0

    # Ratio ladder of Y against X, down to b_0 = |Y|/|X|.
    m = int(zeta_y)
    g = zeta_y - m
    if m == 0:
        b = a[0] * g
        b_hist = [b]
    else:
        b = a[m - 1] * math.exp(g)
        b_hist = [b]
        for j in range(m - 1, 0, -1):
            d = 1.0 - b
            if d <= 0.0:
                b = 1.0
            elif a[j] <= 0.0:
                b = 0.0
            else:
                b = math.exp(-d / a[j])
            b_hist.append(b)
        b_hist.reverse()

    if trace is not None:
        trace.a = list(a)
        trace.b = b_hist
        trace.c = []
        trace.terminated_at = None

    c = 1.0 - b if subtract else 1.0 + b
    j = 0
    while True:
        if trace is not None:
            trace.c.append(c)
        if c <= 0.0:
            # The result magnitude is phi(j) on the nose (or full
            # cancellation at j = 0); roundoff cannot sit below this.
            if trace is not None:
                trace.terminated_at = j
            return float(j)
        if c < a[j]:
            # phi(zeta_z - j) = c/a_j < 1: result level is j.
            if trace is not None:
                trace.terminated_at = j
            return j + c / a[j]
        if j == lev - 1:
            break
        j += 1
        c = 1.0 + a[j] * math.log(c)

    h = f + math.log(c)
    if h < 0.0:  # roundoff below the a_{l-1} <= c guarantee
        h = 0.0
    return lev + psi(h)


def li_mul_div(
    zeta_x: float, zeta_y: float, divide: bool = False, *, err=(0.0, 0.0)
) -> tuple[float, bool]:
    """Magnitude multiply/divide on descriptors with zeta >= 1.

    ln phi(zeta) = phi(zeta - 1), so shifting both levels down by one
    turns the product into a sum of descriptors and the quotient into a
    difference.  Returns (descriptor, flipped): the descriptor is that
    of the product, or of the quotient-or-its-reciprocal whichever is
    >= 1; flipped is True when the division came out below one, i.e.
    the caller must flip the reciprocal sign.  Equal operands divide to
    exactly (1.0, False).

    Takes equal-length float64 arrays too, with divide a bool or a bool
    array and err as in li_add_sub, and then returns three arrays: the
    descriptors, the flipped flags (the scalar results' own), and the
    bounds li_add_sub gives for the descriptors.
    """
    if isinstance(zeta_x, np.ndarray):
        return _li_mul_div_lanes(zeta_x, zeta_y, divide, err)
    if not (1.0 <= zeta_x < math.inf and 1.0 <= zeta_y < math.inf):
        raise ValueError(f"need finite descriptors >= 1, got {zeta_x}, {zeta_y}")
    flipped = False
    if divide:
        if zeta_x == zeta_y:
            return 1.0, False
        if zeta_x < zeta_y:
            zeta_x, zeta_y = zeta_y, zeta_x
            flipped = True
    elif zeta_x < zeta_y:
        zeta_x, zeta_y = zeta_y, zeta_x
    w = li_add_sub(zeta_x - 1.0, zeta_y - 1.0, subtract=divide)
    return w + 1.0, flipped


def _recip_chain(zeta: float) -> float:
    """1/phi(zeta) for zeta >= 1, walked down the ladder to avoid overflow."""
    lev = int(zeta)
    a = math.exp(-(zeta - lev))
    for _ in range(lev - 1):
        a = math.exp(-1.0 / a) if a > 0.0 else 0.0
    return a


def _zeta_of_recip(w: float) -> float:
    """Descriptor of 1/w for a raw magnitude 0 < w < 1.

    Stable form of psi(1/w); kernels never emit a positive raw result
    below about 2**-53, so the logarithm is safe.
    """
    return 1.0 + psi(-math.log(w))


def _materialize(fmt: SliFormat, sign: int, reciprocal: int, zeta: float) -> SliNumber:
    """Round an unrounded (sign, r, zeta) magnitude into the format."""
    if zeta <= 0.0:
        return SliNumber.zero(fmt)
    level, k = round_index(zeta, fmt)
    return SliNumber.of(fmt, sign, reciprocal, level, k)


def _wrap_mag(fmt: SliFormat, sign: int, w: float) -> SliNumber:
    """Materialize a generalized descriptor (magnitude phi(w), any w >= 0)."""
    if w <= 0.0:
        return SliNumber.zero(fmt)
    if w >= 1.0:
        return _materialize(fmt, sign, 1, w)
    return _materialize(fmt, sign, -1, _zeta_of_recip(w))


def _ratio(fmt: SliFormat, sign: int, num_zeta: float, den_zeta: float) -> SliNumber:
    """phi(num)/phi(den) as a rounded number, both descriptors >= 1."""
    w, flipped = li_mul_div(num_zeta, den_zeta, divide=True)
    return _materialize(fmt, sign, -1 if flipped else 1, w)


def _require_same_format(x: SliNumber, y: SliNumber) -> SliFormat:
    if x.fmt != y.fmt:
        raise ValueError(f"mixed formats: {x.fmt.name} vs {y.fmt.name}")
    return x.fmt


def _mag_add_sub(fmt: SliFormat, big: SliNumber, small: SliNumber, subtract: bool) -> SliNumber:
    """|big| +/- |small| with the sign of big, |big| >= |small| (> to
    subtract), both nonzero."""
    if big.reciprocal > 0:
        # A small operand below one is fed as a raw level-0 descriptor.
        zy = small.zeta if small.reciprocal > 0 else _recip_chain(small.zeta)
        return _wrap_mag(fmt, big.sign, li_add_sub(big.zeta, zy, subtract))
    # Both below one: |b| +/- |s| = (P_s +/- P_b)/(P_b P_s) with P = 1/|.|,
    # and P_s >= P_b because big is the larger magnitude.
    w = li_add_sub(small.zeta, big.zeta, subtract)
    zm = li_mul_div(big.zeta, small.zeta)[0]
    if w <= 0.0:
        return SliNumber.zero(fmt)
    if w >= 1.0:
        return _ratio(fmt, big.sign, w, zm)
    # The difference of the P's came out raw: divide through its reciprocal.
    return _materialize(fmt, big.sign, -1, li_mul_div(zm, _zeta_of_recip(w))[0])


def add(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded sum.  Exact cancellation of equal opposites gives zero."""
    fmt = _require_same_format(x, y)
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    rx, ry = magnitude_rank(x), magnitude_rank(y)
    subtract = x.sign != y.sign
    if subtract and rx == ry:
        return SliNumber.zero(fmt)
    big, small = (x, y) if rx >= ry else (y, x)
    return _mag_add_sub(fmt, big, small, subtract)


def sub(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded difference, evaluated as x + (-y)."""
    return add(x, neg(y))


def mul(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded product.  Saturates at the format boundary, never overflows."""
    fmt = _require_same_format(x, y)
    if x.is_zero or y.is_zero:
        return SliNumber.zero(fmt)
    sign = x.sign * y.sign
    if x.reciprocal == y.reciprocal:
        w = li_mul_div(x.zeta, y.zeta)[0]
        return _materialize(fmt, sign, x.reciprocal, w)
    big, small = (x, y) if x.reciprocal > 0 else (y, x)
    return _ratio(fmt, sign, big.zeta, small.zeta)


def div(x: SliNumber, y: SliNumber) -> SliNumber:
    """Rounded quotient.  Any zero divisor raises ZeroDivisionError."""
    fmt = _require_same_format(x, y)
    if y.is_zero:
        raise ZeroDivisionError("SLI division by zero")
    if x.is_zero:
        return SliNumber.zero(fmt)
    sign = x.sign * y.sign
    if x.reciprocal > 0 and y.reciprocal > 0:
        return _ratio(fmt, sign, x.zeta, y.zeta)
    if x.reciprocal < 0 and y.reciprocal < 0:
        return _ratio(fmt, sign, y.zeta, x.zeta)
    w = li_mul_div(x.zeta, y.zeta)[0]
    return _materialize(fmt, sign, 1 if x.reciprocal > 0 else -1, w)


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

    def key(n: SliNumber) -> int:
        if n.is_zero:
            return 0
        return n.sign * (magnitude_rank(n) + 1)

    kx, ky = key(x), key(y)
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


def _ladders(zx, zy, sub, ex, ey) -> tuple[np.ndarray, np.ndarray]:
    """The ladders of li_add_sub for lanes with zx >= 1, every lane at
    every level, each lane left where the scalar kernel would return.
    Bounds named r* are relative, e* absolute; a lane with a rung that
    has no relative bound gets inf (or NaN)."""
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
    deep = (((a < _TINY) & (ra != 0.0)) | (ra > 0.5)).any(axis=0)
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
            np.copyto(eb, b_start * rb_start[j], where=start)
            np.copyto(b, b_start, where=start)

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


def _li_mul_div_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, divide, err=(0.0, 0.0)):
    """li_mul_div per lane, with the bound li_add_sub gives."""
    ok = (1.0 <= zeta_x) & (zeta_x < math.inf) & (1.0 <= zeta_y) & (zeta_y < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"need finite descriptors >= 1, got {zeta_x[i]}, {zeta_y[i]}")
    # Equal operands need no short cut here: their descriptors cancel
    # exactly in the kernel, giving (1.0, False) as the scalar path does.
    swap = zeta_x < zeta_y
    hi = np.where(swap, zeta_y, zeta_x)
    lo = np.where(swap, zeta_x, zeta_y)
    ex, ey = err
    w, bound = li_add_sub(hi - 1.0, lo - 1.0, divide,
                          err=(np.where(swap, ey, ex), np.where(swap, ex, ey)))
    w += 1.0
    return w, swap & divide, bound + 2 * _U * w


def _recip_chain_lanes(zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_recip_chain per lane, with its absolute bound."""
    lev = np.trunc(zeta)
    a, rel = np.exp(-(zeta - lev)), np.full(zeta.shape, np.expm1(_TRANS))
    for s in range(int(lev.max(initial=1)) - 1):
        walk = lev > s + 1
        q = 1.0 / a
        q_rel = rel / np.maximum(1.0 - rel, 0.0) + 2 * _U
        step_rel = np.expm1(q * q_rel + _TRANS)
        step_rel[q * (1.0 - q_rel) > _EXP_GONE] = 0.0  # +0 on both paths
        np.copyto(rel, step_rel, where=walk)
        np.copyto(a, np.exp(-q), where=walk)
    # Below the normal range an exp result is off by a few 2**-1074 at most.
    return a, a * rel + _TINY


def _materialize_lanes(fmt: SliFormat, sign, reciprocal, zeta: np.ndarray, err: np.ndarray):
    """_materialize per lane (zeta <= 0 is zero), and the lanes whose
    rounding err cannot settle; a zero lane is settled only by err 0."""
    zero = zeta <= 0.0
    unsettled = np.where(zero, err != 0.0, _unsettled(zeta, err, fmt))
    level, k = _round_index_lanes(np.where(zero | unsettled, 1.0, zeta), fmt)
    return _Lanes.of(zero, sign, reciprocal, level, k), unsettled


def _add_lanes(fmt: SliFormat, x: _Lanes, y: _Lanes) -> _Lanes:
    """add per lane.  Zero lanes, whose neutral fields read as one, run
    through the kernels like the rest and are replaced at the end."""
    zx, zy = x.zeta(fmt), y.zeta(fmt)
    # r (zeta - 1) orders magnitudes exactly as magnitude_rank does; big
    # is y where swap, else x, and small the other one.
    swap = x.reciprocal * (zx - 1.0) < y.reciprocal * (zy - 1.0)
    bz, sz = np.where(swap, zy, zx), np.where(swap, zx, zy)
    up = np.where(swap, y.reciprocal, x.reciprocal) > 0
    # Equal opposites have equal descriptors on both branches, which the
    # kernel cancels to exactly 0.0.
    subtract = x.sign != y.sign
    # Kernel operands: (big, small) when big is at least one; (small, big)
    # when both are below one, where zeta orders magnitudes the other way.
    kx, ky = np.where(up, bz, sz), np.where(up, sz, bz)
    err_y = 0.0
    with np.errstate(all="ignore"):  # log 0 and 1/0 on dead lanes
        # A small operand below one is fed as a raw level-0 descriptor.
        chain = up & (np.where(swap, x.reciprocal, y.reciprocal) < 0)
        if np.count_nonzero(chain):
            err_y = np.zeros(ky.shape)
            ky[chain], err_y[chain] = _recip_chain_lanes(sz[chain])
        zeta, err = li_add_sub(kx, ky, subtract, err=(0.0, err_y))

        # A raw w is wrapped as the descriptor 1 + psi(-ln w) of 1/w.
        raw = (zeta > 0.0) & (zeta < 1.0)
        if np.count_nonzero(raw):
            log_w, elog = _log(zeta[raw], err[raw])
            z, ez = _psi_lanes(-log_w, elog)
            zeta[raw] = 1.0 + z
            err[raw] = ez + 2 * _U * zeta[raw]
        reciprocal = np.where(raw, -1, 1)
        # Both below one: |b| +/- |s| = (P_s +/- P_b)/(P_b P_s) with P = 1/|.|.
        down = ~up & (zeta > 0.0)
        if np.count_nonzero(down):
            down = np.flatnonzero(down)
            zm, _, ezm = li_mul_div(bz[down], sz[down])
            ratio = ~raw[down]
            zw, ezw = zeta[down], err[down]
            # w >= 1 is divided by P_b P_s; a raw w came out as the
            # descriptor of 1/w, which P_b P_s multiplies, for a result
            # below one.
            zeta[down], flipped, err[down] = li_mul_div(
                np.where(ratio, zw, zm), np.where(ratio, zm, zw), ratio,
                err=(np.where(ratio, ezw, ezm), np.where(ratio, ezm, ezw)))
            reciprocal[down] = np.where(ratio & ~flipped, 1, -1)
    out, redo = _materialize_lanes(
        fmt, np.where(swap, y.sign, x.sign), reciprocal, zeta, err)
    zero = x.zero | y.zero
    if np.count_nonzero(zero):
        out = _Lanes(*(np.where(x.zero, fy, np.where(y.zero, fx, fo))
                       for fo, fx, fy in zip(out, x, y)))
        redo &= ~zero
    return out.redo(redo, lambda i: add(x.number(i, fmt), y.number(i, fmt)))


def _mul_lanes(fmt: SliFormat, x: _Lanes, y: _Lanes) -> _Lanes:
    """mul per lane."""
    zx, zy = x.zeta(fmt), y.zeta(fmt)
    same = x.reciprocal == y.reciprocal
    # Mixed reciprocals: the quotient of the operand above one by the other.
    x_first = same | (x.reciprocal > 0)
    w, flipped, err = li_mul_div(np.where(x_first, zx, zy), np.where(x_first, zy, zx), ~same)
    reciprocal = np.where(same, x.reciprocal, np.where(flipped, -1, 1))
    zero = x.zero | y.zero
    out, redo = _materialize_lanes(fmt, x.sign * y.sign, reciprocal,
                                   np.where(zero, 0.0, w), np.where(zero, 0.0, err))
    return out.redo(redo, lambda i: mul(x.number(i, fmt), y.number(i, fmt)))
