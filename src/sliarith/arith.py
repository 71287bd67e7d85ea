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
    _Lanes,
    _lane_map,
    _psi_lanes,
    _round_index_lanes,
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
) -> float:
    """Magnitude add/subtract on generalized descriptors.

    Needs finite zeta_x >= zeta_y >= 0, i.e. the caller puts the larger
    magnitude first (phi is monotone, so descriptor order is magnitude
    order).  Returns the descriptor of phi(zeta_x) +/- phi(zeta_y);
    exact cancellation returns 0.0.

    zeta_x and zeta_y may also be equal-length float64 arrays, with
    subtract a bool or a bool array; then every element is one kernel
    run, the same number as the scalar call gives, and trace is unused.
    """
    if isinstance(zeta_x, np.ndarray):
        return _li_add_sub_lanes(zeta_x, zeta_y, subtract)
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
    zeta_x: float, zeta_y: float, divide: bool = False
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
    array, and then returns two arrays, element by element the scalar
    results.
    """
    if isinstance(zeta_x, np.ndarray):
        return _li_mul_div_lanes(zeta_x, zeta_y, divide)
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
# Lane forms of the kernels and of add/mul, one array element per operation
# (see the lane section of core).  The kernels are reached through the names
# li_add_sub and li_mul_div, like the scalar ops reach them.


def _exp_neg_ratio(num, den: np.ndarray) -> np.ndarray:
    """exp(-num/den) where den > 0, else 0.0, with num a float or an
    array like den.  A quotient past the binary64 range is -inf and its
    exp 0.0, as with Python floats.
    """
    pos = den > 0.0
    with np.errstate(over="ignore"):
        q = -num / np.where(pos, den, 1.0)
    out = np.zeros(den.shape)
    out[pos] = _lane_map(math.exp, q[pos])
    return out


def _li_add_sub_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, subtract) -> np.ndarray:
    """li_add_sub per lane; each lane leaves its ladders where the scalar
    kernel would return."""
    ok = (0.0 <= zeta_y) & (zeta_y <= zeta_x) & (zeta_x < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"need finite descriptors zeta_x >= zeta_y >= 0, got {zeta_x[i]}, {zeta_y[i]}"
        )
    subtract = np.full(zeta_x.shape, subtract)
    out = np.zeros(zeta_x.shape)  # equal descriptors subtracted stay 0.0
    live = ~(subtract & (zeta_x == zeta_y))

    raw = live & (zeta_x < 1.0)
    if raw.any():
        # Both magnitudes are raw values below one.
        zx, zy = zeta_x[raw], zeta_y[raw]
        v = np.where(subtract[raw], zx - zy, zx + zy)
        out[raw] = np.where(v >= 1.0, _psi_lanes(v), np.maximum(v, 0.0))

    idx = np.flatnonzero(live & (zeta_x >= 1.0))
    if not idx.size:
        return out
    zx, zy, sub = zeta_x[idx], zeta_y[idx], subtract[idx]
    lev = np.trunc(zx)
    f = zx - lev
    lev = lev.astype(np.intp)
    top = int(lev.max())

    # Reciprocal ladders of X, row j = a_j, each walked down from its
    # lane's top level.
    a = np.zeros((top, idx.size))
    for j in range(top - 1, -1, -1):
        start = lev - 1 == j
        a[j, start] = _lane_map(math.exp, -f[start])
        walk = lev - 1 > j
        if walk.any():
            a[j, walk] = _exp_neg_ratio(1.0, a[j + 1, walk])

    # Ratio ladders of Y against X, down to b_0.
    m = np.trunc(zy)
    g = zy - m
    m = m.astype(np.intp)
    b = a[0] * g  # kept where m == 0
    for j in range(top - 1, -1, -1):
        start = m - 1 == j
        b[start] = a[j, start] * _lane_map(math.exp, g[start])
        walk = m - 1 > j
        if walk.any():
            d = 1.0 - b[walk]
            step = _exp_neg_ratio(d, np.where(d > 0.0, a[j + 1, walk], 0.0))
            step[d <= 0.0] = 1.0
            b[walk] = step

    c = np.where(sub, 1.0 - b, 1.0 + b)
    res = np.empty(idx.size)
    ran_out = []
    act = np.arange(idx.size)
    j = 0
    while True:
        cj, aj = c[act], a[j, act]
        at_j = cj <= 0.0
        res[act[at_j]] = float(j)
        below = ~at_j & (cj < aj)
        res[act[below]] = j + cj[below] / aj[below]
        go = ~(at_j | below)
        last = lev[act] - 1 == j
        ran_out.append(act[go & last])
        act = act[go & ~last]
        if not act.size:
            break
        j += 1
        c[act] = 1.0 + a[j, act] * _lane_map(math.log, c[act])

    done = np.concatenate(ran_out)
    h = f[done] + _lane_map(math.log, c[done])
    h[h < 0.0] = 0.0
    res[done] = lev[done] + _psi_lanes(h)
    out[idx] = res
    return out


def _li_mul_div_lanes(zeta_x: np.ndarray, zeta_y: np.ndarray, divide):
    """li_mul_div per lane."""
    ok = (1.0 <= zeta_x) & (zeta_x < math.inf) & (1.0 <= zeta_y) & (zeta_y < math.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"need finite descriptors >= 1, got {zeta_x[i]}, {zeta_y[i]}")
    # Equal operands need no short cut here: their descriptors cancel
    # exactly in the kernel, giving (1.0, False) as the scalar path does.
    swap = zeta_x < zeta_y
    hi = np.where(swap, zeta_y, zeta_x)
    lo = np.where(swap, zeta_x, zeta_y)
    w = li_add_sub(hi - 1.0, lo - 1.0, divide)
    return w + 1.0, swap & divide


def _recip_chain_lanes(zeta: np.ndarray) -> np.ndarray:
    """_recip_chain per lane."""
    lev = np.trunc(zeta)
    a = _lane_map(math.exp, -(zeta - lev))
    steps = lev.astype(np.intp) - 1
    for s in range(int(steps.max(initial=0))):
        walk = steps > s
        a[walk] = _exp_neg_ratio(1.0, a[walk])
    return a


def _materialize_lanes(fmt: SliFormat, sign, reciprocal, zeta: np.ndarray) -> _Lanes:
    """_materialize per lane: zeta <= 0 is zero."""
    zero = zeta <= 0.0
    level, k = _round_index_lanes(np.where(zero, 1.0, zeta), fmt)
    return _Lanes.of(zero, sign, reciprocal, level, k)


def _add_lanes(fmt: SliFormat, x: _Lanes, y: _Lanes) -> _Lanes:
    """add per lane.  Zero lanes, whose neutral fields read as one, run
    through the kernels like the rest and are replaced at the end."""
    half = 1 << (fmt.level_bits + fmt.index_bits)

    def rank(n: _Lanes) -> np.ndarray:
        return half - 1 + n.reciprocal * ((n.level - 1) << fmt.index_bits | n.index_k)

    # big is y where swap, else x; small the other one.
    swap = rank(x) < rank(y)
    zx, zy = x.zeta(fmt), y.zeta(fmt)
    bz, sz = np.where(swap, zy, zx), np.where(swap, zx, zy)
    up = np.where(swap, y.reciprocal, x.reciprocal) > 0
    # Equal opposites have equal descriptors on both branches, which the
    # kernel cancels to exactly 0.0.
    subtract = x.sign != y.sign
    # Kernel operands: (big, small) when big is at least one; (small, big)
    # when both are below one, where zeta orders magnitudes the other way.
    kx, ky = np.where(up, bz, sz), np.where(up, sz, bz)
    # A small operand below one is fed as a raw level-0 descriptor.
    chain = up & (np.where(swap, x.reciprocal, y.reciprocal) < 0)
    ky[chain] = _recip_chain_lanes(sz[chain])
    w = li_add_sub(kx, ky, subtract)

    raw = (w > 0.0) & (w < 1.0)
    zeta = w.copy()
    zeta[raw] = 1.0 + _psi_lanes(-_lane_map(math.log, w[raw]))  # zeta of 1/w
    reciprocal = np.where(raw, -1, 1)
    # Both below one: |b| +/- |s| = (P_s +/- P_b)/(P_b P_s) with P = 1/|.|.
    down = np.flatnonzero(~up & (w > 0.0))
    if down.size:
        zm = li_mul_div(bz[down], sz[down])[0]
        ratio = ~raw[down]
        zw = zeta[down]
        # w >= 1 is divided by P_b P_s; a raw w came out as the descriptor
        # of 1/w, which P_b P_s multiplies, for a result below one.
        w2, flipped = li_mul_div(np.where(ratio, zw, zm), np.where(ratio, zm, zw), ratio)
        zeta[down] = w2
        reciprocal[down] = np.where(ratio & ~flipped, 1, -1)
    out = _materialize_lanes(fmt, np.where(swap, y.sign, x.sign), reciprocal, zeta)
    return _Lanes(*(np.where(x.zero, fy, np.where(y.zero, fx, fo))
                    for fo, fx, fy in zip(out, x, y)))


def _mul_lanes(fmt: SliFormat, x: _Lanes, y: _Lanes) -> _Lanes:
    """mul per lane."""
    zx, zy = x.zeta(fmt), y.zeta(fmt)
    same = x.reciprocal == y.reciprocal
    # Mixed reciprocals: the quotient of the operand above one by the other.
    x_first = same | (x.reciprocal > 0)
    w, flipped = li_mul_div(np.where(x_first, zx, zy), np.where(x_first, zy, zx), ~same)
    reciprocal = np.where(same, x.reciprocal, np.where(flipped, -1, 1))
    zeta = np.where(x.zero | y.zero, 0.0, w)
    return _materialize_lanes(fmt, x.sign * y.sign, reciprocal, zeta)
