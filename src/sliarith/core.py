"""Symmetric level-index formats, the scalar codec, and rounding.

A symmetric level-index (SLI) number represents x as

    x = s(x) * phi(zeta) ** r(x),      zeta = l + f,

where l >= 1 is the integer level, f in [0, 1) is the index, s(x) is the
sign, and the reciprocal bit r(x) is +1 when |x| >= 1 and -1 when
0 < |x| < 1.  The generalized exponential phi and its inverse psi are

    phi(z) = z               for 0 <= z < 1,
    phi(z) = exp(phi(z - 1)) otherwise,

    psi(v) = v               for 0 <= v < 1,
    psi(v) = 1 + psi(ln v)   otherwise.

Because magnitudes below one are stored through their reciprocal, a
single table of zeta values covers both halves of the axis and the
system is closed under inversion.  There are no infinities and no NaNs:
results beyond the largest representable zeta saturate.

A format "sli<p_l>.<p_i>" packs, from the most significant bit down:
an optional sign bit (0 = +), the reciprocal bit (1 means r = +1),
the level minus one in p_l bits, and the index scaled by 2**p_i in
p_i bits.  The all-zeros word is zero by convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "SliFormat",
    "SliNumber",
    "BitWord",
    "phi",
    "psi",
    "log_phi10",
    "round_index",
    "encode",
    "decode",
    "decode_fields",
    "word_fields",
    "pack",
    "unpack",
    "enumerate_values",
    "magnitude_rank",
    "next_up",
    "spacing",
]

# math.exp overflows binary64 just above this argument.
_EXP_MAX_ARG = 709.782712893384

# psi(x) of the largest finite binary64 is about 4.97; anything at level 6
# or deeper is far beyond binary64 either way.
_PSI_MAX_LEVELS = 64

# Widest accepted index.  Against an 80-digit oracle the binary64 add/sub
# kernel lands several ranks off from 26 bits on; at 24 bits it stays
# within one rank, missing by one on about 3 in 10 000 sampled ops (half
# of the sample near-cancellation pairs).
MAX_INDEX_BITS = 24

# Widest format whose every word may be listed (enumerations and value
# tables): each row is a few Python objects, and 24 bits is already
# 16.8 million rows.
MAX_TABLE_BITS = 24


def phi(zeta: float) -> float:
    """Generalized exponential: phi(z) = z on [0, 1), else exp(phi(z - 1)).

    Defined for z >= 0.  Returns math.inf once the tower overflows
    binary64; phi itself is finite for every finite argument.
    """
    if math.isnan(zeta) or zeta < 0.0:
        raise ValueError(f"phi is defined for zeta >= 0, got {zeta}")
    levels = 0
    while zeta >= 1.0:
        zeta -= 1.0
        levels += 1
    v = zeta
    for _ in range(levels):
        if v > _EXP_MAX_ARG:
            return math.inf
        v = math.exp(v)
    return v


def psi(value: float) -> float:
    """Inverse of phi: psi(v) = v on [0, 1), else 1 + psi(ln v).

    Defined for v >= 0 and finite.  psi(1) = 1 (level 1, index 0).
    """
    if math.isnan(value) or value < 0.0 or math.isinf(value):
        raise ValueError(f"psi needs a finite value >= 0, got {value}")
    level = 0.0
    while value >= 1.0:
        value = math.log(value)
        level += 1.0
        if level > _PSI_MAX_LEVELS:  # impossible for binary64 input
            raise ValueError("psi failed to converge")
    return level + value


def log_phi10(zeta: float) -> float:
    """Base-10 logarithm of phi(zeta), usable far beyond binary64 range.

    Peels exponentiations while the running value stays a safe exp
    argument, then converts to a decimal exponent and applies any
    remaining levels as powers of ten.  Returns -inf for zeta = 0 and
    math.inf once even the decimal exponent leaves binary64.
    """
    if math.isnan(zeta) or zeta < 0.0:
        raise ValueError(f"log_phi10 is defined for zeta >= 0, got {zeta}")
    levels = 0
    while zeta >= 1.0:
        zeta -= 1.0
        levels += 1
    v = zeta
    while levels > 0 and v <= _EXP_MAX_ARG:
        v = math.exp(v)
        levels -= 1
    if levels == 0:
        if v == 0.0:
            return -math.inf
        return math.log10(v)
    # v is a natural-log exponent too large to exponentiate directly.
    lg = v / math.log(10.0)
    for _ in range(levels - 1):
        if lg > 308.0:
            return math.inf
        lg = 10.0 ** lg
    return lg


_NAME_RE = re.compile(r"^sli([1-9][0-9]*)\.([1-9][0-9]*)(u?)$")


@dataclass(frozen=True, slots=True)
class SliFormat:
    """An SLI bit format: level bits, index bits, and a sign flag.

    The canonical name is "sli<level_bits>.<index_bits>" with a "u"
    suffix for unsigned formats, e.g. "sli2.12" or "sli1.3u".
    """

    level_bits: int = 2
    index_bits: int = 12
    signed: bool = True
    # Derived once, since the scalar codec reads them for every value:
    # total bits in a packed word, 2**level_bits, and the denominator of
    # representable indices, 2**index_bits.
    width: int = field(init=False, repr=False, compare=False)
    max_level: int = field(init=False, repr=False, compare=False)
    index_scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.level_bits <= 6:
            raise ValueError(f"level_bits must be in 1..6, got {self.level_bits}")
        if not 1 <= self.index_bits <= MAX_INDEX_BITS:
            raise ValueError(
                f"index_bits must be in 1..{MAX_INDEX_BITS}, got {self.index_bits}"
            )
        width = (1 if self.signed else 0) + 1 + self.level_bits + self.index_bits
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "max_level", 1 << self.level_bits)
        object.__setattr__(self, "index_scale", 1 << self.index_bits)

    @classmethod
    def from_name(cls, name: str) -> "SliFormat":
        m = _NAME_RE.match(name.strip())
        if m is None:
            raise ValueError(f"not an SLI format name: {name!r}")
        return cls(int(m.group(1)), int(m.group(2)), signed=m.group(3) != "u")

    @property
    def name(self) -> str:
        suffix = "" if self.signed else "u"
        return f"sli{self.level_bits}.{self.index_bits}{suffix}"

    @property
    def max_zeta(self) -> float:
        """Largest representable zeta: max_level + (scale - 1)/scale."""
        return self.max_level + (self.index_scale - 1) / self.index_scale

    @property
    def max_value(self) -> float:
        """Largest representable magnitude as a binary64 (may be inf)."""
        return phi(self.max_zeta)

    @property
    def min_value(self) -> float:
        """Smallest positive representable magnitude (may underflow to 0)."""
        mv = self.max_value
        return 0.0 if math.isinf(mv) else 1.0 / mv

    def __str__(self) -> str:
        return self.name


class _Value(tuple):
    """Tuple base of the immutable value types, without tuple semantics.

    Values compare equal, and hash alike, field by field and only within
    their own class: a value never equals a plain tuple.  They have no
    order (use arith.compare) and no tuple concatenation or repetition.
    _make and _replace build through the validating constructor.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def _no_tuple_op(self, other):
        # Returning NotImplemented would let tuple concatenate or repeat.
        raise TypeError(f"{type(self).__name__} values do not concatenate or repeat")

    __add__ = __radd__ = __mul__ = __rmul__ = _no_tuple_op

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SliFields(NamedTuple):
    fmt: SliFormat
    is_zero: bool
    sign: int
    reciprocal: int
    level: int
    index_k: int


class SliNumber(_Value, _SliFields):
    """One representable SLI value: sign, reciprocal flag, level, index.

    index_k is the integer numerator of the index, so the index proper is
    index_k / fmt.index_scale and zeta = level + index.  Zero is carried
    as an explicit flag with neutral fields (+1, +1, level 1, k 0).
    Construction validates ranges; the non-canonical spelling of one
    (r = -1, level 1, index 0) is rejected, use SliNumber.of() to build
    values from raw fields with canonicalization applied.  Values are
    immutable and compare by field.
    """

    __slots__ = ()

    def __new__(
        cls, fmt: SliFormat, is_zero: bool, sign: int, reciprocal: int, level: int,
        index_k: int,
    ) -> "SliNumber":
        # Every valid nonzero value passes this one test; anything else
        # (zero included) goes through the checks one by one below.
        if (
            not is_zero
            and (sign == 1 or (sign == -1 and fmt.signed))
            and (reciprocal == 1 or (reciprocal == -1 and (level != 1 or index_k != 0)))
            and 1 <= level <= fmt.max_level
            and 0 <= index_k < fmt.index_scale
        ):
            return tuple.__new__(cls, (fmt, is_zero, sign, reciprocal, level, index_k))
        if sign not in (1, -1) or reciprocal not in (1, -1):
            raise ValueError("sign and reciprocal must be +1 or -1")
        if not fmt.signed and sign < 0:
            raise ValueError(f"{fmt.name} is unsigned, sign must be +1")
        if is_zero:
            if (sign, reciprocal, level, index_k) != (1, 1, 1, 0):
                raise ValueError("zero must carry neutral fields")
        else:
            if not 1 <= level <= fmt.max_level:
                raise ValueError(
                    f"level {level} outside 1..{fmt.max_level} for {fmt.name}"
                )
            if not 0 <= index_k < fmt.index_scale:
                raise ValueError(
                    f"index numerator {index_k} outside 0..{fmt.index_scale - 1}"
                )
            if reciprocal < 0 and level == 1 and index_k == 0:
                raise ValueError(
                    "non-canonical spelling of one (r=-1, zeta=1); use SliNumber.of"
                )
        return tuple.__new__(cls, (fmt, is_zero, sign, reciprocal, level, index_k))

    @classmethod
    def zero(cls, fmt: SliFormat) -> "SliNumber":
        return cls(fmt, True, 1, 1, 1, 0)

    @classmethod
    def one(cls, fmt: SliFormat, sign: int = 1) -> "SliNumber":
        return cls(fmt, False, sign, 1, 1, 0)

    @classmethod
    def of(
        cls, fmt: SliFormat, sign: int, reciprocal: int, level: int, index_k: int
    ) -> "SliNumber":
        """Build a nonzero value, folding 1/1 onto the canonical one."""
        if reciprocal < 0 and level == 1 and index_k == 0:
            reciprocal = 1
        return cls(fmt, False, sign, reciprocal, level, index_k)

    @property
    def index(self) -> float:
        """Fractional index f = index_k / 2**index_bits, exact in binary64."""
        return self.index_k / self.fmt.index_scale

    @property
    def zeta(self) -> float:
        """Level-index sum l + f, exact in binary64 for every format."""
        return self.level + self.index

    def __float__(self) -> float:
        return decode(self)

    def __neg__(self) -> "SliNumber":
        return arith.neg(self)

    def __abs__(self) -> "SliNumber":
        return arith.absolute(self)

    def __add__(self, other: "SliNumber") -> "SliNumber":
        return arith.add(self, other)

    def __sub__(self, other: "SliNumber") -> "SliNumber":
        return arith.sub(self, other)

    def __mul__(self, other: "SliNumber") -> "SliNumber":
        return arith.mul(self, other)

    def __truediv__(self, other: "SliNumber") -> "SliNumber":
        return arith.div(self, other)

    def __str__(self) -> str:
        if self.is_zero:
            return f"0 [{self.fmt.name}]"
        s = "-" if self.sign < 0 else ""
        r = "+1" if self.reciprocal > 0 else "-1"
        return (
            f"{s}phi({self.level}+{self.index_k}/{self.fmt.index_scale})^{r}"
            f" [{self.fmt.name}]"
        )


class _BitWordFields(NamedTuple):
    bits: int
    width: int


class BitWord(_Value, _BitWordFields):
    """A fixed-width little bundle of bits, MSB first in the string form.

    Immutable and compared by field, like SliNumber.
    """

    __slots__ = ()

    def __new__(cls, bits: int, width: int) -> "BitWord":
        if 1 <= width <= 64 and 0 <= bits < (1 << width):
            return tuple.__new__(cls, (bits, width))
        if not 1 <= width <= 64:
            raise ValueError(f"width must be in 1..64, got {width}")
        raise ValueError(f"bits 0x{bits:x} do not fit in {width} bits")

    @classmethod
    def from_string(cls, text: str) -> "BitWord":
        text = text.strip()
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(text, 2), len(text))

    def __str__(self) -> str:
        return format(self.bits, f"0{self.width}b")


def round_index(zeta: float, fmt: SliFormat) -> tuple[int, int]:
    """Round a nonnegative zeta to (level, index numerator), ties away.

    zeta below 1 is treated as level 1 with the raw value as index
    (callers pass zeta >= 1 in normal use; encode maps magnitudes below
    one through the reciprocal first).  A rounded index of 1.0 carries
    into the next level.  Rounding past the top of the format saturates
    at the largest representable (level, index) pair instead of
    overflowing; there is no infinity to overflow to.
    """
    if math.isnan(zeta) or zeta < 0.0:
        raise ValueError(f"round_index needs zeta >= 0, got {zeta}")
    scale = fmt.index_scale
    if math.isinf(zeta) or zeta >= fmt.max_level + 1:
        return fmt.max_level, scale - 1
    level = int(zeta)
    frac = zeta - level
    if level < 1:
        level, frac = 1, zeta
    # Scaled index, rounded half away from zero.  The tie test compares
    # the exact fractional part, not floor(t + 0.5), which misrounds
    # values like 0.49999999999999994 in binary64.
    t = frac * scale
    k = int(t)
    if t - k >= 0.5:
        k += 1
    if k == scale:
        k = 0
        level += 1
    if level > fmt.max_level:
        return fmt.max_level, scale - 1
    return level, k


def encode(value: float, fmt: SliFormat | None = None) -> SliNumber:
    """Round a binary64 value to the nearest representable SLI number.

    Magnitudes below one are encoded through psi of the reciprocal with
    r = -1.  Signed zero collapses to the single zero; negative values
    need a signed format.  Infinities and NaNs are rejected: the target
    system has neither.
    """
    if fmt is None:
        fmt = SliFormat()
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot encode non-finite value {value}")
    if value == 0.0:
        return SliNumber.zero(fmt)
    sign = 1 if value > 0.0 else -1
    if sign < 0 and not fmt.signed:
        raise ValueError(f"cannot encode negative value in unsigned {fmt.name}")
    a = abs(value)
    if a >= 1.0:
        reciprocal = 1
        zeta = psi(a)
    else:
        reciprocal = -1
        # psi(1/a) without forming 1/a, which overflows for subnormal a.
        zeta = 1.0 + psi(-math.log(a))
    level, k = round_index(zeta, fmt)
    return SliNumber.of(fmt, sign, reciprocal, level, k)


def decode(num: SliNumber) -> float:
    """Nearest binary64 to the represented value.

    Exact only while phi(zeta) fits binary64; huge magnitudes decode to
    inf and their reciprocals to 0.0, which is a limitation of the
    output type, not of the representation.
    """
    if num.is_zero:
        return 0.0
    return decode_fields(num.fmt, num.sign, num.reciprocal, num.level, num.index_k)


def decode_fields(fmt: SliFormat, sign: int, reciprocal: int, level: int, index_k: int) -> float:
    """Decode raw fields without canonicalization or zero convention.

    decode goes through it for nonzero numbers, and so do raw codec
    views, where the all-zeros word means phi(1)^{-1} = 1 rather than
    zero.
    """
    zeta = level + index_k / fmt.index_scale
    mag = phi(zeta)
    if reciprocal < 0:
        mag = 0.0 if math.isinf(mag) else 1.0 / mag
    return sign * mag


def pack(num: SliNumber) -> BitWord:
    """Pack into sign | reciprocal | level-1 | index bits (MSB first)."""
    fmt = num.fmt
    if num.is_zero:
        return BitWord(0, fmt.width)
    bits = (num.level - 1) << fmt.index_bits | num.index_k
    if num.reciprocal > 0:
        bits |= 1 << (fmt.level_bits + fmt.index_bits)
    if fmt.signed and num.sign < 0:
        bits |= 1 << (fmt.width - 1)
    return BitWord(bits, fmt.width)


def word_fields(bits: int, fmt: SliFormat) -> tuple[int, int, int, int]:
    """Literal (sign, reciprocal, level, index_k) fields of a word's bits.

    Applies neither the zero convention nor canonicalization: the
    all-zeros payload reads as (r, level, index_k) == (-1, 1, 0).
    """
    payload_bits = fmt.level_bits + fmt.index_bits
    return (
        -1 if bits >> (payload_bits + 1) & 1 else 1,
        1 if bits >> payload_bits & 1 else -1,
        (bits >> fmt.index_bits & (fmt.max_level - 1)) + 1,
        bits & (fmt.index_scale - 1),
    )


def unpack(word: BitWord, fmt: SliFormat) -> SliNumber:
    """Inverse of pack.

    The all-zeros payload is zero regardless of the sign bit, so the
    negative-zero word of a signed format folds onto plain zero.
    """
    if word.width != fmt.width:
        raise ValueError(f"word width {word.width} does not match {fmt.name} ({fmt.width})")
    sign, reciprocal, level, index_k = word_fields(word.bits, fmt)
    if (reciprocal, level, index_k) == (-1, 1, 0):
        return SliNumber.zero(fmt)
    return SliNumber.of(fmt, sign, reciprocal, level, index_k)


def enumerate_values(fmt: SliFormat, raw: bool = False) -> list[tuple[BitWord, float, float]]:
    """All 2**width words in raw word order, each with its decoded value
    and the base-10 logarithm of that magnitude (log_phi10 of zeta,
    negated below one), which stays finite past binary64's range.

    With raw=True the zero convention and canonicalization are ignored
    and every word decodes through its literal fields (the all-zeros
    word then reads as one); otherwise zero payloads give 0.0 and -inf.
    Capped at MAX_TABLE_BITS-wide formats; wider tables have no
    business being materialized.
    """
    if fmt.width > MAX_TABLE_BITS:
        raise ValueError(f"refusing to enumerate {fmt.width}-bit format {fmt.name}")
    out: list[tuple[BitWord, float, float]] = []
    for bits in range(1 << fmt.width):
        word = BitWord(bits, fmt.width)
        sign, reciprocal, level, index_k = word_fields(bits, fmt)
        if not raw and (reciprocal, level, index_k) == (-1, 1, 0):
            out.append((word, 0.0, -math.inf))
            continue
        lg = log_phi10(level + index_k / fmt.index_scale)
        out.append((word, decode_fields(fmt, sign, reciprocal, level, index_k),
                    lg if reciprocal > 0 else -lg))
    return out


def magnitude_rank(num: SliNumber) -> int:
    """Position of |num| in the ascending ladder of positive magnitudes.

    Rank 0 is the smallest positive magnitude (r = -1 at the top zeta)
    and the canonical one sits exactly in the middle.  Adjacent
    representable magnitudes differ by one rank, so rank differences
    measure distance in index ULPs across level and reciprocal
    boundaries.  Zero has no rank.
    """
    if num.is_zero:
        raise ValueError("zero has no magnitude rank")
    fmt = num.fmt
    m = (num.level - 1) << fmt.index_bits | num.index_k
    half = 1 << (fmt.level_bits + fmt.index_bits)
    if num.reciprocal > 0:
        return half - 1 + m
    return half - 1 - m


def _from_rank(fmt: SliFormat, sign: int, rank: int) -> SliNumber:
    half = 1 << (fmt.level_bits + fmt.index_bits)
    if not 0 <= rank <= 2 * (half - 1):
        raise ValueError(f"rank {rank} outside the {fmt.name} ladder")
    if rank >= half - 1:
        reciprocal, m = 1, rank - (half - 1)
    else:
        reciprocal, m = -1, half - 1 - rank
    level = (m >> fmt.index_bits) + 1
    index_k = m & (fmt.index_scale - 1)
    return SliNumber.of(fmt, sign, reciprocal, level, index_k)


def next_up(num: SliNumber) -> SliNumber:
    """Smallest representable value strictly greater than num.

    Raises ValueError at the positive top of the range; there is no
    infinity to step onto.
    """
    fmt = num.fmt
    top = 2 * ((1 << (fmt.level_bits + fmt.index_bits)) - 1)
    if num.is_zero:
        return _from_rank(fmt, 1, 0)
    if num.sign > 0:
        rank = magnitude_rank(num)
        if rank == top:
            raise ValueError(f"next_up past the top of {fmt.name}")
        return _from_rank(fmt, 1, rank + 1)
    rank = magnitude_rank(num)
    if rank == 0:
        return SliNumber.zero(fmt)
    return _from_rank(fmt, -1, rank - 1)


def spacing(num: SliNumber) -> float:
    """Gap to the next value up, as a binary64 (inf if decode overflows)."""
    return decode(next_up(num)) - decode(num)


# ---------------------------------------------------------------------------
# Lane forms: many numbers at once, one array element ("lane") each.
#
# Lanes follow the scalar code above step by step, but take exp and log
# from numpy, whose float64 versions may round differently from libm's
# (on AVX512 CPUs numpy runs its own SIMD code; elsewhere it calls libm).
# So an unrounded lane result may differ from the scalar one by a few
# ulps, and every rounding lane op carries a per-lane bound on that
# difference.  A lane whose result lies within its bound of a rounding
# tie, or whose bound is not finite, is redone by the scalar op (Ziv's
# rounding test, ACM TOMS 17(3), 1991).  Rounded lane results are thus
# the scalar op's, bit for bit.  The lane decode keeps libm, one element
# at a time: it does no rounding into a format, and its binary64 output
# is what gets printed.
#
# The bound is a running error bound (Higham, Accuracy and Stability of
# Numerical Algorithms, ch. 3) on |lane - scalar| for the same inputs,
# carried beside every intermediate value:
# - numpy's and glibc's float64 exp and log are each within one ulp of
#   the correctly rounded value: numpy's accuracy tests hold them to
#   ulperror 1 (umath-validation-set-exp.csv and -log.csv), and glibc
#   documents 0.511 and 0.519 ulp.  Two implementations then differ by
#   at most two ulps; _TRANS allows four (one ulp is at most 2**-52 of
#   the value), which leaves room for the product terms the bounds
#   below drop.
# - Given a bound e on the argument, exp's relative bound is
#   expm1(e + _TRANS) and log's absolute bound -log1p(-e/x) + _TRANS |ln x|,
#   exact forms rather than first-order ones; past their domain they
#   give inf or NaN, and a lane with such a bound is never settled.
# - + - * / are IEEE in both; an op whose inputs may differ adds 2u of
#   its result (each side rounds by at most u = 2**-53).
# - Relative bounds fail below the normal range (2**-1022), where an exp
#   result is instead off by a few 2**-1074 at most.  exp of an argument
#   below -_EXP_GONE is +0 on both paths (the exact value is under
#   e**-750, far below half the least subnormal, 2**-1075 ~ e**-745.1).
_U = 2.0 ** -53
_TRANS = 2.0 ** -50
_TINY = 2.0 ** -1022
_EXP_GONE = 750.0


def _lane_map(fn, values: np.ndarray) -> np.ndarray:
    """fn (math.exp) of every lane of a 1-D float64 array, through libm.

    Only the lane decode uses it: its binary64 results are printed as
    they are, so they must be libm's.
    """
    return np.fromiter(map(fn, memoryview(np.ascontiguousarray(values))),
                       np.float64, values.size)


def _log(values: np.ndarray, err) -> tuple[np.ndarray, np.ndarray]:
    """log per lane, for values > 0, and the bound on its difference
    between paths, given err bounding the values'."""
    out = np.log(values)
    return out, _TRANS * np.abs(out) - np.log1p(-err / values)


class _Lanes(NamedTuple):
    """SLI numbers as struct-of-arrays: the fields of SliNumber, one lane
    per number.  Zero lanes carry the neutral fields (+1, +1, 1, 0)."""

    zero: np.ndarray
    sign: np.ndarray
    reciprocal: np.ndarray
    level: np.ndarray
    index_k: np.ndarray

    @classmethod
    def of(cls, zero, sign, reciprocal, level, index_k) -> "_Lanes":
        """Lane form of SliNumber.of and SliNumber.zero: folds 1/1 onto the
        canonical one and gives zero lanes their neutral fields."""
        one_below = (reciprocal < 0) & (level == 1) & (index_k == 0)
        if not np.count_nonzero(zero):
            return cls(zero, sign, np.where(one_below, 1, reciprocal), level, index_k)
        return cls(
            zero,
            np.where(zero, 1, sign),
            np.where(zero | one_below, 1, reciprocal),
            np.where(zero, 1, level),
            np.where(zero, 0, index_k),
        )

    def zeta(self, fmt: SliFormat) -> np.ndarray:
        """level + index_k / 2**index_bits per lane, exact as in SliNumber.zeta."""
        return self.level + self.index_k / fmt.index_scale

    def take(self, lanes) -> "_Lanes":
        """The lanes an index, slice or mask selects, in that order."""
        return _Lanes(*(field[lanes] for field in self))

    def number(self, i: int, fmt: SliFormat) -> SliNumber:
        """Lane i as a SliNumber."""
        return SliNumber(fmt, *(field[i].item() for field in self))

    def redo(self, lanes: np.ndarray, op) -> "_Lanes":
        """Overwrite every lane the mask selects with op(i), the scalar op's
        SliNumber for lane i; the fields must be arrays of their own."""
        for i in np.flatnonzero(lanes).tolist() if np.count_nonzero(lanes) else ():
            num = op(i)
            for field, value in zip(self, (num.is_zero, num.sign, num.reciprocal,
                                           num.level, num.index_k)):
                field[i] = value
        return self


def _psi_lanes(values: np.ndarray, err) -> tuple[np.ndarray, np.ndarray]:
    """psi per lane, for finite values >= 0, and the bound on its
    difference between paths, given err bounding the values'.  psi is
    1-Lipschitz, so each log step carries the bound through _log."""
    v = np.asarray(values, dtype=np.float64)
    e = np.broadcast_to(err, v.shape)
    level = np.zeros(v.shape)
    up = v >= 1.0
    while up.any():
        lv, le = _log(v, e)
        v, e = np.where(up, lv, v), np.where(up, le, e)
        level += up
        up = v >= 1.0
    out = level + v
    return out, e + 2 * _U * out


def _round_index_lanes(zeta: np.ndarray, fmt: SliFormat) -> tuple[np.ndarray, np.ndarray]:
    """round_index per lane, for zeta >= 0 (inf saturates too).

    Works on t = zeta * 2**index_bits, exact like round_index's scaled
    fraction, whose integer part carries the level: the rounded t splits
    into level and index, and a carry past the last index moves up a
    level by itself.  zeta below 1 counts as level 1, as in round_index.
    """
    scale = fmt.index_scale
    t = np.minimum(zeta, fmt.max_level + 1) * scale
    r = np.floor(t)
    r += t - r >= 0.5
    r += np.where(zeta < 1.0, scale, 0)
    r = np.minimum(r, (fmt.max_level + 1) * scale - 1).astype(np.int64)  # saturate
    return r >> fmt.index_bits, r & (scale - 1)


def _unsettled(zeta: np.ndarray, err: np.ndarray, fmt: SliFormat) -> np.ndarray:
    """Lanes whose rounding err cannot settle: zeta within err of a tie
    (level + (k + 1/2)/2**index_bits) of round_index, or err not a number.
    Past the last tie everything saturates, so no tie is left there."""
    scale = fmt.index_scale
    t = zeta * scale  # exact: a power-of-two scaling
    clear = np.abs(t - np.floor(t) - 0.5) > err * scale
    return ~(clear | (zeta - err > fmt.max_level + (scale - 0.5) / scale))


def _encode_lanes(values: np.ndarray, fmt: SliFormat) -> _Lanes:
    """encode per lane of a 1-D binary64 array, with the same errors."""
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
    zeta = 1.0 + z
    level, k = _round_index_lanes(zeta, fmt)
    out = _Lanes.of(zero, np.where(negative, -1, 1), np.where(a >= 1.0, 1, -1), level, k)
    redo = ~zero & _unsettled(zeta, err + 2 * _U * zeta, fmt)
    return out.redo(redo, lambda i: encode(values[i].item(), fmt))


def _decode_lanes(lanes: _Lanes, fmt: SliFormat) -> np.ndarray:
    """decode per lane: the binary64 number decode gives."""
    # phi peels zeta = level + index_k/scale down to the exact index and
    # exponentiates it once per level, giving up with inf past the guard.
    # Zero lanes skip that and keep their neutral index 0 as the value.
    mag = lanes.index_k / fmt.index_scale
    live = np.flatnonzero(~lanes.zero)
    for step in range(1, fmt.max_level + 1):
        live = live[lanes.level[live] >= step]
        over = mag[live] > _EXP_MAX_ARG
        mag[live[over]] = math.inf
        live = live[~over]
        mag[live] = _lane_map(math.exp, mag[live])
    below = lanes.reciprocal < 0
    mag[below] = 1.0 / mag[below]  # 1/inf is 0.0, as in decode_fields
    return lanes.sign * mag


from . import arith  # noqa: E402  (arith imports core; bound last for the dunders)
