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
import numbers
import re
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "word_fields",
    "pack",
    "unpack",
    "magnitude_rank",
    "next_up",
    "spacing",
]

# math.exp overflows binary64 just above this argument.
_EXP_MAX_ARG = 709.782712893384
_LN_LN10 = math.log(math.log(10.0))
# Unit roundoff of binary64, the bound on one rounding's relative error.
_U = 2.0 ** -53

# Widest accepted index.  Against an 80-digit oracle the binary64 add/sub
# kernel lands several ranks off from 26 bits on; at 24 bits it stays
# within one rank, missing by one on about 4 in 10 000 sampled ops (half
# of the sample near-cancellation pairs), each a sum or difference of
# neighbouring values.
MAX_INDEX_BITS = 24


def _peel(zeta: float) -> tuple[float, int]:
    """phi(zeta) as v raised through levels_left more exps: the index of
    zeta, exact in binary64, exponentiated once per level while the
    argument stays at or below _EXP_MAX_ARG."""
    levels = int(zeta)
    v = zeta - levels
    while levels and v <= _EXP_MAX_ARG:
        v = math.exp(v)
        levels -= 1
    return v, levels


def phi(zeta: float) -> float:
    """Generalized exponential: phi(z) = z on [0, 1), else exp(phi(z - 1)).

    Defined for finite z >= 0.  Returns math.inf once the tower
    overflows binary64; phi itself is finite for every finite argument.
    """
    if not 0.0 <= zeta < math.inf:
        raise ValueError(f"phi is defined for finite zeta >= 0, got {zeta}")
    v, levels_left = _peel(zeta)
    return math.inf if levels_left else v


def psi(value: float) -> float:
    """Inverse of phi: psi(v) = v on [0, 1), else 1 + psi(ln v).

    Defined for v >= 0 and finite.  psi(1) = 1 (level 1, index 0).
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(f"psi needs a finite value >= 0, got {value}")
    level = 0.0
    while value >= 1.0:
        value = math.log(value)
        level += 1.0
    return level + value


def log_phi10(zeta: float) -> float:
    """Base-10 logarithm of phi(zeta), usable far beyond binary64 range.

    Peels exponentiations as phi does; with one level left, phi is e**v
    and its log10 is v / ln 10, and with two it is e**(e**v), whose
    log10 e**v / ln 10 = e**(v - ln ln 10) is finite just past exp's
    range.  Returns -inf for zeta = 0 and math.inf once the log10 itself
    leaves binary64.
    """
    if not 0.0 <= zeta < math.inf:
        raise ValueError(f"log_phi10 is defined for finite zeta >= 0, got {zeta}")
    v, levels_left = _peel(zeta)
    if levels_left == 0:
        return math.log10(v) if v else -math.inf
    if levels_left == 1:
        return v / math.log(10.0)
    w = v - _LN_LN10
    return math.exp(w) if levels_left == 2 and w <= _EXP_MAX_ARG else math.inf


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
    # total bits in a packed word, 2**level_bits, the denominator of
    # representable indices, 2**index_bits, and word_fields' (sign,
    # reciprocal, level) for each value of a word's bits above the index
    # (at most 256), which unpack reads with one lookup; pack reads the
    # inverse, those bits in place for each such triple.
    width: int = field(init=False, repr=False, compare=False)
    max_level: int = field(init=False, repr=False, compare=False)
    index_scale: int = field(init=False, repr=False, compare=False)
    prefix_fields: tuple = field(init=False, repr=False, compare=False)
    prefix_bits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _format_fields(self, level_bits=(1, 6), index_bits=(1, MAX_INDEX_BITS))
        width = (1 if self.signed else 0) + 1 + self.level_bits + self.index_bits
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "max_level", 1 << self.level_bits)
        object.__setattr__(self, "index_scale", 1 << self.index_bits)
        object.__setattr__(self, "prefix_fields", tuple(
            word_fields(prefix << self.index_bits, self)[:3]
            for prefix in range(1 << (width - self.index_bits))))
        object.__setattr__(self, "prefix_bits", dict(zip(
            self.prefix_fields, range(0, 1 << width, self.index_scale))))

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


# The bare build of a value, _bare(SliNumber or BitWord, fields): the
# tuple alone, without the constructor's checks.  Only for fields that
# already pass them by construction; each call site names why they do.
_bare = tuple.__new__


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


def _as_ints(kind: str, **fields) -> tuple[int, ...]:
    """The fields' values as Python ints, for integers of other types
    (numbers.Integral: bool, numpy integers), whose fixed-width arithmetic
    pack and the keys must not inherit.  TypeError names every field that
    is not an integer."""
    bad = [f"{name}={value!r}" for name, value in fields.items()
           if not isinstance(value, numbers.Integral)]
    if bad:
        raise TypeError(f"{kind} fields must be integers, got {', '.join(bad)}")
    return tuple(map(int, fields.values()))


def _format_fields(fmt, **ranges: tuple[int, int]) -> None:
    """Check a frozen format's fields as the value constructors check
    theirs: signed must be a bool (TypeError), and each named field an
    integer (_as_ints), stored as a Python int, in its range lo..hi
    (ValueError)."""
    kind = type(fmt).__name__
    if type(fmt.signed) is not bool:
        raise TypeError(f"{kind} signed must be a bool, got {fmt.signed!r}")
    values = _as_ints(kind, **{name: getattr(fmt, name) for name in ranges})
    for (name, (lo, hi)), value in zip(ranges.items(), values):
        if not lo <= value <= hi:
            raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")
        object.__setattr__(fmt, name, value)


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
    Construction validates types and ranges: fmt must be a SliFormat,
    is_zero a bool and the other fields integers (TypeError otherwise),
    and the non-canonical spelling of one (r = -1, level 1, index 0) is
    rejected, use SliNumber.of() to build values from raw fields with
    canonicalization applied.  Values are immutable and compare by field.
    """

    __slots__ = ()

    def __new__(
        cls, fmt: SliFormat, is_zero: bool, sign: int, reciprocal: int, level: int,
        index_k: int,
    ) -> "SliNumber":
        if not (type(sign) is int and type(reciprocal) is int and type(level) is int
                and type(index_k) is int):
            sign, reciprocal, level, index_k = _as_ints(
                "SliNumber", sign=sign, reciprocal=reciprocal, level=level, index_k=index_k)
        if not isinstance(fmt, SliFormat):
            raise TypeError(f"SliNumber fmt must be a SliFormat, got {fmt!r}")
        if type(is_zero) is not bool:
            raise TypeError(f"SliNumber is_zero must be a bool, got {is_zero!r}")
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
        return _bare(cls, (fmt, is_zero, sign, reciprocal, level, index_k))

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
        return self.level + self.index_k / self.fmt.index_scale

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
        if not (type(bits) is int and type(width) is int):
            bits, width = _as_ints("BitWord", bits=bits, width=width)
        if not 1 <= width <= 64:
            raise ValueError(f"width must be in 1..64, got {width}")
        if not 0 <= bits < (1 << width):
            raise ValueError(f"bits 0x{bits:x} do not fit in {width} bits")
        return _bare(cls, (bits, width))

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

    The checked public form of _materialize's rounding, whose fields it
    returns: zeta below 1 is treated as level 1 with the raw value as
    index (0 gives zero's neutral (1, 0)), a rounded index of 1.0
    carries into the next level, and rounding past the top of the format
    saturates at the largest representable (level, index) pair instead
    of overflowing; there is no infinity to overflow to.
    """
    if math.isnan(zeta) or zeta < 0.0:
        raise ValueError(f"round_index needs zeta >= 0, got {zeta}")
    num = _materialize(fmt, 1, 1, zeta)
    return num.level, num.index_k


def encode(value: float, fmt: SliFormat | None = None) -> SliNumber:
    """Round a binary64 value to the nearest representable SLI number.

    Magnitudes below one are encoded through psi of the reciprocal with
    r = -1.  Signed zero collapses to the single zero; negative values
    need a signed format.  Infinities and NaNs are rejected: the target
    system has neither.
    """
    if fmt is None:
        fmt = _DEFAULT_FORMAT
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
    return _materialize(fmt, sign, reciprocal, zeta)


def _materialize(fmt: SliFormat, sign: int, reciprocal: int, zeta: float) -> SliNumber:
    """Round an unrounded (sign, r, zeta) magnitude into the format.

    The one scalar rounding site: encode and every arith op end here,
    and round_index is its checked public form.  zeta is taken as given
    (callers hold zeta >= 0, inf included); zeta <= 0 is zero.

    zeta below 1 is treated as level 1 with the raw value as index.  The
    index rounds to nearest, ties away, and a rounded index of 1.0
    carries into the next level.  Past the top of the format the result
    saturates at the largest (level, index) pair; 1/1 folds onto one.
    """
    if zeta <= 0.0:
        return SliNumber.zero(fmt)
    scale = fmt.index_scale
    top = fmt.max_level
    if zeta >= top + 1:  # inf included
        level, k = top, scale - 1
    else:
        # Level and scaled index, rounded half away from zero.  The tie
        # test compares the exact fractional part, not floor(t + 0.5),
        # which misrounds values like 0.49999999999999994 in binary64.
        if zeta < 1.0:
            level, t = 1, zeta * scale
        else:
            level = int(zeta)
            t = (zeta - level) * scale
        k = int(t)
        if t - k >= 0.5:
            k += 1
            if k == scale:
                k = 0
                level += 1
                if level > top:
                    level, k = top, scale - 1
        if reciprocal < 0 and level == 1 and k == 0:
            reciprocal = 1
    if sign < 0 and not fmt.signed:
        # The one field the rounding does not prove; the checked
        # constructor refuses it with its own message.
        return SliNumber(fmt, False, sign, reciprocal, level, k)
    # Valid by construction: level in 1..top and k in 0..scale - 1 through
    # carries and saturation, 1/1 folded onto one, and sign and reciprocal
    # the +1/-1 ints of encode's own choice or of the ops' checked operands.
    return _bare(SliNumber, (fmt, False, sign, reciprocal, level, k))


def decode(num: SliNumber) -> float:
    """Nearest binary64 to the represented value.

    Exact only while phi(zeta) fits binary64; huge magnitudes decode to
    inf and their reciprocals to 0.0, which is a limitation of the
    output type, not of the representation.
    """
    if num.is_zero:
        return 0.0
    mag = phi(num.level + num.index_k / num.fmt.index_scale)
    if num.reciprocal < 0:
        mag = 0.0 if math.isinf(mag) else 1.0 / mag
    return num.sign * mag


def pack(num: SliNumber) -> BitWord:
    """Pack into sign | reciprocal | level-1 | index bits (MSB first).

    Other 6-tuples than a SliNumber are first built into one, checked.
    """
    if num.__class__ is not SliNumber:
        num = SliNumber(*num)
    fmt, is_zero, sign, reciprocal, level, index_k = num
    bits = 0 if is_zero else fmt.prefix_bits[sign, reciprocal, level] | index_k
    # Valid by construction: a SliNumber's fields fill at most fmt.width
    # bits, and a format's width (at most 32) is inside BitWord's 1..64.
    return _bare(BitWord, (bits, fmt.width))


def word_fields(bits, fmt: SliFormat) -> tuple:
    """Literal (sign, reciprocal, level, index_k) fields of a word's bits,
    given as an int or as an integer array of words.

    Applies neither the zero convention nor canonicalization: the
    all-zeros payload reads as (r, level, index_k) == (-1, 1, 0).
    """
    payload_bits = fmt.level_bits + fmt.index_bits
    return (
        1 - 2 * (bits >> (payload_bits + 1) & 1),
        2 * (bits >> payload_bits & 1) - 1,
        (bits >> fmt.index_bits & (fmt.max_level - 1)) + 1,
        bits & (fmt.index_scale - 1),
    )


# encode's format when it is given none, built once: a SliFormat fills
# its prefix table as it is built.
_DEFAULT_FORMAT = SliFormat()


def unpack(word: BitWord, fmt: SliFormat) -> SliNumber:
    """Inverse of pack: the word's fields, checked against fmt's width.

    The fields above the index come from fmt.prefix_fields, word_fields'
    own for each prefix, and the index from one mask.  The all-zeros
    payload is zero regardless of the sign bit, so the negative-zero
    word of a signed format folds onto plain zero.  It is also the only
    word whose literal fields spell one as 1/1, so every other word's
    fields form a valid SliNumber as they are.  Other pairs than a
    BitWord are first built into one, checked.
    """
    if word.__class__ is not BitWord:
        word = BitWord(*word)
    bits, width = word
    if width != fmt.width:
        raise ValueError(f"word width {width} does not match {fmt.name} ({fmt.width})")
    index_k = bits & (fmt.index_scale - 1)
    sign, reciprocal, level = fmt.prefix_fields[bits >> fmt.index_bits]
    if index_k == 0 and reciprocal < 0 and level == 1:
        return SliNumber.zero(fmt)
    # Valid by construction: a nonzero payload's fields, as the format's
    # own table gives them for a word of its width.
    return _bare(SliNumber, (fmt, False, sign, reciprocal, level, index_k))


def _key_of(fmt: SliFormat, sign, reciprocal, level, index_k):
    """The key of the nonzero value with these fields, given as ints or
    as int64 arrays: sign * (2**(level_bits + index_bits) + r m), with
    m = (level - 1) * 2**index_bits + index_k.  Integer order on keys is
    value order, consecutive values have consecutive keys, and zero, whose
    key is 0, is left to the caller.  index_k is added, not or-ed, so an
    index_k counted from level 1 carries into the levels above; 1/1 gets
    the key of one, as SliNumber.of folds it."""
    return sign * ((1 << (fmt.level_bits + fmt.index_bits))
                   + reciprocal * (((level - 1) << fmt.index_bits) + index_k))


def _key_fields(keys, fmt: SliFormat) -> tuple:
    """Inverse of _key_of, for an int key or an int64 array of keys: the
    zero flag, sign, reciprocal flag, m and zeta (exact, as SliNumber.zeta
    is).  A zero key reads as one.  Keys are not checked against the
    ladder."""
    rm = (abs(keys) - (1 << (fmt.level_bits + fmt.index_bits))) * (keys != 0)
    m = abs(rm)
    return keys == 0, 1 - 2 * (keys < 0), 1 - 2 * (rm < 0), m, 1.0 + m / fmt.index_scale


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
    return _key_of(num.fmt, 1, num.reciprocal, num.level, num.index_k) - 1


def _key(num: SliNumber) -> int:
    """Position of num among all values in ascending order: 0 for zero,
    sign * (magnitude_rank + 1) otherwise (_key_of)."""
    fmt, is_zero, sign, reciprocal, level, index_k = num
    return 0 if is_zero else _key_of(fmt, sign, reciprocal, level, index_k)


def _from_key(fmt: SliFormat, key: int) -> SliNumber:
    """Inverse of _key: the value whose key is key.  A key off the ladder
    has a level past max_level, or a sign an unsigned format lacks, which
    the constructor refuses with ValueError."""
    zero, sign, reciprocal, m, _ = _key_fields(key, fmt)
    if zero:
        return SliNumber.zero(fmt)
    return SliNumber(fmt, False, sign, reciprocal, (m >> fmt.index_bits) + 1,
                     m & (fmt.index_scale - 1))


def next_up(num: SliNumber) -> SliNumber:
    """Smallest representable value strictly greater than num.

    Raises ValueError at the format's largest value, which has no next
    value: there is no infinity to step onto.
    """
    fmt, key = num.fmt, _key(num) + 1
    if key == 2 << (fmt.level_bits + fmt.index_bits):  # past the top key
        raise ValueError(f"{num} is the largest value of {fmt.name}; it has no next value")
    return _from_key(fmt, key)


def spacing(num: SliNumber) -> float:
    """Gap to the next value up, as a binary64 (inf if decode overflows);
    ValueError at the format's largest value, as next_up."""
    return decode(next_up(num)) - decode(num)


from . import arith  # noqa: E402  (arith imports core; bound last)
