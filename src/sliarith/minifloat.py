"""Parametric binary minifloat baseline: IEEE-style round-to-nearest-even.

A format is (precision, e_max, signed): precision counts significand
bits including the implicit leading one, exponents of normal numbers
run from e_min = 1 - e_max to e_max, and values below 2**e_min fall
into the subnormal range with a fixed quantum.  Unlike the level-index
system these formats do overflow, to a genuine infinity, and carry
NaNs; that contrast is the point of the baseline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

__all__ = [
    "FloatFormat",
    "fl",
    "fl_op",
    "TOY5",
    "BINARY16",
    "BFLOAT16",
]

_NAME_RE = re.compile(r"^b([1-9][0-9]*)e([1-9][0-9]*)(u?)$")

# Formats known by name, name -> (precision, e_max, signed), and back.
_NAMED = {"binary16": (11, 15, True), "bfloat16": (8, 127, True), "toy5": (3, 3, False)}
_NAME_OF = {fields: name for name, fields in _NAMED.items()}


def _scaled(m: float, e: int) -> float:
    """m * 2**e for m in [1, 2], inf when that passes binary64 (2.0 ** e
    raises OverflowError from e = 1024 on)."""
    return math.inf if e >= 1024 else m * 2.0 ** e


@dataclass(frozen=True, slots=True)
class FloatFormat:
    """Binary floating-point format with p significand bits and |e| <= e_max."""

    precision: int
    e_max: int
    signed: bool = True
    # Magnitudes from here up round to infinity, (2 - 2**-p) * 2**e_max;
    # inf once that passes binary64 (e_max >= 1024), where no finite
    # binary64 overflows.  Derived once, since fl reads it on every call.
    overflow_threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.precision <= 53:
            raise ValueError(f"precision must be in 1..53, got {self.precision}")
        if not 1 <= self.e_max <= 4096:
            raise ValueError(f"e_max must be in 1..4096, got {self.e_max}")
        object.__setattr__(self, "overflow_threshold",
                           _scaled(2.0 - 2.0 ** -self.precision, self.e_max))

    @classmethod
    def from_name(cls, name: str) -> "FloatFormat":
        key = name.strip()
        if key in _NAMED:
            return cls(*_NAMED[key])
        m = _NAME_RE.match(key)
        if m is None:
            raise ValueError(f"not a float format name: {name!r}")
        return cls(int(m.group(1)), int(m.group(2)), signed=m.group(3) != "u")

    @property
    def name(self) -> str:
        named = _NAME_OF.get((self.precision, self.e_max, self.signed))
        if named is not None:
            return named
        suffix = "" if self.signed else "u"
        return f"b{self.precision}e{self.e_max}{suffix}"

    @property
    def e_min(self) -> int:
        return 1 - self.e_max

    @property
    def max_finite(self) -> float:
        """Largest finite value, inf when it lies past binary64."""
        return _scaled(2.0 - 2.0 ** (1 - self.precision), self.e_max)

    @property
    def min_normal(self) -> float:
        return 2.0 ** self.e_min

    @property
    def exponent_bits(self) -> int:
        """Width of the IEEE exponent field; needs e_max = 2**(w-1) - 1."""
        w = (self.e_max + 1).bit_length()
        if (1 << (w - 1)) != self.e_max + 1:
            raise ValueError(
                f"{self.name} has no IEEE-shaped exponent field (e_max={self.e_max})"
            )
        return w

    @property
    def width(self) -> int:
        """Total encoded bits: sign + exponent field + trailing significand."""
        return (1 if self.signed else 0) + self.exponent_bits + (self.precision - 1)

    def __str__(self) -> str:
        return self.name


def fl(value: float, fmt: FloatFormat) -> float:
    """Round a binary64 value to the format, nearest with ties to even.

    Overflows to a signed infinity at the usual IEEE boundary
    (2 - 2**-p) * 2**e_max; underflows through the subnormal range to
    zero.  NaN, infinity and zeros pass through (-0.0 as +0.0 in an
    unsigned format, which has one zero).  Negative values need a
    signed format.  With e_max >= 1024 the format outranges binary64:
    no finite input overflows, but one that rounds up to 2**1024 (p < 53)
    returns inf, a limit of the binary64 result, not of the format.
    """
    a = abs(value)
    if 0.0 < a < fmt.overflow_threshold and (value > 0.0 or fmt.signed):
        # a = m * 2**e with m in [1, 2); quantize at 2**(e - p + 1), or at
        # the fixed subnormal quantum once e drops below e_min.  The scaled
        # value is below 2**p <= 2**53, so ldexp and round() are exact and
        # the tie rule is genuinely even.
        e = math.frexp(a)[1] - 1
        shift = max(e, fmt.e_min) - (fmt.precision - 1)
        k = round(math.ldexp(a, -shift))
        try:
            return math.copysign(math.ldexp(float(k), shift), value)
        except OverflowError:  # rounded up to 2**1024, past binary64, as in lanes.encode
            return math.copysign(math.inf, value)
    if math.isnan(value):
        return value
    if value < 0.0 and not fmt.signed:
        raise ValueError(f"cannot round negative value into unsigned {fmt.name}")
    if math.isinf(value) or value == 0.0:
        return value if fmt.signed else abs(value)
    return math.copysign(math.inf, value)  # at or past overflow_threshold


def fl_op(a: float, b: float, op: str, fmt: FloatFormat) -> float:
    """One correctly rounded operation: fl(a op b).

    op is one of + - * / or an alias: add, sub, mul or x, div.  Operands
    are taken as given (round them first if they came from outside the
    format).  The binary64 intermediate is exact or irrelevant at these
    precisions, so the single final rounding makes the result correctly
    rounded.  Division follows IEEE: x/0 is a signed infinity and 0/0 is
    NaN.
    """
    if op == "+" or op == "add":
        r = a + b
    elif op == "-" or op == "sub":
        r = a - b
    elif op == "*" or op == "mul" or op == "x":
        r = a * b
    elif op == "/" or op == "div":
        try:
            r = a / b
        except ZeroDivisionError:
            if a == 0.0 or math.isnan(a):
                r = math.nan
            else:
                r = math.copysign(math.inf, a) * math.copysign(1.0, b)
    else:
        raise ValueError(f"unknown operation {op!r}")
    return fl(r, fmt)


TOY5 = FloatFormat.from_name("toy5")
BINARY16 = FloatFormat.from_name("binary16")
BFLOAT16 = FloatFormat.from_name("bfloat16")
