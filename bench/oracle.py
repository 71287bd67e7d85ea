"""References for checking sliarith results, written without sliarith.

SliOracle rounds exact values into a signed SLI word format.  It
evaluates phi and psi with mpmath at 80 significant digits and rounds
the index to nearest, ties away from zero, saturating at the top of the
format: the rounding rule the README promises.  A binary64 reference is
not good enough for this: on random sli2.12 words it disagrees with the
correctly rounded result on a few percent of the high-level results.

The numpy helpers decode SLI words to binary64 and give the binary16
reference results (numpy float16 is correctly rounded from binary64).
"""

from __future__ import annotations

import numpy as np

OPS = ("add", "sub", "mul", "div")
SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}

# Smallest normal and largest finite binary16 magnitudes.
B16_MIN_NORMAL = 2.0 ** -14
B16_MAX = 65504.0


class SliWords:
    """Field and rank arithmetic on signed sli<level_bits>.<index_bits> words."""

    def __init__(self, level_bits: int = 2, index_bits: int = 12) -> None:
        self.level_bits = level_bits
        self.index_bits = index_bits
        self.scale = 1 << index_bits
        self.max_level = 1 << level_bits
        self.width = 2 + level_bits + index_bits
        self.half = 1 << (level_bits + index_bits)

    def fields(self, bits: int) -> tuple[int, int, int, int] | None:
        """(sign, reciprocal, level, index_k) of a word, None for zero."""
        sign = -1 if bits >> (self.width - 1) & 1 else 1
        payload = bits & (self.half * 2 - 1)
        if payload == 0:
            return None
        reciprocal = 1 if payload >> (self.level_bits + self.index_bits) & 1 else -1
        level = (payload >> self.index_bits & (self.max_level - 1)) + 1
        return sign, reciprocal, level, payload & (self.scale - 1)

    def word(self, sign: int, reciprocal: int, level: int, index_k: int) -> int:
        bits = (level - 1) << self.index_bits | index_k
        if reciprocal > 0:
            bits |= 1 << (self.level_bits + self.index_bits)
        if sign < 0:
            bits |= 1 << (self.width - 1)
        return bits

    def from_rank(self, sign: int, rank: int) -> int:
        """The word of the given sign at a rank of the ascending magnitude ladder."""
        if rank >= self.half - 1:
            reciprocal, m = 1, rank - (self.half - 1)
        else:
            reciprocal, m = -1, self.half - 1 - rank
        level, k = (m >> self.index_bits) + 1, m & (self.scale - 1)
        if reciprocal < 0 and level == 1 and k == 0:
            reciprocal = 1
        return self.word(sign, reciprocal, level, k)

    @property
    def top_rank(self) -> int:
        return 2 * (self.half - 1)


class SliOracle(SliWords):
    """Correctly rounded SLI results, evaluated with mpmath."""

    def __init__(self, level_bits: int = 2, index_bits: int = 12, dps: int = 80) -> None:
        # Imported here so that mpmath stays out of the workloads' set-up time.
        import mpmath

        super().__init__(level_bits, index_bits)
        self.ctx = mpmath.MPContext()
        self.ctx.dps = dps

    def value(self, bits: int):
        """Exact value of a word as an mpmath number (80 digits)."""
        f = self.fields(bits)
        if f is None:
            return self.ctx.zero
        sign, reciprocal, level, k = f
        v = self.ctx.mpf(k) / self.scale
        for _ in range(level):
            v = self.ctx.exp(v)
        if reciprocal < 0:
            v = 1 / v
        return v if sign > 0 else -v

    def round(self, v) -> int:
        """The word nearest to v: index rounded ties away, saturating."""
        ctx = self.ctx
        if v == 0:
            return 0
        sign = 1 if v > 0 else -1
        a = abs(v)
        reciprocal = 1 if a >= 1 else -1
        if reciprocal < 0:
            a = 1 / a
        level = 0
        while a >= 1 and level <= self.max_level:
            a = ctx.ln(a)
            level += 1
        if level > self.max_level:
            return self.word(sign, reciprocal, self.max_level, self.scale - 1)
        t = a * self.scale
        k = int(ctx.floor(t))
        if t - k >= 0.5:
            k += 1
        if k == self.scale:
            k, level = 0, level + 1
        if level > self.max_level:
            return self.word(sign, reciprocal, self.max_level, self.scale - 1)
        if reciprocal < 0 and level == 1 and k == 0:
            reciprocal = 1
        return self.word(sign, reciprocal, level, k)

    def encode(self, x: float) -> int:
        return self.round(self.ctx.mpf(x))

    def op(self, name: str, bx: int, by: int) -> int:
        """Correctly rounded word of x <name> y; ZeroDivisionError on y = 0."""
        x, y = self.value(bx), self.value(by)
        if name == "add":
            v = x + y
        elif name == "sub":
            v = x - y
        elif name == "mul":
            v = x * y
        else:
            if y == 0:
                raise ZeroDivisionError("SLI division by zero")
            v = x / y
        return self.round(v)


def decode_words(words: np.ndarray, level_bits: int = 2, index_bits: int = 12) -> np.ndarray:
    """Binary64 values of signed SLI words (inf and 0.0 outside binary64)."""
    w = np.asarray(words, dtype=np.int64)
    width = 2 + level_bits + index_bits
    payload = w & ((1 << (width - 1)) - 1)
    recip = payload >> (level_bits + index_bits) & 1
    level = (payload >> index_bits & ((1 << level_bits) - 1)) + 1
    v = (payload & ((1 << index_bits) - 1)) / float(1 << index_bits)
    with np.errstate(over="ignore", divide="ignore"):
        for j in range(1, (1 << level_bits) + 1):
            v = np.where(level >= j, np.exp(v), v)
        mag = np.where(recip == 1, v, 1.0 / v)
    value = np.where(w >> (width - 1) & 1, -mag, mag)
    return np.where(payload == 0, 0.0, value)


def to_b16(values) -> np.ndarray:
    """Binary64 values rounded to binary16, overflowing to infinity."""
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float64).astype(np.float16)


def b16_op(a: np.ndarray, b: np.ndarray, ops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary16 results of a <op> b, correctly rounded, and the binary64 ones.

    +, - and * of two binary16 values are exact in binary64; a binary64
    quotient rounded again to binary16 is still correctly rounded,
    because 53 >= 2*11 + 2.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(all="ignore"):
        exact = np.select(
            [ops == "add", ops == "sub", ops == "mul"], [a + b, a - b, a * b], a / b
        )
        return exact.astype(np.float16), exact


def same_b16(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Elementwise bit equality of binary64 results against binary16 ones.

    A result must be a binary16 value (exact round trip) with the same
    bits as the reference, signed zeros included; any NaN matches NaN.
    """
    got = np.asarray(got, dtype=np.float64)
    g16 = to_b16(got)
    with np.errstate(invalid="ignore"):
        representable = (g16.astype(np.float64) == got) | np.isnan(got)
    same_bits = g16.view(np.uint16) == want.view(np.uint16)
    both_nan = np.isnan(got) & np.isnan(want)
    return both_nan | (representable & same_bits)
