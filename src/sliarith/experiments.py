"""Experiment harness and CLI: representation-error sweeps, matrix-vector
backward error in simulated arithmetic, value tables, and plot-ready
whitespace-delimited .dat output.

System names accepted everywhere: SLI formats ("sli2.12", "sli1.3u", ...)
and minifloats ("binary16", "bfloat16", "toy5", "b<p>e<emax>[u]").
Every experiment is deterministic given its config, including the seed;
matrix runs derive one substream per dimension so the dimension list can
be split or extended without changing any numbers.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import arith, lanes
from .core import SliFormat, decode, encode, pack
from .minifloat import FloatFormat, fl, fl_op

__all__ = [
    "ErrorTable",
    "MatvecConfig",
    "SLI_COLUMN",
    "SweepConfig",
    "repr_error_sweep",
    "matvec_backward_error",
    "emit_dat",
    "read_dat",
    "cli",
    "main",
]

# Column label used for the level-index system in emitted data files.
SLI_COLUMN = "level-index"

# Largest matrix dimension the matvec experiment accepts.  The simulated
# product keeps one lane per row of every dimension of a group but still
# walks the columns one after another in Python; at n = 4000, a group of
# its own, the run takes about 10 s on a 2-core Xeon VM.
# n = 5000 leaves room past binary16's overflow at n ~ 2620 for entries
# from uniform(0, 100).
MAX_DIM = 5000

# Most grid points the sweep accepts, refused before any allocation.
# The sweep keeps the grid and one error column per system in memory:
# 2**24 points against two systems peak at 450 MB RSS and take 10-12 s
# (2-core Xeon VM), against 57 MB for the default 799 001 points.
MAX_GRID = 1 << 24

# Rows of |A| summed at a time for the matvec's norm, grid points rounded
# at a time by the sweep, and entries of A held by one matvec group
# (8 MB; a dimension with more runs alone): bounds on transient memory,
# not tuning knobs.
_ROW_BLOCK = 256
_CHUNK_ROWS = 1 << 16
_GROUP_ENTRIES = 1 << 20


def resolve_system(name: str) -> SliFormat | FloatFormat:
    """Parse a system name into an SLI or float format."""
    try:
        return SliFormat.from_name(name)
    except ValueError:
        pass
    try:
        return FloatFormat.from_name(name)
    except ValueError:
        raise ValueError(f"unknown system {name!r} (not an SLI or float format)") from None


class ErrorTable:
    """An experiment's result as columns: the x-axis key (input value or
    dimension) and one error column per system, each error nonnegative
    or math.inf flagging overflow.  len() is the row count."""

    def __init__(
        self, key: Sequence[float] | np.ndarray, values: dict[str, Sequence[float] | np.ndarray]
    ) -> None:
        self.key = np.asarray(key, dtype=np.float64)
        self.values = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
        if self.key.ndim != 1:
            raise ValueError("key must be one column")
        for name, v in self.values.items():
            if v.shape != self.key.shape:
                raise ValueError(f"{name} has {v.size} rows for {self.key.size} keys")
            bad = ~(v >= 0.0)  # negative or NaN
            if bad.any():
                raise ValueError(f"error for {name} must be >= 0 or inf, got {v[bad][0]}")

    def __len__(self) -> int:
        return self.key.size


@dataclass(frozen=True)
class _Config:
    """The knob every experiment has: systems, the format names it
    compares, resolved lazily.  Every float knob must be finite."""

    systems: tuple[str, ...] = ("binary16", "sli2.12")

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError("need at least one system")
        for knob in fields(self):  # knob.type is the annotation's text
            if knob.type == "float" and not math.isfinite(getattr(self, knob.name)):
                raise ValueError(f"{knob.name} must be finite, got {getattr(self, knob.name)}")


@dataclass(frozen=True)
class SweepConfig(_Config):
    """The sweep's grid: min + i*step up to max inclusive."""

    min: float = 1e-2
    max: float = 8.0
    step: float = 1e-5

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.step > 0.0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if not self.min <= self.max:
            raise ValueError("min must not exceed max")


@dataclass(frozen=True)
class MatvecConfig(_Config):
    """A ~ uniform(lo, hi) and x ~ uniform(0, 1), for each n of dims from
    the (seed, n) substream."""

    dims: tuple[int, ...] = (10, 100, 1000)
    lo: float = 0.0
    hi: float = 1.0
    seed: int = 2024

    def __post_init__(self) -> None:
        super().__post_init__()
        if list(self.dims) != sorted(self.dims):
            raise ValueError("dims must be sorted ascending")
        for n in self.dims:
            if not 1 <= n <= MAX_DIM:
                raise ValueError(f"dimension {n} outside 1..{MAX_DIM}")
        if not self.lo <= self.hi:
            raise ValueError("lo must not exceed hi")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"hi - lo overflows binary64, got lo {self.lo}, hi {self.hi}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def repr_error_sweep(cfg: SweepConfig) -> ErrorTable:
    """Relative representation error |round(x) - x| / |x| over a grid.

    The grid is min + i*step, of at most MAX_GRID points,
    and must exclude zero.  Every system rounds all points at once,
    through lanes.encode and lanes.decode; a non-finite rounding (float
    overflow) records math.inf.
    """
    systems = [(name, resolve_system(name)) for name in cfg.systems]
    if cfg.min <= 0.0 <= cfg.max:
        raise ValueError("sweep range must exclude zero (relative error)")
    steps = (cfg.max - cfg.min) / cfg.step + 1e-9
    if not steps < MAX_GRID:  # also an overflow to inf
        raise ValueError(f"sweep grid has more than {MAX_GRID} points; "
                         "widen the step or narrow the range")
    x = cfg.min + np.arange(math.floor(steps) + 1) * cfg.step
    if not x.all():  # the last point may pass max by 1e-9 steps
        raise ValueError("sweep grid must exclude zero (relative error)")
    values = {name: np.empty_like(x) for name, _ in systems}
    for r0 in range(0, x.size, _CHUNK_ROWS):
        xs = x[r0:r0 + _CHUNK_ROWS]
        for name, fmt in systems:
            y = lanes.decode(lanes.encode(xs, fmt), fmt)
            err = np.abs(y - xs) / np.abs(xs)
            err[~np.isfinite(y)] = math.inf
            values[name][r0:r0 + _CHUNK_ROWS] = err
    return ErrorTable(x, values)


def _simulate_matvec(
    fmt: SliFormat | FloatFormat, problems: Sequence[tuple[np.ndarray, np.ndarray]]
) -> list[np.ndarray]:
    """y = A x for each (A, x) of a group in ascending n, with inputs
    pre-rounded and every product and running-sum addition performed in
    the target arithmetic, each row left to right from zero.

    The rows of all the problems run at once, one lane each of
    sliarith.lanes, stacked in the group's order; both systems take the
    same path.  As n ascends, the rows still summing at column j, those
    of the problems with n > j, are a suffix of the lanes, which one
    lanes.mul and one lanes.add per column update.  Every lane op gives
    the number the scalar op (encode, mul, add, decode; fl, fl_op) gives.
    """
    dims = [len(x) for _, x in problems]
    offsets = np.cumsum([0, *dims])  # each problem's first lane, then the end
    # first[j]: the first problem, and start[j] the first lane, still
    # summing at column j.
    first = np.searchsorted(dims, np.arange(dims[-1]), side="right").tolist()
    start = offsets[first].tolist()
    # x is stacked like the rows, so x_j of a row's problem sits j lanes
    # past that problem's first lane.
    row_x = np.repeat(offsets[:-1], dims)
    xr = lanes.encode(np.concatenate([x for _, x in problems]), fmt)
    acc = lanes.encode(np.zeros(offsets[-1]), fmt)
    for j in range(dims[-1]):
        # Each row's entry j times its x_j, added to the row's sum.
        entries = np.concatenate([a[:, j] for a, _ in problems[first[j]:]])
        prods = lanes.mul(lanes.encode(entries, fmt), xr[row_x[start[j]:] + j], fmt)
        acc[start[j]:] = lanes.add(acc[start[j]:], prods, fmt)
    return np.split(lanes.decode(acc, fmt), offsets[1:-1])


def _matvec_groups(dims: Sequence[int]) -> list[list[int]]:
    """The dimensions in runs of consecutive ones whose n*n entries
    together stay within _GROUP_ENTRIES; a larger one runs alone."""
    groups: list[list[int]] = []
    entries = _GROUP_ENTRIES
    for n in dims:
        if entries + n * n > _GROUP_ENTRIES:
            groups.append([])
            entries = 0
        groups[-1].append(n)
        entries += n * n
    return groups


def matvec_backward_error(cfg: MatvecConfig) -> ErrorTable:
    """Normwise relative backward error of simulated y = A x per dimension.

    For each n in cfg.dims: draw A ~ uniform(lo, hi)^(n x n) and
    x ~ uniform(0, 1)^n in binary64 from the (seed, n) substream,
    simulate the product in each system, and record
    max_i |yhat_i - y_i| / (norm_inf(A) * max_j |x_j|) against the
    binary64 reference.  Any non-finite component flags inf.  A
    reference that overflows binary64 is refused before any product is
    simulated.  The products of a group of dimensions (_matvec_groups)
    are simulated together.
    """
    systems = [(name, resolve_system(name)) for name in cfg.systems]
    values: dict[str, list[float]] = {name: [] for name, _ in systems}
    for group in _matvec_groups(cfg.dims):
        problems, refs = [], []
        for n in group:
            rng = np.random.default_rng([cfg.seed, n])
            a = rng.uniform(cfg.lo, cfg.hi, size=(n, n))
            x = rng.uniform(0.0, 1.0, size=n)
            # Row sums of |A| a block of rows at a time: each row sums as
            # it would in one np.abs(a).sum(axis=1), without a second
            # n x n array.
            with np.errstate(over="ignore"):
                norm_a = max(np.abs(a[r0:r0 + _ROW_BLOCK]).sum(axis=1).max()
                             for r0 in range(0, n, _ROW_BLOCK))
                y_ref, denom = a @ x, float(norm_a * np.abs(x).max())
            if not (math.isfinite(denom) and np.isfinite(y_ref).all()):
                raise ValueError(f"the binary64 reference overflows at n = {n}; narrow lo..hi")
            problems.append((a, x))
            refs.append((y_ref, denom))
        for name, fmt in systems:
            for y_hat, (y_ref, denom) in zip(_simulate_matvec(fmt, problems), refs):
                if np.isfinite(y_hat).all():
                    diff = float(np.max(np.abs(y_hat - y_ref)))
                    err = diff / denom if denom > 0.0 else (math.inf if diff else 0.0)
                else:
                    err = math.inf
                values[name].append(err)
    return ErrorTable(cfg.dims, values)


def _field_text(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v == 0.0:
        return "0"
    return format(v, ".17g")


# --- .dat text: _field_text's spelling by array ops (see emit_dat) ---------
#
# Texts are built as little-endian uint64 words, eight ASCII bytes each,
# with NUL bytes where a shorter text leaves room; the NULs are deleted
# when a block is joined into text.  A value takes four words: bytes 0..5
# hold the sign and "0.000" head, byte 6 digit 0 and byte 7 the point
# after it, bytes 8..23 digits 1..16, and bytes 24..31 the exponent and
# separator.  Only where 10 <= |v| < 1e17 and a fraction follows is the
# point elsewhere: digits 1..d of the integer part move down one byte,
# into the point's byte, and the point follows them.

# Values spelled per array pass, about 270 bytes of temporaries each.  Of
# passes of 2048 to 16384 over the 239 700 values of a sweep of step
# 1e-4, 4096 to 5120 ran fastest on a 2-core Xeon VM with 2 MB of L2 per
# core: 21.7-21.9 ms for all passes (best of 5 interleaved rounds of 15),
# against 27.9 ms at 2048 and 37-39 ms from 6144 on, where a pass
# outgrew the L2.
_SPELL_VALUES = 1 << 12

# 10^0 .. 10^22, all exact in binary64, and each split into two halves
# of at most 26 bits for Dekker's exact product.
_SPLIT = 2.0**27 + 1.0
_P10 = np.array([float(10**k) for k in range(23)])
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI


def _text_words(texts: Sequence[str], width: int) -> np.ndarray:
    """Texts NUL-padded to width bytes (a multiple of 8), one row of
    words each."""
    rows = np.array([t.encode("ascii") for t in texts], dtype=f"S{width}")
    return rows.view("<u8").astype(np.uint64).reshape(-1, width // 8)


def _group_words() -> np.ndarray:
    """Entry i spells 0 <= i < 10000 in four digits, four ASCII bytes of
    a little-endian uint32; entry 10000 + i spells it without its
    trailing zeros."""
    i = np.arange(10000, dtype=np.uint32)
    words = np.zeros_like(i)
    for b in range(4):  # byte b: the digit of 10^(3 - b)
        digit = i // np.uint32(10 ** (3 - b)) % np.uint32(10)
        words |= (digit + np.uint32(ord("0"))) << np.uint32(8 * b)
    stripped = words.copy()
    for b in range(4):  # digit b trails only zeros where 10^(4 - b) divides i
        stripped[i % np.uint32(10 ** (4 - b)) == 0] &= ~np.uint32(0xFF << 8 * b)
    return np.concatenate([words, stripped])


_GROUPS = _group_words()
_DECADES = range(-6, 17)  # the decades of the fast path; 23 of them


def _head(negative: bool, d: int) -> str:
    return ("-" if negative else "") + ("0." + "0" * (-d - 1) if -4 <= d < 0 else "")


def _frame(point: bool, negative: bool, d: int) -> str:
    """A text's first word but for digit 0: the head, a "0" in digit
    0's byte, to be ORed with the digit, and the point after it where a
    fraction follows and d is 0 or below -4 (for -4 <= d < 0 the head
    holds the point; for d > 0 _spell places it)."""
    return _head(negative, d).ljust(6, "\0") + "0" + (
        "." if point and (d == 0 or d < -4) else "\0")


def _tail(d: int, sep: str) -> str:
    return (("e-%02d" % -d if d < -4 else "") + sep).rjust(8, "\0")


def _whole_masks() -> list[np.ndarray]:
    """Per (fraction, d) for d = 0..16, masks of the first three words
    of a text with d > 0: the bytes kept, the bytes taken from one byte
    further on, and the bytes ORed in.  Without a fraction, the integer
    part's zeros in its digits 1..d; with one, digits 1..d move down
    into the point's byte and the point follows them."""
    keep = np.full((2, 17, 24), 0xFF, np.uint8)
    move = np.zeros_like(keep)
    put = np.zeros_like(keep)
    for d in range(17):
        put[0, d, 8:8 + d] = ord("0")
        keep[1, d, 7:8 + d] = 0
        move[1, d, 7:7 + d] = 0xFF
        put[1, d, 7 + d] = ord(".")
    return [m.reshape(34, 24).view("<u8") for m in (keep, move, put)]


# Per (point, sign, decade): the first word; per (last column, decade):
# the exponent and separator after the digits.
_FRAMES = _text_words([_frame(p, n, d) for p in (False, True) for n in (False, True)
                       for d in _DECADES], 8).ravel()
_TAILS = _text_words([_tail(d, sep) for sep in " \n" for d in _DECADES], 8).ravel()
_KEEP, _MOVE, _PUT = _whole_masks()


def _spell(block: np.ndarray, prefix: np.ndarray | None = None) -> bytes:
    """The rows of a 2-D float64 block as lines of ASCII text, each
    value spelled as _field_text spells it and followed by a space, or
    by a newline at the end of its row.  A prefix, one row of text words
    per row of the block, leads each line."""
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-6) & (a < 1e17)  # False for NaN
    a[~fast] = 1.0  # keeps the slow lanes' arithmetic finite
    d = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 16)  # may miss by one
    # a * 10^(16 - d) exactly as hi + lo (Dekker's two-product).
    k = 16 - d
    s, s_hi, s_lo = _P10[k], _P10_HI[k], _P10_LO[k]
    hi = a * s
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # In the right decade hi >= 2^53 is an even integer, so this rounds
    # hi + lo half to even.  A missed decade lands outside [1e16, 1e17),
    # or at 1e16 from below (hi == 1e16 > hi + lo); those and the values
    # outside the fast range are spelled by _field_text.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= (digits >= 10**16) & (digits < 10**17) & ((hi != 1e16) | (lo >= 0))
    slow = np.flatnonzero(~fast)
    digits[slow] = 10**16  # spelled in full below
    d[slow] = 0
    decade = d + 6
    # Digit 0, then the others in groups of four (// and a product are
    # faster than divmod here).  A group gets its stripped spelling where
    # all later groups are zero, so the text ends at its last nonzero
    # digit.  The frame's point flag, digits 1..16 not all zero, is a
    # fraction's where d <= 0; where d > 0 the frame has no point.
    g0 = digits // 10**16
    r = digits - g0 * 10**16
    frame = decade + (v < 0) * len(_DECADES) + (r != 0) * (2 * len(_DECADES))
    g1 = r // 10**12
    r -= g1 * 10**12
    g2 = r // 10**8
    r -= g2 * 10**8
    g3 = r // 10**4
    g4 = r - g3 * 10**4
    out = np.empty((v.size, 4), "<u8")
    out[:, 0] = _FRAMES[frame] | g0.view(np.uint64) << np.uint64(48)
    groups = out.view("<u4")  # columns 2..5: digits 1..16, four each
    stripped = 10000
    for j, g in ((5, g4), (4, g3), (3, g2), (2, g1)):
        groups[:, j] = _GROUPS[g + stripped]
        stripped = stripped * (g == 0)
    whole = np.flatnonzero(d > 0)  # digits 1..d are the integer part's
    if whole.size:
        # np.take: numpy's fancy indexing of rows costs several times more.
        dw = d[whole]
        t = dw + 17 * (digits[whole] % 10 ** (16 - dw) != 0)  # with a fraction
        x = out.take(whole, 0)[:, :3]
        y = x >> np.uint64(8)  # the 24 bytes, each from one byte further on
        y[:, 0] |= x[:, 1] << np.uint64(56)
        y[:, 1] |= x[:, 2] << np.uint64(56)
        out[whole, :3] = x & _KEEP.take(t, 0) | y & _MOVE.take(t, 0) | _PUT.take(t, 0)
    tail = decade.reshape(block.shape)
    tail[:, -1] += len(_DECADES)
    out[:, 3] = _TAILS[tail.ravel()]
    if slow.size:
        out[slow, :3] = _text_words([_field_text(x) for x in v[slow].tolist()], 24)
    if prefix is not None:
        out = np.hstack([prefix, out.reshape(len(block), -1)])
    return out.tobytes().translate(None, b"\0")


def emit_dat(table: ErrorTable, columns: Sequence[str], path: str | Path) -> None:
    """Write a table as space-separated text: one header line of column
    names, then key and per-system errors with 17 significant digits,
    non-finite entries as the "inf" sentinel.  Parsing the file back
    reproduces every value bit-exactly but -0.0, which is spelled "0",
    as +0.0 is, and so reads back as +0.0.

    Every value is spelled as _field_text spells it ("%.17g", with "0",
    "inf", "-inf" and "nan"), but by array ops: for 1e-6 <= |v| < 1e17
    the decade d comes from log10, |v| * 10^(16 - d) is formed exactly as
    a double-double (Dekker's product with an exact power of ten), and
    its round-half-even integer gives the 17 digits.  Each piece of the
    text comes from a table and has a fixed byte among four NUL-padded
    words, whose NULs are deleted as a block is written.  Only where
    10 <= |v| < 1e17 and a fraction follows are bytes moved: the
    integer part's digits after the first, one byte down, to make room
    for the point.  Values outside 1e-6..1e17, specials, and values
    whose decade estimate missed are spelled by _field_text itself.
    """
    if len(columns) != 1 + len(table.values):
        raise ValueError(f"{len(columns)} column names for {1 + len(table.values)} columns")
    cells = [table.key, *table.values.values()]
    rows = max(1, _SPELL_VALUES // len(cells))
    with open(path, "wb") as f:
        f.write((" ".join(columns) + "\n").encode("ascii"))
        for r0 in range(0, len(table), rows):
            f.write(_spell(np.column_stack([c[r0:r0 + rows] for c in cells])))


def read_dat(path: str | Path) -> tuple[list[str], list[list[float]]]:
    """Inverse of emit_dat: header names and rows of parsed binary64,
    with +0.0 for a -0.0 that emit_dat wrote as "0"."""
    text = Path(path).read_text(encoding="ascii").splitlines()
    if not text:
        raise ValueError(f"empty data file {path}")
    header = text[0].split()
    rows = [[float(tok) for tok in line.split()] for line in text[1:] if line.strip()]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} does not match header {len(header)}")
    return header, rows


# ---------------------------------------------------------------------------
# CLI


def _cmd_table(args: argparse.Namespace) -> int:
    fmt = resolve_system(args.format)
    # The listing refuses a format too wide to tabulate when called,
    # before the header; its blocks are printed as they are made.
    blocks = lanes.enumerate_values(fmt, args.raw)
    print("bits value log10" if isinstance(fmt, SliFormat) else "bits value")
    # Each row after its bits, MSB first, and a space, NUL-padded to
    # whole text words.
    shifts = np.arange(fmt.width - 1, -1, -1)
    for bits, *columns in blocks:
        text = np.zeros((bits.size, 8 * (fmt.width // 8 + 1)), np.uint8)
        text[:, :fmt.width] = (bits[:, None] >> shifts & 1) + ord("0")
        text[:, fmt.width] = ord(" ")
        sys.stdout.write(_spell(np.column_stack(columns), text.view("<u8")).decode("ascii"))
    return 0


def _print_value(fmt: SliFormat | FloatFormat, value) -> None:
    """Print a rounded value of fmt: its format, an SLI value's word and
    fields, then the value (decoded, for SLI)."""
    print(f"format: {fmt.name}")
    if isinstance(fmt, SliFormat):
        print(f"bits: {pack(value)}")
        print(f"sign: {'+1' if value.sign > 0 else '-1'}")
        print(f"reciprocal: {'+1' if value.reciprocal > 0 else '-1'}")
        print(f"level: {value.level}")
        print(f"index: {value.index:.15f}")
        value = decode(value)
    print(f"value: {value!r}")


# Both round inputs and result before printing, so an error prints nothing.
def _cmd_encode(args: argparse.Namespace) -> int:
    fmt = resolve_system(args.format)
    _print_value(fmt, (encode if isinstance(fmt, SliFormat) else fl)(args.value, fmt))
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    fmt = resolve_system(args.format)
    if isinstance(fmt, SliFormat):
        value = getattr(arith, args.operation)(encode(args.x, fmt), encode(args.y, fmt))
    else:
        value = fl_op(fl(args.x, fmt), fl(args.y, fmt), args.operation, fmt)
    _print_value(fmt, value)
    return 0


def _check_out(path: str) -> None:
    """Fail as writing path would when it is empty, its directory is
    missing or it is a directory itself, but before an experiment's work;
    the file itself is not touched."""
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _format_name(resolve: Callable[[str], SliFormat | FloatFormat]) -> Callable[[str], str]:
    """An argparse type: the canonical name of the format resolve gives,
    with its ValueError turned into a usage error."""

    def convert(text: str) -> str:
        try:
            return resolve(text).name
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


_sli_name = _format_name(SliFormat.from_name)
_float_name = _format_name(FloatFormat.from_name)
_any_system = _format_name(resolve_system)


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None


_KNOB_TYPES = {"float": float, "int": int, "tuple[int, ...]": _dims}  # by annotation text


# Each experiment command: help text, config, run function by name (a module
# global looked up at each run, so that a rebinding is seen) and key column.
_EXPERIMENTS = {
    "sweep-repr": ("representation-error sweep to a .dat file", SweepConfig,
                   "repr_error_sweep", "x"),
    "matvec": ("matrix-vector backward error to a .dat file", MatvecConfig,
               "matvec_backward_error", "n"),
}


def _flags(command: str) -> dict[str, tuple[Callable[[str], object], object]]:
    """An experiment command's flags, flag -> (type, default): --sli,
    --float, one per other knob of its config, and --out, with the
    config's defaults.  The parser and --config both read them."""
    _, config, _, _ = _EXPERIMENTS[command]
    default = config()
    return {"sli": (_sli_name, default.systems[1]), "float": (_float_name, default.systems[0]),
            **{f.name: (_KNOB_TYPES[f.type], getattr(default, f.name))
               for f in fields(config)[1:]},  # the knobs after systems
            "out": (str, f"{command}.dat")}


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Any experiment command: config, output check, run, .dat."""
    _, config, run, key = _EXPERIMENTS[args.command]
    knobs = {f.name: getattr(args, f.name) for f in fields(config)[1:]}
    cfg = config(systems=(args.float, args.sli), **knobs)
    _check_out(args.out)
    records = globals()[run](cfg)
    emit_dat(records, [key, args.float, SLI_COLUMN], args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay key=value lines from --config FILE onto parsed flags."""
    path = getattr(args, "config", None)
    if path is None:
        return
    flags = _flags(args.command)
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in flags:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {args.command}")
        try:
            setattr(args, key, flags[key][0](value.strip()))
        except (argparse.ArgumentTypeError, ValueError) as e:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {e}") from None


def _build_parser() -> argparse.ArgumentParser:
    """The command line, built once at import.  Each command names its
    body (func), looked up at each run, so that a rebinding is seen."""
    parser = argparse.ArgumentParser(
        prog="sliarith",
        description="Level-index arithmetic tables and error experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="dump every word of a format with its value")
    p.add_argument("format", type=_any_system, help="SLI or float format name")
    p.add_argument("--raw", action="store_true",
                   help="decode raw fields, ignoring the zero convention")
    p.set_defaults(func="_cmd_table")

    p = sub.add_parser("encode", help="round one value into a format")
    p.add_argument("format", type=_any_system)
    p.add_argument("value", type=float)
    p.set_defaults(func="_cmd_encode")

    p = sub.add_parser("op", help="one rounded arithmetic operation")
    p.add_argument("operation", choices=("add", "sub", "mul", "div"))
    p.add_argument("format", type=_any_system)
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.set_defaults(func="_cmd_op")

    for command, (text, *_) in _EXPERIMENTS.items():
        p = sub.add_parser(command, help=text)
        for flag, (kind, default) in _flags(command).items():
            p.add_argument(f"--{flag}", type=kind, default=default)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file overriding the flags above")
        p.set_defaults(func="_cmd_experiment")

    # Python 3.11's argparse takes only the -1 and -1.5 forms for negative
    # numbers; any other float spelling (-1e-3, -inf) would be a flag.
    number = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.I)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = number
    return parser


_PARSER = _build_parser()


def cli(argv: Sequence[str] | None = None) -> int:
    """Run the command line; returns the exit code (0 ok, 2 usage, 1 domain)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        _apply_config(args)
    except (OSError, ValueError) as e:
        print(f"sliarith: config error: {e}", file=sys.stderr)
        return 2
    try:
        return globals()[args.func](args)
    except BrokenPipeError:
        raise  # the reader of stdout went away; main exits quietly
    except (OSError, ValueError, ZeroDivisionError) as e:
        print(f"sliarith: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's recipe for a reader that closes stdout early (as in
        # `| head`): point stdout at devnull, so that the flush at exit
        # fails no more, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
