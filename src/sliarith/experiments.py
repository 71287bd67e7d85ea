"""Experiment harness and CLI: representation-error sweeps, matrix-vector
backward error in simulated arithmetic, value tables, and plot-ready
whitespace-delimited .dat output.

System names accepted everywhere: SLI formats ("sli2.12", "sli1.3u", ...)
and minifloats ("binary16", "bfloat16", "toy5", "b<p>e<emax>[u]").
Every experiment is deterministic given its config, including the seed;
matrix runs derive one substream per dimension so the dimension list can
be reordered or split without changing any numbers.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import arith
from .core import (
    MAX_TABLE_BITS,
    BitWord,
    SliFormat,
    SliNumber,
    _decode_lanes,
    _encode_lanes,
    decode,
    decode_fields,
    encode,
    log_phi10,
    pack,
    word_fields,
)
from .minifloat import FloatFormat, _fl_lanes, enumerate_floats, fl, fl_op

__all__ = [
    "ErrorTable",
    "ExperimentConfig",
    "SLI_COLUMN",
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
# product keeps one lane per row but still walks the n columns one after
# another in Python; at n = 4000 the sli2.12 product takes 17-19 s on
# a 2-core Xeon VM.  n = 5000 leaves room past binary16's overflow
# at n ~ 2620 for entries from uniform(0, 100).
MAX_DIM = 5000

# Products simulated per batch: a block of whole columns of A, as many as
# fit in this many lanes (at least one column).  On matrices of n = 50
# to 200, throughput levels off from about 1024 lanes; whole-matrix
# batches were slower and took 11 MB more peak RSS (2-core Xeon VM).
_LANE_BUDGET = 2048

# Rows of |A| summed at a time for the matvec's norm, and grid points
# rounded or rows written at a time by the sweep and emit_dat: bounds on
# transient memory, not tuning knobs.
_ROW_BLOCK = 256
_CHUNK_ROWS = 1 << 16


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
class ExperimentConfig:
    """Shared knobs for the sweep and matvec experiments.

    systems are format names, resolved lazily.  The sweep walks
    sweep_min + i*sweep_step up to sweep_max inclusive.  The matvec
    experiment draws A from uniform(lo, hi) and x from uniform(0, 1),
    one independent substream per (seed, n).
    """

    systems: tuple[str, ...] = ("binary16", "sli2.12")
    sweep_min: float = 1e-2
    sweep_max: float = 8.0
    sweep_step: float = 1e-5
    dims: tuple[int, ...] = (10, 100, 1000)
    lo: float = 0.0
    hi: float = 1.0
    seed: int = 2024

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError("need at least one system")
        if not self.sweep_step > 0.0:
            raise ValueError(f"sweep_step must be > 0, got {self.sweep_step}")
        if not self.sweep_min <= self.sweep_max:
            raise ValueError("sweep_min must not exceed sweep_max")
        if list(self.dims) != sorted(self.dims):
            raise ValueError("dims must be sorted ascending")
        for n in self.dims:
            if not 1 <= n <= MAX_DIM:
                raise ValueError(f"dimension {n} outside 1..{MAX_DIM}")
        if not self.lo <= self.hi:
            raise ValueError("lo must not exceed hi")


def repr_error_sweep(cfg: ExperimentConfig) -> ErrorTable:
    """Relative representation error |round(x) - x| / |x| over a grid.

    The grid is sweep_min + i*sweep_step and must exclude zero.  SLI
    systems round through encode/decode, floats through fl, all points
    at once; a non-finite rounding (float overflow) records math.inf.
    """
    systems = [(name, resolve_system(name)) for name in cfg.systems]
    if cfg.sweep_min <= 0.0 <= cfg.sweep_max:
        raise ValueError("sweep range must exclude zero (relative error)")
    steps = int(math.floor((cfg.sweep_max - cfg.sweep_min) / cfg.sweep_step + 1e-9))
    x = cfg.sweep_min + np.arange(steps + 1) * cfg.sweep_step
    if not x.all():  # the last point may pass sweep_max by 1e-9 steps
        raise ValueError("sweep grid must exclude zero (relative error)")
    values = {name: np.empty_like(x) for name, _ in systems}
    for r0 in range(0, x.size, _CHUNK_ROWS):
        xs = x[r0:r0 + _CHUNK_ROWS]
        for name, fmt in systems:
            if isinstance(fmt, SliFormat):
                y = _decode_lanes(_encode_lanes(xs, fmt), fmt)
            else:
                y = _fl_lanes(xs, fmt)
            err = np.abs(y - xs) / np.abs(xs)
            err[~np.isfinite(y)] = math.inf
            values[name][r0:r0 + _CHUNK_ROWS] = err
    return ErrorTable(x, values)


def _simulate_matvec(
    fmt: SliFormat | FloatFormat, a: np.ndarray, x: np.ndarray
) -> list[float]:
    """y = A x with inputs pre-rounded and every product and running-sum
    addition performed in the target arithmetic, left to right.

    All rows run at once, one lane each; every lane op gives the number
    the scalar op (encode, mul, add, decode; fl, fl_op) gives.
    """
    n = len(x)
    cols = max(1, _LANE_BUDGET // n)
    if isinstance(fmt, SliFormat):
        xr = _encode_lanes(x, fmt)
        acc = _encode_lanes(np.zeros(n), fmt)
        for j0 in range(0, n, cols):
            block = a[:, j0:j0 + cols].T  # lane j * n + i holds a[i, j0 + j]
            width = len(block)
            prods = arith._mul_lanes(
                fmt, _encode_lanes(block.ravel(), fmt),
                xr.take(np.repeat(np.arange(j0, j0 + width), n)))
            for j in range(width):
                acc = arith._add_lanes(fmt, acc, prods.take(slice(j * n, (j + 1) * n)))
        return _decode_lanes(acc, fmt).tolist()
    xf = _fl_lanes(x, fmt)
    acc = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, n, cols):
            block = a[:, j0:j0 + cols]
            prods = _fl_lanes(_fl_lanes(block, fmt) * xf[j0:j0 + cols], fmt)
            for j in range(block.shape[1]):
                acc = _fl_lanes(acc + prods[:, j], fmt)
    return acc.tolist()


def matvec_backward_error(cfg: ExperimentConfig) -> ErrorTable:
    """Normwise relative backward error of simulated y = A x per dimension.

    For each n in cfg.dims: draw A ~ uniform(lo, hi)^(n x n) and
    x ~ uniform(0, 1)^n in binary64 from the (seed, n) substream,
    simulate the product in each system, and record
    max_i |yhat_i - y_i| / (norm_inf(A) * max_j |x_j|) against the
    binary64 reference.  Any non-finite component flags inf.
    """
    systems = [(name, resolve_system(name)) for name in cfg.systems]
    values: dict[str, list[float]] = {name: [] for name, _ in systems}
    for n in cfg.dims:
        rng = np.random.default_rng([cfg.seed, n])
        a = rng.uniform(cfg.lo, cfg.hi, size=(n, n))
        x = rng.uniform(0.0, 1.0, size=n)
        y_ref = a @ x
        # Row sums of |A| a block of rows at a time: each row sums as it
        # would in one np.abs(a).sum(axis=1), without a second n x n array.
        norm_a = max(np.abs(a[r0:r0 + _ROW_BLOCK]).sum(axis=1).max()
                     for r0 in range(0, n, _ROW_BLOCK))
        denom = float(norm_a * np.abs(x).max())
        for name, fmt in systems:
            y_hat = _simulate_matvec(fmt, a, x)
            if all(math.isfinite(v) for v in y_hat):
                diff = max(abs(h - float(r)) for h, r in zip(y_hat, y_ref))
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


def emit_dat(table: ErrorTable, columns: Sequence[str], path: str | Path) -> None:
    """Write a table as space-separated text: one header line of column
    names, then key and per-system errors with 17 significant digits,
    non-finite entries as the "inf" sentinel.  Parsing the file back
    reproduces every value bit-exactly."""
    if len(columns) != 1 + len(table.values):
        raise ValueError(f"{len(columns)} column names for {1 + len(table.values)} columns")
    # "%.17g" spells every value as _field_text does once -0.0 is turned
    # into 0.0, which adding 0.0 does and leaves every other value alone.
    row = " ".join(["%.17g"] * len(columns)) + "\n"
    cells = [table.key, *table.values.values()]
    with open(path, "w", encoding="ascii") as f:
        f.write(" ".join(columns) + "\n")
        for r0 in range(0, len(table), _CHUNK_ROWS):
            block = np.column_stack([c[r0:r0 + _CHUNK_ROWS] for c in cells]) + 0.0
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def read_dat(path: str | Path) -> tuple[list[str], list[list[float]]]:
    """Inverse of emit_dat: header names and rows of parsed binary64."""
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


def _sli_table_rows(fmt: SliFormat, raw: bool) -> list[tuple[BitWord, float, float]]:
    """(word, value, signed log10 of |value|) for every word of the format."""
    if fmt.width > MAX_TABLE_BITS:
        raise ValueError(f"refusing to tabulate {fmt.width}-bit format {fmt.name}")
    rows = []
    for bits in range(1 << fmt.width):
        sign, reciprocal, level, index_k = word_fields(bits, fmt)
        if not raw and (reciprocal, level, index_k) == (-1, 1, 0):
            rows.append((BitWord(bits, fmt.width), 0.0, -math.inf))
            continue
        value = decode_fields(fmt, sign, reciprocal, level, index_k)
        lg = log_phi10(level + index_k / fmt.index_scale)
        rows.append((BitWord(bits, fmt.width), value, lg if reciprocal > 0 else -lg))
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    fmt = resolve_system(args.format)
    if isinstance(fmt, SliFormat):
        rows = _sli_table_rows(fmt, args.raw)
        print("bits value log10")
        for word, value, lg in rows:
            print(f"{word} {_field_text(value)} {_field_text(lg)}")
    else:
        floats = enumerate_floats(fmt)
        print("bits value")
        for word, value in floats:
            print(f"{word} {_field_text(value)}")
    return 0


def _print_sli_number(n: SliNumber) -> None:
    print(f"format: {n.fmt.name}")
    print(f"bits: {pack(n)}")
    print(f"sign: {'+1' if n.sign > 0 else '-1'}")
    print(f"reciprocal: {'+1' if n.reciprocal > 0 else '-1'}")
    print(f"level: {n.level}")
    print(f"index: {n.index:.15f}")
    print(f"value: {decode(n)!r}")


def _cmd_encode(args: argparse.Namespace) -> int:
    fmt = resolve_system(args.format)
    if isinstance(fmt, SliFormat):
        _print_sli_number(encode(args.value, fmt))
    else:
        print(f"format: {fmt.name}")
        print(f"value: {fl(args.value, fmt)!r}")
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    fmt = resolve_system(args.format)
    if isinstance(fmt, SliFormat):
        x = encode(args.x, fmt)
        y = encode(args.y, fmt)
        result = {
            "add": arith.add,
            "sub": arith.sub,
            "mul": arith.mul,
            "div": arith.div,
        }[args.operation](x, y)
        _print_sli_number(result)
    else:
        a = fl(args.x, fmt)
        b = fl(args.y, fmt)
        print(f"format: {fmt.name}")
        print(f"value: {fl_op(a, b, args.operation, fmt)!r}")
    return 0


def _cmd_sweep_repr(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        systems=(args.float, args.sli),
        sweep_min=args.min,
        sweep_max=args.max,
        sweep_step=args.step,
    )
    records = repr_error_sweep(cfg)
    emit_dat(records, ["x", args.float, SLI_COLUMN], args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_matvec(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        systems=(args.float, args.sli),
        dims=args.dims,
        lo=args.lo,
        hi=args.hi,
        seed=args.seed,
    )
    records = matvec_backward_error(cfg)
    emit_dat(records, ["n", args.float, SLI_COLUMN], args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _sli_name(text: str) -> str:
    try:
        return SliFormat.from_name(text).name
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _float_name(text: str) -> str:
    try:
        return FloatFormat.from_name(text).name
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _any_system(text: str) -> str:
    try:
        resolve_system(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return text


def _dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


# Converters for config-file overrides, per subcommand and flag name.
_CONFIG_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "sweep-repr": {
        "sli": _sli_name,
        "float": _float_name,
        "min": float,
        "max": float,
        "step": float,
        "out": str,
    },
    "matvec": {
        "sli": _sli_name,
        "float": _float_name,
        "dims": _dims,
        "lo": float,
        "hi": float,
        "seed": int,
        "out": str,
    },
}


def _apply_config(args: argparse.Namespace) -> None:
    """Overlay key=value lines from --config FILE onto parsed flags."""
    path = getattr(args, "config", None)
    if path is None:
        return
    converters = _CONFIG_KEYS[args.command]
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        conv = converters.get(key)
        if conv is None:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} for {args.command}")
        try:
            setattr(args, key, conv(value.strip()))
        except (argparse.ArgumentTypeError, ValueError) as e:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {e}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliarith",
        description="Level-index arithmetic tables and error experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="dump every word of a format with its value")
    p.add_argument("format", type=_any_system, help="SLI or float format name")
    p.add_argument("--raw", action="store_true",
                   help="decode raw fields, ignoring the zero convention")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("encode", help="round one value into a format")
    p.add_argument("format", type=_any_system)
    p.add_argument("value", type=float)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("op", help="one rounded arithmetic operation")
    p.add_argument("operation", choices=("add", "sub", "mul", "div"))
    p.add_argument("format", type=_any_system)
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.set_defaults(func=_cmd_op)

    p = sub.add_parser("sweep-repr", help="representation-error sweep to a .dat file")
    p.add_argument("--sli", type=_sli_name, default="sli2.12")
    p.add_argument("--float", type=_float_name, default="binary16")
    p.add_argument("--min", type=float, default=1e-2)
    p.add_argument("--max", type=float, default=8.0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--out", type=str, default="sweep-repr.dat")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file overriding the flags above")
    p.set_defaults(func=_cmd_sweep_repr)

    p = sub.add_parser("matvec", help="matrix-vector backward error to a .dat file")
    p.add_argument("--sli", type=_sli_name, default="sli2.12")
    p.add_argument("--float", type=_float_name, default="binary16")
    p.add_argument("--dims", type=_dims, default=(10, 100, 1000))
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out", type=str, default="matvec.dat")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file overriding the flags above")
    p.set_defaults(func=_cmd_matvec)

    return parser


def cli(argv: Sequence[str] | None = None) -> int:
    """Run the command line; returns the exit code (0 ok, 2 usage, 1 domain)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        _apply_config(args)
    except (OSError, ValueError) as e:
        print(f"sliarith: config error: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as e:
        print(f"sliarith: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli(sys.argv[1:]))
