"""The benchmark's three workloads: inputs from a seed, timed units, checks.

A workload is built from a seed (set-up), then runs timed units; each
unit is one CLI call or one pass over the op pairs and does the same
work.  ``check`` verifies one unit's output against references that do
not use sliarith: numpy float16 for binary16 and SliOracle (80-digit
mpmath) for SLI.  Calls into sliarith look the function up at call
time, so a Tracer installed between units sees them.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sliarith
from sliarith import experiments

from oracle import (
    B16_MAX,
    B16_MIN_NORMAL,
    OPS,
    SYMBOL,
    SliOracle,
    SliWords,
    b16_op,
    decode_words,
    same_b16,
    to_b16,
)

SLI = "sli2.12"
FLOAT = "binary16"


@dataclass
class CheckResult:
    failed: int = 0
    sli_err: float = math.nan
    float_err: float = math.nan
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{note} ({count})")


def _read_dat(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode("ascii").splitlines()
    rows = [[float(tok) for tok in line.split()] for line in lines[1:]]
    return lines[0].split(), np.array(rows, dtype=np.float64).reshape(len(rows), -1)


class CliWorkload:
    """A workload whose unit is one ``experiments.cli`` call writing a .dat."""

    name = ""
    ops_per_unit = 0

    def __init__(self, out: Path, argv: list[str]) -> None:
        self.out = out
        self.argv = argv + ["--out", str(out)]

    def unit(self) -> tuple[float, tuple[int, bytes]]:
        start = time.perf_counter()
        code = experiments.cli(self.argv)
        elapsed = time.perf_counter() - start
        return elapsed, (code, self.out.read_bytes() if code == 0 else b"")

    def op_us(self, unit_seconds: list[float], scales: list[float]) -> tuple[float, float]:
        """Scaled wall time per op of the median CLI call, for both p50 and p99.

        Ops inside a CLI call cannot be timed one by one, so their latency
        distribution is not observable here.  A percentile over calls would
        only pick the call that met the host's slowest phase.
        """
        per_op = float(np.median(np.array(unit_seconds) * np.array(scales)))
        per_op *= 1e6 / self.ops_per_unit
        return per_op, per_op


class SweepRepr(CliWorkload):
    """``sweep-repr`` over [0.01, 8], grid start shifted by the seed.

    The step is ten times the CLI default, so one call takes about a
    second and a run makes several.
    """

    name = "sweep-repr"
    SAMPLE = 300  # grid points checked against the oracle

    def __init__(self, seed: int, workdir: Path, lo: float = 0.01, hi: float = 8.0,
                 step: float = 1e-4) -> None:
        rng = np.random.default_rng([seed, 1])
        self.lo = lo + float(rng.random()) * step
        self.hi, self.step = hi, step
        # Grid lo + i*step up to hi inclusive, with the CLI's 1e-9 slack.
        self.points = int(math.floor((hi - self.lo) / step + 1e-9)) + 1
        self.ops_per_unit = 2 * self.points  # one encode and one fl per point
        self.sample = np.sort(rng.choice(self.points, size=min(self.SAMPLE, self.points),
                                         replace=False))
        super().__init__(workdir / "sweep.dat", [
            "sweep-repr", "--sli", SLI, "--float", FLOAT,
            "--min", repr(self.lo), "--max", repr(hi), "--step", repr(step)])

    def check(self, output: tuple[int, bytes]) -> CheckResult:
        res = CheckResult()
        code, data = output
        if code != 0:
            res.fail(self.ops_per_unit, f"sweep-repr exited {code}")
            return res
        header, rows = _read_dat(data)
        if header != ["x", FLOAT, "level-index"] or rows.shape != (self.points, 3):
            res.fail(self.ops_per_unit, f"unexpected table {header} {rows.shape}")
            return res
        x = np.arange(self.points, dtype=np.float64) * self.step + self.lo
        res.fail(int(np.sum(rows[:, 0] != x)), "grid x differs")
        y16 = to_b16(x).astype(np.float64)
        want = np.abs(y16 - x) / np.abs(x)
        res.fail(int(np.sum(rows[:, 1] != want)), "binary16 error differs from float16")
        oracle = SliOracle()
        ctx = oracle.ctx
        bad = 0
        for i in self.sample:
            xi = ctx.mpf(float(x[i]))
            exact = float(abs(oracle.value(oracle.encode(float(x[i]))) - xi) / xi)
            # decode in binary64 costs a few ulps; a wrong index costs >= 1e-4.
            if not abs(rows[i, 2] - exact) <= 1e-12:
                bad += 1
        res.fail(bad, "SLI error differs from the oracle")
        res.sli_err = float(rows[:, 2].max())
        res.float_err = float(rows[:, 1].max())
        return res


class MatvecWide(CliWorkload):
    """``matvec --lo 0 --hi 100``: wide positive entries, left-to-right rows.

    The backward error of one matrix is a maximum over its rows and
    varies by about 20% between seeds, so the reported errors are means
    over seven dimensions, each an independent matrix.
    """

    name = "matvec-wide"
    ROWS = 2  # rows of the largest matrix re-checked op by op

    def __init__(self, seed: int, workdir: Path,
                 dims: tuple[int, ...] = (50, 75, 100, 125, 150, 175, 200)) -> None:
        self.seed, self.dims = seed, dims
        # Per system and n: n inputs of x, n*n of A, n*n products, n*n sums.
        self.ops_per_unit = sum(2 * (3 * n * n + n) for n in dims)
        rng = np.random.default_rng([seed, 2])
        self.rows = sorted(int(i) for i in rng.choice(dims[-1], size=self.ROWS, replace=False))
        super().__init__(workdir / "matvec.dat", [
            "matvec", "--sli", SLI, "--float", FLOAT, "--dims", ",".join(map(str, dims)),
            "--lo", "0", "--hi", "100", "--seed", str(seed)])

    def _inputs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        # The CLI's documented stream: one generator per (seed, n).
        rng = np.random.default_rng([self.seed, n])
        return rng.uniform(0.0, 100.0, size=(n, n)), rng.uniform(0.0, 1.0, size=n)

    def check(self, output: tuple[int, bytes]) -> CheckResult:
        res = CheckResult()
        code, data = output
        if code != 0:
            res.fail(self.ops_per_unit, f"matvec exited {code}")
            return res
        header, table = _read_dat(data)
        if header != ["n", FLOAT, "level-index"] or list(table[:, 0]) != list(self.dims):
            res.fail(self.ops_per_unit, f"unexpected table {header} {table.shape}")
            return res
        for (n, got16, got_sli) in table:
            a, x = self._inputs(int(n))
            y_ref = a @ x
            denom = float(np.abs(a).sum(axis=1).max() * np.abs(x).max())
            # binary16, every row emulated left to right; each sum is
            # exact in binary64 before its one rounding.
            a16, x16 = to_b16(a), to_b16(x)
            acc = np.zeros(int(n), dtype=np.float16)
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(int(n)):
                    prod = (a16[:, j].astype(np.float64) * float(x16[j])).astype(np.float16)
                    acc = (acc.astype(np.float64) + prod.astype(np.float64)).astype(np.float16)
            y16 = acc.astype(np.float64)
            want = (float(np.max(np.abs(y16 - y_ref))) / denom
                    if np.all(np.isfinite(y16)) else math.inf)
            res.fail(int(got16 != want), f"binary16 backward error at n={int(n)} differs")
            if not (math.isfinite(got_sli) and got_sli > 0.0):
                res.fail(1, f"SLI backward error at n={int(n)} is {got_sli}")
        n = self.dims[-1]
        a, x = self._inputs(n)
        y_ref = a @ x
        denom = float(np.abs(a).sum(axis=1).max() * np.abs(x).max())
        self._check_rows(res, a, x, y_ref, denom, table[-1, 2])
        res.float_err, res.sli_err = float(table[:, 1].mean()), float(table[:, 2].mean())
        return res

    def _check_rows(self, res: CheckResult, a, x, y_ref, denom, reported_sli) -> None:
        """Re-run seeded rows op by op; check each rounding against a reference."""
        fmt = sliarith.SliFormat.from_name(SLI)
        f16 = sliarith.FloatFormat.from_name(FLOAT)
        oracle = SliOracle()

        def word(num) -> int:
            return sliarith.pack(num).bits

        bad = 0
        xr = [sliarith.encode(float(v), fmt) for v in x]
        bad += sum(word(e) != oracle.encode(float(v)) for e, v in zip(xr, x))
        x16 = [sliarith.fl(float(v), f16) for v in x]
        bad += int(np.sum(~same_b16(x16, to_b16(x))))
        for i in self.rows:
            acc = sliarith.SliNumber.zero(fmt)
            acc16 = 0.0
            for j in range(len(x)):
                e = sliarith.encode(float(a[i, j]), fmt)
                p = sliarith.mul(e, xr[j])
                s = sliarith.add(acc, p)
                bad += word(e) != oracle.encode(float(a[i, j]))
                bad += word(p) != oracle.op("mul", word(e), word(xr[j]))
                bad += word(s) != oracle.op("add", word(acc), word(p))
                acc = s
                e16 = sliarith.fl(float(a[i, j]), f16)
                p16 = sliarith.fl_op(e16, x16[j], "*", f16)
                s16 = sliarith.fl_op(acc16, p16, "+", f16)
                got = [e16, p16, s16]
                want16 = [np.float16(a[i, j]),
                          np.float16(e16 * x16[j]), np.float16(acc16 + p16)]
                bad += int(np.sum(~same_b16(got, np.array(want16, dtype=np.float16))))
                acc16 = s16
            # The row's error cannot exceed the reported maximum over rows.
            if not abs(sliarith.decode(acc) - float(y_ref[i])) / denom <= reported_sli:
                bad += 1
        res.fail(bad, "row re-check found mismatches")


class OpsMix:
    """Random sli2.12 word pairs through unpack, one op, pack; binary16 alongside.

    Ops rotate add/sub/mul/div over uniformly random words.  Fixed shares
    of the pairs are edge cases, all of which the oracle checks:
    near-cancellation neighbours (x against next_up(x), through sub with
    equal signs and through add with opposite signs), a zero operand,
    exact cancellation (x - x, x + -x), and products that saturate at the
    top or bottom of the range.
    """

    name = "ops-mix"
    NEAR_SHARE = 0.1
    EDGE_SHARE = 0.01  # for each of zero, exact cancellation and saturation
    SAMPLE = 500  # random pairs checked against the oracle, beside every edge pair

    def __init__(self, seed: int, workdir: Path, pairs: int = 4000) -> None:
        rng = np.random.default_rng([seed, 3])
        words = SliWords()
        wx = rng.integers(0, 1 << words.width, size=pairs)
        wy = rng.integers(0, 1 << words.width, size=pairs)
        ops = np.array(OPS)[np.arange(pairs) % len(OPS)]
        n_near, n_edge = int(pairs * self.NEAR_SHARE), int(pairs * self.EDGE_SHARE)

        def signed_rank(lo: int, hi: int) -> tuple[int, int]:
            return (1 if rng.random() < 0.5 else -1), int(rng.integers(lo, hi))

        i = 0
        for j in range(n_near):
            sign, rank = signed_rank(0, words.top_rank)
            wx[i] = words.from_rank(sign, rank)
            ops[i] = "sub" if j % 2 == 0 else "add"
            wy[i] = words.from_rank(sign if j % 2 == 0 else -sign, rank + 1)
            i += 1
        for j in range(n_edge):
            (wx if j % 2 else wy)[i] = (0, 1 << (words.width - 1))[(j // 2) % 2]
            i += 1
        for j in range(n_edge):
            sign, rank = signed_rank(0, words.top_rank + 1)
            wx[i] = words.from_rank(sign, rank)
            ops[i] = "sub" if j % 2 == 0 else "add"
            wy[i] = words.from_rank(sign if j % 2 == 0 else -sign, rank)
            i += 1
        for j in range(n_edge):
            lo = words.top_rank - 63 if j % 2 == 0 else 0
            (sx, rx), (sy, ry) = signed_rank(lo, lo + 64), signed_rank(lo, lo + 64)
            ops[i], wx[i], wy[i] = "mul", words.from_rank(sx, rx), words.from_rank(sy, ry)
            i += 1
        order = rng.permutation(pairs)
        self.wx, self.wy, self.ops = wx[order], wy[order], ops[order]
        edge = order < i
        self.b16_x = to_b16(decode_words(self.wx))
        self.b16_y = to_b16(decode_words(self.wy))
        others = np.flatnonzero(~edge)
        picked = rng.choice(others, size=min(self.SAMPLE, len(others)), replace=False)
        self.sample = np.sort(np.concatenate([np.flatnonzero(edge), picked]))
        self.ops_per_unit = 2 * pairs  # one SLI op and one binary16 op per pair

        fmt = sliarith.SliFormat.from_name(SLI)
        self.fmt, self.f16 = fmt, sliarith.FloatFormat.from_name(FLOAT)
        width = fmt.width
        self._pairs = [
            (sliarith.BitWord(int(bx), width), sliarith.BitWord(int(by), width),
             OPS.index(op), float(ax), float(ay), SYMBOL[op])
            for bx, by, op, ax, ay in zip(self.wx, self.wy, self.ops, self.b16_x, self.b16_y)
        ]
        self.unit_percentiles: list[tuple[float, float]] = []

    DIV_BY_ZERO = -1
    ERROR = -2

    def unit(self) -> tuple[float, tuple[list[int], bytes]]:
        unpack, pack, fl_op = sliarith.unpack, sliarith.pack, sliarith.fl_op
        fns = (sliarith.add, sliarith.sub, sliarith.mul, sliarith.div)
        fmt, f16 = self.fmt, self.f16
        words: list[int] = []
        floats: list[float] = []
        lat = array("q")
        clock = time.perf_counter_ns
        start = time.perf_counter()
        for wx, wy, k, ax, ay, sym in self._pairs:
            t0 = clock()
            try:
                w = pack(fns[k](unpack(wx, fmt), unpack(wy, fmt))).bits
            except ZeroDivisionError:
                w = self.DIV_BY_ZERO
            except Exception:  # counted as a failed op by check()
                w = self.ERROR
            t1 = clock()
            floats.append(fl_op(ax, ay, sym, f16))
            lat.append(t1 - t0)
            words.append(w)
        elapsed = time.perf_counter() - start
        p50, p99 = np.percentile(np.frombuffer(lat, dtype=np.int64), [50, 99]) / 1e3
        self.unit_percentiles.append((float(p50), float(p99)))
        # Bytes, so that NaN results compare equal between units.
        return elapsed, (words, array("d", floats).tobytes())

    def op_us(self, unit_seconds: list[float], scales: list[float]) -> tuple[float, float]:
        """Medians over passes of each pass's scaled p50 and p99 call latency.

        A sample is one timed pack(op(unpack, unpack)) call.  Taking the
        percentiles per pass keeps a few slow seconds of a shared machine
        from setting the p99 of the whole run.
        """
        p = np.array(self.unit_percentiles) * np.array(scales)[:, None]
        return float(np.median(p[:, 0])), float(np.median(p[:, 1]))

    def check(self, output: tuple[list[int], bytes]) -> CheckResult:
        res = CheckResult()
        words = np.array(output[0], dtype=np.int64)
        floats = np.frombuffer(output[1], dtype=np.float64)
        want16, exact16 = b16_op(self.b16_x, self.b16_y, self.ops)
        res.fail(int(np.sum(~same_b16(floats, want16))), "binary16 op differs from float16")

        zero_y = (self.wy & (SliWords().half * 2 - 1)) == 0
        errors = words == self.ERROR
        res.fail(int(np.sum(errors)), "unexpected exception")
        div0 = words == self.DIV_BY_ZERO
        res.fail(int(np.sum(div0 != ((self.ops == "div") & zero_y))),
                 "ZeroDivisionError without a zero divisor, or missing")

        oracle = SliOracle()
        bad = 0
        for i in self.sample:
            try:
                want = oracle.op(str(self.ops[i]), int(self.wx[i]), int(self.wy[i]))
            except ZeroDivisionError:
                want = self.DIV_BY_ZERO
            bad += int(words[i]) != want
        res.fail(bad, "SLI result differs from the oracle")

        ok = ~(errors | div0)
        x, y = decode_words(self.wx), decode_words(self.wy)
        _, ref = b16_op(x, y, self.ops)  # binary64 reference for the SLI result
        got = decode_words(np.where(ok, words, 0))
        res.sli_err = _mean_rel_err(got, ref, ok)
        res.float_err = _mean_rel_err(floats, exact16, np.ones(len(floats), dtype=bool))
        return res


def _mean_rel_err(got: np.ndarray, ref: np.ndarray, ok: np.ndarray) -> float:
    """Mean |got - ref| / |ref| where ref is in binary16's normal range."""
    with np.errstate(invalid="ignore"):
        mag = np.abs(ref)
        keep = ok & np.isfinite(got) & (mag >= B16_MIN_NORMAL) & (mag <= B16_MAX)
        return float(np.mean(np.abs(got[keep] - ref[keep]) / mag[keep]))


WORKLOADS = {w.name: w for w in (SweepRepr, MatvecWide, OpsMix)}
