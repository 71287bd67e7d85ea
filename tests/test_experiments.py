"""Tests for the experiment harness, .dat serialization, and the CLI."""

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sliarith import arith, experiments, lanes
from sliarith.core import SliFormat, SliNumber, decode, encode
from sliarith.experiments import (
    MAX_DIM,
    SLI_COLUMN,
    ErrorTable,
    MatvecConfig,
    SweepConfig,
    _field_text,
    _simulate_matvec,
    cli,
    emit_dat,
    matvec_backward_error,
    read_dat,
    repr_error_sweep,
    resolve_system,
)
from sliarith.minifloat import BINARY16, TOY5, FloatFormat, fl, fl_op

F = SliFormat(2, 12)


def _rows(table: ErrorTable) -> list[tuple[float, ...]]:
    """(key, error per system) for every row of a table."""
    return list(zip(table.key.tolist(), *(v.tolist() for v in table.values.values())))


class TestResolveSystem:
    def test_dispatch(self):
        assert resolve_system("sli2.12") == F
        assert resolve_system("binary16") == BINARY16
        assert resolve_system("toy5") == TOY5
        assert isinstance(resolve_system("b4e7u"), FloatFormat)
        assert isinstance(resolve_system("sli1.3u"), SliFormat)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown system"):
            resolve_system("float128")


class TestErrorTable:
    def test_accepts_inf(self):
        t = ErrorTable([3.0, 4.0], {"a": [0.0, 1.0], "b": [math.inf, 0.5]})
        assert len(t) == 2
        assert t.values["b"][0] == math.inf

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            ErrorTable([1.0, 2.0], {"a": [0.0, -1e-9]})
        with pytest.raises(ValueError):
            ErrorTable([1.0], {"a": [math.nan]})
        with pytest.raises(ValueError):
            ErrorTable([1.0], {"a": [-math.inf]})


class TestExperimentConfig:
    """The per-experiment configs: each refuses what its own knobs may
    not be."""

    def test_defaults_valid(self):
        assert SweepConfig().systems == MatvecConfig().systems == ("binary16", "sli2.12")
        assert MatvecConfig().dims == (10, 100, 1000)

    def test_validation(self):
        for config in (SweepConfig, MatvecConfig):
            with pytest.raises(ValueError, match="need at least one system"):
                config(systems=())
        with pytest.raises(ValueError, match="step must be > 0"):
            SweepConfig(step=0.0)
        with pytest.raises(ValueError, match="min must not exceed max"):
            SweepConfig(min=2.0, max=1.0)
        with pytest.raises(ValueError):
            MatvecConfig(dims=(100, 10))
        with pytest.raises(ValueError):
            MatvecConfig(dims=(0,))
        with pytest.raises(ValueError):
            MatvecConfig(dims=(MAX_DIM + 1,))
        with pytest.raises(ValueError):
            MatvecConfig(lo=2.0, hi=1.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            MatvecConfig(seed=-1)

    @pytest.mark.parametrize("config, knob", [
        (SweepConfig, "min"), (SweepConfig, "max"), (SweepConfig, "step"),
        (MatvecConfig, "lo"), (MatvecConfig, "hi"),
    ])
    def test_float_knobs_must_be_finite(self, config, knob):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{knob} must be finite"):
                config(**{knob: bad})

    def test_each_config_takes_only_its_own_knobs(self):
        with pytest.raises(TypeError):
            SweepConfig(dims=(3,))
        with pytest.raises(TypeError):
            MatvecConfig(step=0.5)


class TestReprSweep:
    def test_exact_points_have_zero_error(self):
        cfg = SweepConfig(systems=("binary16", "sli2.12"), min=1.0, max=1.0, step=1.0)
        t = repr_error_sweep(cfg)
        assert len(t) == 1
        assert {k: v.tolist() for k, v in t.values.items()} == {
            "binary16": [0.0], "sli2.12": [0.0]}

    def test_e_is_exact_in_sli(self):
        # psi(e) = 2 exactly, a grid point of every SLI format
        cfg = SweepConfig(systems=("sli2.12",), min=math.e, max=math.e, step=1.0)
        t = repr_error_sweep(cfg)
        assert t.values["sli2.12"].tolist() == [0.0]

    def test_grid_walk(self):
        cfg = SweepConfig(systems=("binary16",), min=1.0, max=2.0, step=0.5)
        t = repr_error_sweep(cfg)
        assert t.key.tolist() == [1.0, 1.5, 2.0]

    def test_zero_in_range_rejected(self):
        cfg = SweepConfig(systems=("binary16",), min=-1.0, max=1.0)
        with pytest.raises(ValueError):
            repr_error_sweep(cfg)
        # The grid's last point may pass max by 1e-9 steps, here onto 0.
        cfg = SweepConfig(systems=("binary16",), min=-1.0, max=-1e-12, step=1.0)
        with pytest.raises(ValueError, match="exclude zero"):
            repr_error_sweep(cfg)

    def test_grid_cap_counts_points(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_GRID", 11)
        cfg = SweepConfig(systems=("binary16",), min=1.0, max=2.0, step=0.1)
        assert len(repr_error_sweep(cfg)) == 11
        cfg = SweepConfig(systems=("binary16",), min=1.0, max=2.0, step=0.09)
        with pytest.raises(ValueError, match="more than 11 points"):
            repr_error_sweep(cfg)

    def test_float_overflow_flags_inf(self):
        cfg = SweepConfig(systems=("toy5", "sli2.12u"), min=14.5, max=16.0, step=0.5)
        t = repr_error_sweep(cfg)
        flags = np.isinf(t.values["toy5"]).tolist()
        assert flags == [False, True, True, True]  # overflow starts at 15.0
        assert np.isfinite(t.values["sli2.12u"]).all()

    @pytest.mark.parametrize("systems, lo, hi, step", [
        # Down into binary16 subnormals (below 2**-14).
        (("binary16", "sli2.12"), 1e-8, 1e-4, 1e-7),
        # toy5 overflows from 15 on, sli1.4 saturates above 12.85.
        (("toy5", "sli1.4"), 0.001, 50.0, 0.05),
        (("bfloat16", "sli2.12u"), 1e-30, 1e30, 1e27),
        (("binary16", "sli2.12", "b4e7", "sli3.3"), -8.0, -0.01, 1e-2),
    ])
    def test_matches_scalar_rounding_bit_for_bit(self, systems, lo, hi, step, monkeypatch):
        # Several chunks of 300 points, the last one partial.
        monkeypatch.setattr(experiments, "_CHUNK_ROWS", 300)
        cfg = SweepConfig(systems=systems, min=lo, max=hi, step=step)
        t = repr_error_sweep(cfg)
        steps = int(math.floor((hi - lo) / step + 1e-9))
        x = [lo + i * step for i in range(steps + 1)]
        assert t.key.tolist() == x
        assert len(x) > 600 and len(x) % 300
        for name in systems:
            fmt = resolve_system(name)
            want = []
            for xi in x:
                y = decode(encode(xi, fmt)) if isinstance(fmt, SliFormat) else fl(xi, fmt)
                want.append(abs(y - xi) / abs(xi) if math.isfinite(y) else math.inf)
            assert list(map(float.hex, t.values[name].tolist())) == list(map(float.hex, want))
        if "toy5" in systems:
            assert np.isinf(t.values["toy5"]).any()
            assert max(x) > resolve_system("sli1.4").max_value
            assert np.isfinite(t.values["sli1.4"]).all()

    def test_sli_error_bounded_by_index_quantum(self):
        cfg = SweepConfig(systems=("sli2.12",), min=0.5, max=4.0, step=0.01)
        for err in repr_error_sweep(cfg).values["sli2.12"]:
            assert err <= math.e * 2.0**-13 * 1.01


def _matvec_by_rows(fmt, a, x) -> list[float]:
    """Reference for _simulate_matvec: one row at a time through the
    scalar ops, left to right."""
    n = len(x)
    if isinstance(fmt, SliFormat):
        xr = [encode(float(v), fmt) for v in x]
        out = []
        for i in range(n):
            acc = SliNumber.zero(fmt)
            for j in range(n):
                acc = arith.add(acc, arith.mul(encode(float(a[i, j]), fmt), xr[j]))
            out.append(decode(acc))
        return out
    xf = [fl(float(v), fmt) for v in x]
    out = []
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc = fl_op(acc, fl_op(fl(float(a[i, j]), fmt), xf[j], "*", fmt), "+", fmt)
        out.append(acc)
    return out


def _matvec_problem(n, lo, hi, seed):
    """A and x with exact zero entries; for a signed range, signed x, and
    rows 2 and 3 (where n > 3) cancelling exactly after two terms and
    halfway."""
    rng = np.random.default_rng([n, seed])
    a = rng.uniform(lo, hi, size=(n, n))
    x = rng.uniform(0.0, 1.0, size=n)
    a[rng.random((n, n)) < 0.1] = 0.0  # exact zero products
    if lo < 0.0:
        x *= rng.choice([-1.0, 1.0], size=n)
        if n > 3:
            x[1] = x[0]
            a[2, 1], a[2, 2:] = -a[2, 0], 0.0
            a[3, 1] = -a[3, 0]
    return a, x


class TestSimulateMatvec:
    @pytest.mark.parametrize(
        "system", ["sli2.12", "sli1.4", "sli3.3", "binary16", "bfloat16", "toy5"])
    def test_rows_match_scalar_ops_bit_for_bit(self, system):
        fmt = resolve_system(system)
        lo = -100.0 if fmt.signed else 0.0
        cases = [(24, 0.0, 100.0), (40, 0.0, 1e4), (12, 0.0, 1e-3), (16, 0.0, 1.0),
                 (70, 0.0, 100.0), (60, lo, 100.0)]
        if fmt.signed:
            cases.append((20, lo, 100.0))
        solo = {}
        for n, lo_n, hi in cases:
            a, x = _matvec_problem(n, lo_n, hi, 5)
            want = _matvec_by_rows(fmt, a, x)
            (got,) = _simulate_matvec(fmt, [(a, x)])
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (n, lo_n, hi)
            if lo_n < 0.0:
                assert want[2] == 0.0
            if fmt == BINARY16 and hi == 1e4:
                assert math.isinf(max(want))  # row sums past 65504
            solo[n] = (a, x), want
        # One stacked group of the cases above and two more, among them a
        # second n = 24, so that the rows still summing shrink at the end of
        # each dimension.
        group = [(_matvec_problem(1, lo, 100.0, 6), None), solo[16],
                 solo[24], (_matvec_problem(24, lo, 100.0, 6), None), solo[60], solo[70]]
        problems = [problem for problem, _ in group]
        wants = [want or _matvec_by_rows(fmt, *problem) for problem, want in group]
        assert [len(x) for _, x in problems] == [1, 16, 24, 24, 60, 70]
        for got, want in zip(_simulate_matvec(fmt, problems), wants, strict=True):
            assert list(map(float.hex, got)) == list(map(float.hex, want))

    @pytest.mark.parametrize("system", ["sli2.12u", "toy5"])
    def test_unsigned_rejects_negative_entries(self, system):
        a = np.array([[1.0, 2.0], [3.0, -4.0]])
        with pytest.raises(ValueError, match="unsigned"):
            _simulate_matvec(resolve_system(system), [(a, np.array([0.5, 0.25]))])

    def test_identity_product_is_exact(self):
        problems = [(np.array([[1.0]]), np.array([0.5]))]
        assert [y.tolist() for y in _simulate_matvec(TOY5, problems)] == [[0.5]]
        assert [y.tolist() for y in _simulate_matvec(BINARY16, problems)] == [[0.5]]
        (got,) = _simulate_matvec(F, problems)
        assert got.tolist() == [decode(encode(0.5, F))]

    def test_row_sum_in_binary64_exact_case(self):
        # all entries exactly representable: the float path is exact
        a = np.array([[0.5, 0.25], [1.0, 2.0]])
        x = np.array([2.0, 4.0])
        (got,) = _simulate_matvec(BINARY16, [(a, x)])
        assert got.tolist() == [2.0, 10.0]


class TestMatvecBackwardError:
    def test_deterministic(self):
        cfg = MatvecConfig(systems=("binary16", "sli2.12"), dims=(3, 7))
        a = matvec_backward_error(cfg)
        b = matvec_backward_error(cfg)
        assert _rows(a) == _rows(b)

    def test_substreams_are_per_dimension(self):
        solo = matvec_backward_error(
            MatvecConfig(systems=("binary16",), dims=(4,))
        )
        pair = matvec_backward_error(
            MatvecConfig(systems=("binary16",), dims=(2, 4))
        )
        assert _rows(pair)[1] == _rows(solo)[0]

    @pytest.mark.parametrize("system", ["sli2.12", "binary16"])
    def test_split_groups_match_solo_runs(self, system, monkeypatch):
        dims = (2, 3, 5, 5, 7, 9, 12)
        solo = [_rows(matvec_backward_error(MatvecConfig(systems=(system,), dims=(n,))))[0]
                for n in dims]
        monkeypatch.setattr(experiments, "_GROUP_ENTRIES", 64)
        groups = []
        simulate = experiments._simulate_matvec

        def recording(fmt, problems):
            groups.append([len(x) for _, x in problems])
            return simulate(fmt, problems)

        monkeypatch.setattr(experiments, "_simulate_matvec", recording)
        table = matvec_backward_error(MatvecConfig(systems=(system,), dims=dims))
        assert groups == [[2, 3, 5, 5], [7], [9], [12]]
        assert _rows(table) == solo

    @pytest.mark.parametrize("budget", [64, 1000, experiments._GROUP_ENTRIES])
    def test_groups_stay_within_the_entry_budget(self, budget, monkeypatch):
        monkeypatch.setattr(experiments, "_GROUP_ENTRIES", budget)
        rng = np.random.default_rng(3)
        for size in (1, 2, 5, 40):
            for top in (10, 40, MAX_DIM):
                dims = sorted(rng.integers(1, top + 1, size=size).tolist())
                groups = experiments._matvec_groups(dims)
                assert [n for g in groups for n in g] == dims
                for g, after in zip(groups, groups[1:] + [None]):
                    entries = sum(n * n for n in g)
                    assert entries <= budget or len(g) == 1
                    if after:  # a group ends only where the next dimension would not fit
                        assert entries + after[0] ** 2 > budget

    def test_errors_are_small_at_toy_size(self):
        cfg = MatvecConfig(systems=("binary16", "sli2.12"), dims=(5,))
        ((_, *errs),) = _rows(matvec_backward_error(cfg))
        for v in errs:
            assert 0.0 <= v < 1e-2

    def test_seed_changes_data(self):
        a = matvec_backward_error(
            MatvecConfig(systems=("binary16",), dims=(6,), seed=1)
        )
        b = matvec_backward_error(
            MatvecConfig(systems=("binary16",), dims=(6,), seed=2)
        )
        assert _rows(a) != _rows(b)


class TestDatFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "t.dat"
        table = ErrorTable(
            [1.0, 2.5], {"a": [0.1234567890123456789, math.inf], "b": [0.0, 2.0**-53]})
        emit_dat(table, ["x", "a", "b"], path)
        header, rows = read_dat(path)
        assert header == ["x", "a", "b"]
        assert rows[0] == [1.0, 0.1234567890123456789, 0.0]
        assert rows[1] == [2.5, math.inf, 2.0**-53]

    def test_header_text_verbatim(self, tmp_path):
        path = tmp_path / "t.dat"
        emit_dat(ErrorTable([1.0], {"m": [0.5]}), ["n", "level-index"], path)
        first = path.read_text().splitlines()[0]
        assert first == "n level-index"

    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "t.dat"
        emit_dat(ErrorTable([], {"a": []}), ["x", "a"], path)
        assert path.read_text() == "x a\n"
        header, rows = read_dat(path)
        assert header == ["x", "a"] and rows == []

    def test_column_count_must_match(self, tmp_path):
        path = tmp_path / "t.dat"
        with pytest.raises(ValueError):
            emit_dat(ErrorTable([1.0], {"a": [0.0]}), ["x", "a", "b"], path)
        with pytest.raises(ValueError):
            emit_dat(ErrorTable([], {"a": []}), ["x"], path)
        assert not path.exists()

    def test_inconsistent_records_rejected(self):
        # A column that does not have one entry per key.
        with pytest.raises(ValueError, match="rows"):
            ErrorTable([1.0, 2.0], {"a": [0.0, 0.0], "b": [0.0]})
        with pytest.raises(ValueError):
            ErrorTable([[1.0]], {"a": [[0.0]]})

    def test_rows_spelled_as_field_text(self, tmp_path, monkeypatch):
        # Several write chunks, the last one partial, and every special
        # value a key or an error can take; then the edges of emit_dat's
        # fast spelling: both neighbours of every power of ten from 1e-7
        # to 1e18 (and the powers), values whose 17-digit rounding carries
        # into the next decade, and exact ties of the 17th digit.
        monkeypatch.setattr(experiments, "_SPELL_VALUES", 6)  # 3 rows a pass
        key = [1.0, -0.0, 0.0, -2.5, math.inf, -math.inf, math.nan, 5e-324,
               0.1, 1e300, -1e-300, 65504.0]
        errs = [0.0, -0.0, math.inf, 2.0**-53, 1.0 / 3.0, 5e-324, 0.1, 1e22,
                1e-7, 1e16, 123456789.0, 7.0]
        powers = [float(f"1e{k}") for k in range(-7, 19)]
        edges = [x for p in powers
                 for x in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
        # The doubles nearest these powers lie below them and still spell
        # as the power: the rounding carries.  None lies in 1e-6..1e17.
        exponents = (-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220)
        carries = [float(f"1e{k}") for k in exponents]
        assert all(Fraction(x) < Fraction(10) ** k for x, k in zip(carries, exponents))
        assert [_field_text(x) for x in carries] == [f"1e{k:+03d}" for k in exponents]
        # m * 2^(d - 17) with m an odd multiple of 5^(16 - d) is a tie:
        # |x| * 10^(16 - d) is a 17-digit integer plus one half.
        rng = np.random.default_rng(17)
        ties = [1 + 2**-17]
        assert _field_text(ties[0]) == "1.0000076293945312"
        for d in range(-6, 16):
            five = 5 ** (16 - d)
            lo, hi = -(-2 * 10**16 // five), min(2 * 10**17 // five, 2**53)
            for m in rng.integers(lo, hi, size=4).tolist():
                ties.append(math.ldexp(m | 1, d - 17))
                assert (Fraction(ties[-1]) * 10 ** (16 - d)).denominator == 2
                assert 10**d <= Fraction(ties[-1]) < 10 ** (d + 1)
        extra = edges + [-x for x in edges] + carries + ties + [-x for x in ties]
        key += extra
        errs += [abs(x) for x in reversed(extra)]
        path = tmp_path / "t.dat"
        emit_dat(ErrorTable(key, {"a": errs}), ["x", "a"], path)
        want = "x a\n" + "".join(
            f"{_field_text(k)} {_field_text(e)}\n" for k, e in zip(key, errs))
        assert path.read_text() == want
        assert "-0" not in path.read_text().split()
        # At the default pass size: random bit patterns (subnormals,
        # negatives, NaN and exponents far outside 1e-6..1e17 among them),
        # then 2^20 random values of either sign from just below 1e-6 to
        # just above 1e17, where "%.17g" is _field_text.
        monkeypatch.undo()
        bits = rng.integers(0, 2**64, size=1 << 13, dtype=np.uint64)
        bits[:1 << 10] >>= np.uint64(12)  # subnormal, positive
        bits[1 << 10:1 << 11] |= np.uint64(1 << 63)  # negative
        n = 1 << 20
        signs = rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
        exponents = rng.integers(1023 - 20, 1023 + 57, size=n, dtype=np.uint64) << np.uint64(52)
        fractions = rng.integers(0, 2**52, size=n, dtype=np.uint64)
        fast = (fractions | exponents | signs).view(np.float64)
        key = np.concatenate([bits.view(np.float64), fast])
        emit_dat(ErrorTable(key, {}), ["x"], path)
        want = [_field_text(x) for x in bits.view(np.float64).tolist()]
        want += (("%.17g\n" * fast.size) % tuple(fast.tolist())).splitlines()
        got = path.read_text().splitlines()
        assert got[0] == "x" and len(got) == 1 + len(want)
        assert [(x, w) for x, w in zip(got[1:], want) if x != w][:3] == []

    def test_integer_zeros_spelled_as_field_text(self, tmp_path, monkeypatch):
        # Integer parts whose zeros stay in the text where a fraction's
        # trailing zeros would go: per decade 0..16, integers ending in
        # one to all but one zeros and integers with interior zeros, those
        # below 1e16 also plus one half, and all of either sign.
        monkeypatch.setattr(experiments, "_SPELL_VALUES", 6)
        ints = []
        for d in range(17):
            ints += [int("12345678912345678"[:d + 1 - z]) * 10**z for z in range(1, d + 1)]
            ints.append(int("10203040506070808"[:d + 1]))
        texts = [str(n) for n in ints] + [f"{n}.5" for n in ints if n < 10**16]
        texts += ["-" + t for t in texts]
        values = [float(t) for t in texts]
        assert [_field_text(x) for x in values] == texts  # every value is exact
        path = tmp_path / "t.dat"
        emit_dat(ErrorTable(values, {}), ["x"], path)
        assert path.read_text() == "x\n" + "".join(f"{_field_text(x)}\n" for x in values)

    def test_interior_points_spelled_as_field_text(self, tmp_path, monkeypatch):
        # Points inside the digits: per decade 1..16, integer parts
        # plus a fraction of every length the 17 digits leave, exact in
        # binary64 as an odd multiple of 2^-f; 1/2^f puts zeros next to
        # the point.  Then inexact values with zeros beside it, and the
        # longest texts, 24 characters each.
        monkeypatch.setattr(experiments, "_SPELL_VALUES", 6)
        texts = []
        for d in range(1, 17):
            for n in (int("12345678912345678"[:d + 1]), int("10203040506070808"[:d + 1])):
                for f in range(1, 17 - d):
                    for k in (1, 2**f - 1):
                        texts.append(str(n + Decimal(k) / 2**f))
        texts += ["-" + t for t in texts]
        values = [float(t) for t in texts]
        assert [_field_text(x) for x in values] == texts  # every value is exact
        longest = [-2.2250738585072014e-308, -1.7976931348623157e+308, -4.9406564584124654e-324]
        assert {len(_field_text(x)) for x in longest} == {24}
        values += [1000.5, 10.05, 120.000001, -10.05] + longest
        errs = [abs(x) for x in reversed(values)]
        path = tmp_path / "t.dat"
        emit_dat(ErrorTable(values, {"a": errs}), ["x", "a"], path)
        assert path.read_text() == "x a\n" + "".join(
            f"{_field_text(x)} {_field_text(e)}\n" for x, e in zip(values, errs))

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("")
        with pytest.raises(ValueError, match="empty data file"):
            read_dat(path)

    def test_read_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("x a\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            read_dat(path)


class TestCliCommands:
    def test_encode_prints_fields(self, capsys):
        assert cli(["encode", "sli2.12", "3.141592653589793"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "format: sli2.12"
        assert out[1] == "bits: 0101001000101010"
        assert "level: 2" in out
        assert "reciprocal: +1" in out

    def test_encode_float_format(self, capsys):
        assert cli(["encode", "toy5", "15"]) == 0
        assert "value: inf" in capsys.readouterr().out

    def test_encode_unsigned_float_zero(self, capsys):
        assert cli(["encode", "b4e7u", "-0.0"]) == 0
        assert "value: 0.0\n" in capsys.readouterr().out

    def test_op_mul_float(self, capsys):
        assert cli(["op", "mul", "toy5", "1.75", "2"]) == 0
        assert "value: 3.5" in capsys.readouterr().out

    def test_op_add_sli(self, capsys):
        assert cli(["op", "add", "sli2.12", "3.141592653589793", "3.141592653589793"]) == 0
        out = capsys.readouterr().out
        assert "level: 2" in out
        assert "value: 6.283548393727487" in out

    def test_op_sub_unsigned(self, capsys):
        assert cli(["op", "sub", "sli2.12u", "3", "1"]) == 0
        unsigned = capsys.readouterr().out.splitlines()
        assert cli(["op", "sub", "sli2.12", "3", "1"]) == 0
        signed = capsys.readouterr().out.splitlines()
        # The signed format's number, in a word without the sign bit.
        assert unsigned[1] == "bits: " + signed[1][len("bits: 0"):]
        assert unsigned[2:] == signed[2:]
        assert "value: 1.9999361086506573" in unsigned

    def test_float_formats_wider_than_binary64(self, tmp_path, capsys):
        assert cli(["op", "add", "b53e2000", "1", "2"]) == 0
        assert "value: 3.0" in capsys.readouterr().out
        assert cli(["op", "mul", "b11e1024", "1e300", "1e-300"]) == 0
        assert "value: 1.0" in capsys.readouterr().out
        out = tmp_path / "s.dat"
        code = cli(["sweep-repr", "--float", "b53e2000", "--min", "1.0", "--max", "1.5",
                    "--step", "0.25", "--out", str(out)])
        assert code == 0
        header, rows = read_dat(out)
        assert header[1] == "b53e2000"
        assert [r[1] for r in rows] == [0.0, 0.0, 0.0]  # binary64 is exact there

    def test_table_shapes(self, capsys):
        assert cli(["table", "toy5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bits value"
        assert len(lines) == 33
        assert cli(["table", "sli1.3u"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bits value log10"
        assert len(lines) == 33
        assert lines[1].startswith("00000 0 ")  # cooked zero row
        for flags, zero_rows in (([], ("10000 0 -inf",)),
                                 (["--raw"], ("00000 1 0", "10000 -1 0"))):
            assert cli(["table", "sli1.2", *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 33
            for row in zero_rows:
                assert row in lines
            rows = [line.split() for line in lines[1:]]
            # Each sign-bit word negates its positive twin's value.
            for (bits, value, lg), (nbits, nvalue, nlg) in zip(rows[:16], rows[16:]):
                assert nbits == "1" + bits[1:]
                assert float(nvalue) == -float(value)
                assert nlg == lg

    def test_table_rows_spelled_as_field_text(self, capsys):
        # Most of this format's values lie outside 1e-6..1e17, so every
        # block of rows mixes the speller's two paths behind the bits.
        fmt = FloatFormat.from_name("b4e255")
        assert cli(["table", fmt.name]) == 0
        want = [f"{b:0{fmt.width}b} {_field_text(x)}"
                for bits, values in lanes.enumerate_values(fmt)
                for b, x in zip(bits.tolist(), values.tolist())]
        assert capsys.readouterr().out.splitlines() == ["bits value", *want]

    def test_sweep_repr_writes_dat(self, tmp_path, capsys):
        out = tmp_path / "s.dat"
        code = cli([
            "sweep-repr", "--min", "1.0", "--max", "1.5", "--step", "0.25",
            "--out", str(out),
        ])
        assert code == 0
        assert f"wrote 3 records to {out}" in capsys.readouterr().out
        header, rows = read_dat(out)
        assert header == ["x", "binary16", SLI_COLUMN]
        assert [r[0] for r in rows] == [1.0, 1.25, 1.5]

    def test_tables_wider_than_24_bits_are_refused(self, capsys):
        for name in ("sli2.24", "b17e127"):  # 28 and 25 bits
            start = time.perf_counter()
            assert cli(["table", name]) == 1
            assert time.perf_counter() - start < 5.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "refusing" in captured.err

    def test_matvec_writes_dat(self, tmp_path, capsys):
        out = tmp_path / "m.dat"
        code = cli(["matvec", "--dims", "2,3", "--out", str(out)])
        assert code == 0
        header, rows = read_dat(out)
        assert header == ["n", "binary16", SLI_COLUMN]
        assert [r[0] for r in rows] == [2.0, 3.0]

    @pytest.mark.parametrize("argv, sha256", [
        (["sweep-repr", "--step", "1e-3"],
         "1fd8656735a44eb67358c85699c432d3a24bfaf125bca5a8364c7539dc532f8c"),
        (["sweep-repr", "--sli", "sli1.4", "--float", "toy5", "--min", "0.001",
          "--max", "50", "--step", "1e-2"],
         "5f0f64174d6c2f089d5ff9775f6507d01debcde0656bb1a5e1934cc3bb3b0c89"),
        (["matvec", "--dims", "10,50", "--hi", "100", "--seed", "2024"],
         "18cef508c8f5578ac67a40f49dae9338b51d853a4538b1eec4b82e4943e9dec6"),
        (["sweep-repr", "--min=-8", "--max=-0.01", "--step", "1e-3"],
         "723eed0dc9951ab2d5ac75c2925afb2332522a6d000503c9f3c901dbce51abc3"),
        (["sweep-repr", "--sli", "sli2.12u", "--float", "bfloat16", "--min", "1e-30",
          "--max", "1e30", "--step", "1e27"],
         "151eaf352395e1cea74ce00023e95f146fbd8ff538a434b7bd9d2954b49118f0"),
        (["matvec", "--dims", "10,50,50,300", "--lo=-100", "--hi", "100", "--seed", "7"],
         "57b28a61288f4b428c2788274f440e92041ba108e76b615bc2a78d82a8212294"),
    ])
    def test_dat_bytes_are_pinned(self, tmp_path, capsys, argv, sha256):
        """The .dat bytes of six runs, pinned by SHA-256: negative keys,
        keys and errors spelled in scientific notation, and a signed
        matvec group with a repeated dimension, among them.

        The SLI columns go through the C library's exp and log, so the
        hashes hold for the libm they were taken with (glibc, Python
        3.11, numpy 2.4, x86-64); another libm may round a few
        intermediates differently and fail this test without any change
        to sliarith.
        """
        out = tmp_path / "run.dat"
        assert cli([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("argv, sha256", [
        (["sli2.12"], "e912d79302c387c59a87a9391c9e492f2ce4da63de001610f77b8bb134142de3"),
        (["sli2.12", "--raw"],
         "46fed4f424076f169087fe6d7976d1c9b0a224324481b821ab5d2de8830de73d"),
        (["sli3.10u"], "ae1c9fa82e563fdec7fc4df29e6b96d386bb94bfe586484e847c00179f127baf"),
        (["binary16"], "35579bc123e3089b44c3eecfbbdb27c9adf20da7e36b2923c8fae719cce1f1f2"),
        (["b4e7"], "95360114ab496fc0b19c23145c87f52a3134bd051843f5673dbede9dc846d8a0"),
        (["b5e1023"], "8b3a9418c189d0381f13adc8f4e6a87c0915e8067495a3733a7bc26bf21fb525"),
    ], ids=["sli2.12", "sli2.12-raw", "sli3.10u", "binary16", "b4e7", "b5e1023"])
    def test_table_bytes_are_pinned(self, capsys, argv, sha256):
        """The stdout bytes of six tables, pinned by SHA-256: cooked and
        raw SLI words, an unsigned three-level format, and floats with
        subnormals, infinities, NaNs and values past 1e17.

        The SLI values and logarithms go through the C library's exp and
        log, so the hashes hold for the libm they were taken with (glibc,
        Python 3.11, numpy 2.4, x86-64); another libm may round a few
        intermediates differently and fail this test without any change
        to sliarith.
        """
        assert cli(["table", *argv]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == sha256

    def test_no_floating_point_warnings(self, tmp_path, capsys):
        # The lanes divide and round on every lane, zero operands
        # included, and the float tables scale the all-ones exponent past
        # binary64; none of that may surface as a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli(["matvec", "--dims", "10,50", "--hi", "100", "--seed", "3",
                        "--out", str(tmp_path / "m.dat")]) == 0
            assert cli(["matvec", "--dims", "20", "--lo=-1e4", "--hi", "1e4", "--sli", "sli3.3",
                        "--float", "bfloat16", "--out", str(tmp_path / "n.dat")]) == 0
            assert cli(["sweep-repr", "--min", "1e-30", "--max", "1e30", "--step", "1e27",
                        "--out", str(tmp_path / "s.dat")]) == 0
            assert cli(["sweep-repr", "--min=-8", "--max=-0.01", "--step", "1e-3",
                        "--out", str(tmp_path / "t.dat")]) == 0
            assert cli(["table", "b5e1023"]) == 0
            assert cli(["table", "b3e1023u"]) == 0
        capsys.readouterr()

    def test_runs_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.dat"
        b = tmp_path / "b.dat"
        cli(["matvec", "--dims", "4", "--out", str(a)])
        cli(["matvec", "--dims", "4", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestCliConfig:
    def test_config_file_wins_over_flags(self, tmp_path, capsys):
        out = tmp_path / "s.dat"
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment line\n"
            "step = 0.5\n"
            f"out = {out}\n"
        )
        code = cli([
            "sweep-repr", "--min", "1.0", "--max", "2.0", "--step", "0.25",
            "--out", str(tmp_path / "ignored.dat"), "--config", str(conf),
        ])
        assert code == 0
        capsys.readouterr()
        header, rows = read_dat(out)
        assert [r[0] for r in rows] == [1.0, 1.5, 2.0]  # step from the file

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("sweeb_step=1\n")
        code = cli(["sweep-repr", "--config", str(conf)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_line_without_equals_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("step 0.5\n")
        assert cli(["sweep-repr", "--config", str(conf)]) == 2
        assert "run.conf:1: expected key=value, got 'step 0.5'" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = cli(["sweep-repr", "--config", str(tmp_path / "absent.conf")])
        assert code == 2

    def test_bad_value_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("dims=ten\n")
        code = cli(["matvec", "--config", str(conf)])
        assert code == 2

    def test_config_can_switch_systems(self, tmp_path, capsys):
        out = tmp_path / "s.dat"
        conf = tmp_path / "run.conf"
        conf.write_text("float=bfloat16\nsli=sli3.8\n")
        code = cli([
            "sweep-repr", "--min", "1.0", "--max", "1.0", "--step", "1.0",
            "--out", str(out), "--config", str(conf),
        ])
        assert code == 0
        capsys.readouterr()
        header, _ = read_dat(out)
        assert header == ["x", "bfloat16", SLI_COLUMN]


class TestCliSurface:
    """Every flag of the experiment commands, set on the command line and
    as a --config key, and the commands' --help text."""

    FLAG_VALUES = [
        ("sweep-repr", "sli", "sli3.8", "sli3.8"),
        ("sweep-repr", "float", "bfloat16", "bfloat16"),
        ("sweep-repr", "min", "0.5", 0.5),
        ("sweep-repr", "max", "2.5", 2.5),
        ("sweep-repr", "step", "0.125", 0.125),
        ("sweep-repr", "out", "x.dat", "x.dat"),
        ("matvec", "sli", "sli1.4u", "sli1.4u"),
        ("matvec", "float", "b5e7u", "b5e7u"),
        ("matvec", "dims", "3,5", (3, 5)),
        ("matvec", "lo", "-2", -2.0),
        ("matvec", "hi", "7.5", 7.5),
        ("matvec", "seed", "11", 11),
        ("matvec", "out", "y.dat", "y.dat"),
    ]

    # argparse's text on Python 3.11; other versions may lay it out differently.
    HELP = {
        "sweep-repr": """\
usage: sliarith sweep-repr [-h] [--sli SLI] [--float FLOAT] [--min MIN]
                           [--max MAX] [--step STEP] [--out OUT]
                           [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --sli SLI
  --float FLOAT
  --min MIN
  --max MAX
  --step STEP
  --out OUT
  --config CONFIG  key=value file overriding the flags above
""",
        "matvec": """\
usage: sliarith matvec [-h] [--sli SLI] [--float FLOAT] [--dims DIMS]
                       [--lo LO] [--hi HI] [--seed SEED] [--out OUT]
                       [--config CONFIG]

options:
  -h, --help       show this help message and exit
  --sli SLI
  --float FLOAT
  --dims DIMS
  --lo LO
  --hi HI
  --seed SEED
  --out OUT
  --config CONFIG  key=value file overriding the flags above
""",
    }

    @pytest.mark.parametrize("command, flag, text, value", FLAG_VALUES)
    def test_flag_and_config_key_set_the_same_value(
        self, command, flag, text, value, tmp_path, monkeypatch
    ):
        seen = []
        monkeypatch.setattr(experiments, "_cmd_experiment", lambda args: seen.append(args) or 0)
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag} = {text}\n")
        assert cli([command]) == 0
        assert cli([command, f"--{flag}", text]) == 0
        assert cli([command, "--config", str(conf)]) == 0
        default, from_flag, from_config = (getattr(args, flag) for args in seen)
        assert from_flag == from_config == value != default

    def test_rebound_functions_are_reached(self, tmp_path, monkeypatch, capsys):
        # A tracer wraps a function by rebinding the module attribute, so
        # cli must look up the command body, and the body the experiment's
        # run function and emit_dat, when it runs, and pass emit_dat the
        # path third.
        calls = []

        def recording(name, fn):
            def record(*args, **kwargs):
                calls.append((name, args, kwargs))
                return fn(*args, **kwargs)
            return record

        for name in ("_cmd_table", "_cmd_encode", "_cmd_op", "_cmd_experiment",
                     "repr_error_sweep", "matvec_backward_error", "emit_dat"):
            monkeypatch.setattr(experiments, name, recording(name, getattr(experiments, name)))
        for argv, body in ((["table", "sli1.2"], "_cmd_table"),
                           (["encode", "sli2.12", "1.5"], "_cmd_encode"),
                           (["op", "mul", "sli2.12", "1.5", "2"], "_cmd_op")):
            calls.clear()
            assert cli(argv) == 0
            assert [(name, len(args), kwargs) for name, args, kwargs in calls] == [
                (body, 1, {})]
        for argv, run in ((["sweep-repr", "--min", "1", "--max", "2", "--step", "0.5"],
                           "repr_error_sweep"),
                          (["matvec", "--dims", "2,3"], "matvec_backward_error")):
            out = str(tmp_path / f"{argv[0]}.dat")
            calls.clear()
            assert cli([*argv, "--out", out]) == 0
            assert [(name, len(args), kwargs) for name, args, kwargs in calls] == [
                ("_cmd_experiment", 1, {}), (run, 1, {}), ("emit_dat", 3, {})]
            assert calls[2][1][2] == out
        capsys.readouterr()

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        # The parser is built at import: cli calls construct none.
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert cli(["encode", "sli2.12", "1.5"]) == 0
        assert cli(["sweep-repr", "--min", "1", "--max", "1", "--step", "1",
                    "--out", str(tmp_path / "s.dat")]) == 0
        assert built == []
        argparse.ArgumentParser(prog="probe")  # the spy sees a construction
        assert built == ["probe"]
        capsys.readouterr()

    def test_every_flag_is_covered(self, capsys):
        covered = {(command, flag) for command, flag, _, _ in self.FLAG_VALUES}
        declared = set()
        for command in self.HELP:
            assert cli([command, "--help"]) == 0
            usage = capsys.readouterr().out.split("\n\n")[0]
            declared |= {(command, flag) for flag in re.findall(r"--(\w+)", usage)}
        assert declared - covered == {("sweep-repr", "config"), ("matvec", "config")}
        assert covered <= declared

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli([command, "--help"]) == 0
        assert capsys.readouterr().out == self.HELP[command]


class TestCliErrors:
    def test_no_arguments_is_usage(self, capsys):
        assert cli([]) == 2

    def test_unknown_format_is_usage(self, capsys):
        assert cli(["table", "float128"]) == 2
        assert cli(["encode", "sli9.9", "1.0"]) == 2

    def test_division_by_zero_is_domain_error(self, capsys):
        code = cli(["op", "div", "sli2.12", "1", "0"])
        assert code == 1
        assert "division by zero" in capsys.readouterr().err

    def test_negative_into_unsigned_is_domain_error(self, capsys):
        assert cli(["encode", "sli2.12u", "-1"]) == 1

    def test_negative_unsigned_difference_is_domain_error(self, capsys):
        assert cli(["op", "sub", "sli2.12u", "1", "3"]) == 1
        assert "negative difference in unsigned sli2.12u" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["encode", "toy5", "-1"], ["op", "sub", "toy5", "1", "2"],
        ["encode", "sli2.12u", "-1"], ["op", "sub", "sli2.12u", "1", "3"],
    ], ids=["encode-float", "op-float", "encode-sli", "op-sli"])
    def test_domain_error_leaves_stdout_empty(self, argv, capsys):
        assert cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("sliarith: error: ")

    def test_non_finite_encode_is_domain_error(self, capsys):
        assert cli(["encode", "sli2.12", "inf"]) == 1

    def test_negative_values_in_exponent_notation_are_values(self, tmp_path, capsys):
        # argparse on Python 3.11 takes only -1 and -1.5 forms as numbers
        # unless the parser says otherwise; these were refused as flags.
        for argv, same in ((["op", "add", "sli2.12", "-1e-3", "1"],
                            ["op", "add", "sli2.12", "-0.001", "1"]),
                           (["encode", "sli2.12", "-2.5e3"], ["encode", "sli2.12", "-2500"])):
            assert cli(same) == 0
            want = capsys.readouterr().out
            assert cli(argv) == 0
            assert capsys.readouterr().out == want
        a, b = tmp_path / "a.dat", tmp_path / "b.dat"
        assert cli(["sweep-repr", "--min", "-1e-3", "--max", "-1e-4", "--step", "1e-4",
                    "--out", str(a)]) == 0
        assert capsys.readouterr().out == f"wrote 10 records to {a}\n"
        assert cli(["sweep-repr", "--min=-1e-3", "--max=-1e-4", "--step", "1e-4",
                    "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert cli(["encode", "sli2.12", "-inf"]) == 1
        assert capsys.readouterr().err == "sliarith: error: cannot encode non-finite value -inf\n"
        assert cli(["encode", "sli2.12", "-e3"]) == 2  # not a number: still an unknown flag

    def test_overflowing_matvec_reference_is_domain_error(self, tmp_path, capsys):
        # Entries near 1e308 overflow the binary64 reference A x and
        # norm(A); the run is refused without numpy's RuntimeWarnings,
        # which tier-1 turns into errors.
        out = tmp_path / "m.dat"
        assert cli(["matvec", "--dims", "3,40", "--lo", "0", "--hi", "1e308",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "sliarith: error: the binary64 reference overflows at n = 3; narrow lo..hi\n")
        assert not out.exists()

    def test_unsorted_dims_is_domain_error(self, capsys):
        assert cli(["matvec", "--dims", "5,2", "--out", "/dev/null"]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep-repr", "--max", "inf"],
        ["sweep-repr", "--min=-inf"],
        ["sweep-repr", "--step", "nan"],
        ["matvec", "--hi", "inf"],
        ["matvec", "--lo", "nan"],
        ["matvec", "--lo=-1e308", "--hi", "1e308"],
    ], ids=["max-inf", "min-inf", "step-nan", "hi-inf", "lo-nan", "range-overflows"])
    def test_non_finite_range_is_domain_error(self, argv, capsys):
        assert cli([*argv, "--out", "/dev/null"]) == 1
        assert capsys.readouterr().err.startswith("sliarith: error: ")

    @pytest.mark.parametrize("target, message", [
        ("missing/out.dat", "No such file"), (".", "Is a directory"), ("", "No such file"),
    ], ids=["missing-directory", "directory", "empty"])
    @pytest.mark.parametrize("command", ["sweep-repr", "matvec"])
    def test_unwritable_output_is_domain_error(self, command, target, message, tmp_path,
                                               capsys, monkeypatch):
        def experiment(cfg):
            raise AssertionError("the experiment ran before the output was checked")

        monkeypatch.setattr(experiments, "repr_error_sweep", experiment)
        monkeypatch.setattr(experiments, "matvec_backward_error", experiment)
        out = tmp_path / target if target else ""  # open("") fails as a missing file
        argv = {"sweep-repr": ["--min", "1", "--max", "2", "--step", "0.5"],
                "matvec": ["--dims", "2"]}[command]
        assert cli([command, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sliarith: error: ") and message in err

    def test_negative_seed_is_domain_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed=-5\n")
        for argv, seed in ((["--seed", "-1"], -1), (["--config", str(conf)], -5)):
            assert cli(["matvec", "--dims", "2", *argv, "--out", str(tmp_path / "m.dat")]) == 1
            assert capsys.readouterr().err == f"sliarith: error: seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "m.dat").exists()

    def test_oversized_sweep_grid_is_refused(self, tmp_path, capsys):
        # 8e12 points, 64 TB for the grid alone: refused before allocating.
        out = tmp_path / "s.dat"
        assert cli(["sweep-repr", "--step", "1e-12", "--out", str(out)]) == 1
        assert "more than 16777216 points" in capsys.readouterr().err
        assert not out.exists()

    def test_closed_stdout_exits_quietly(self):
        # The table of sli2.12 is 3.7 MB, far more than a pipe buffers, so
        # the command is still writing when the reader closes its end.
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-m", "sliarith", "table", "sli2.12"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline() == b"bits value log10\n"
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""
