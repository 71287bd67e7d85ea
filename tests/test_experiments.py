"""Tests for the experiment harness, .dat serialization, and the CLI."""

import hashlib
import math
import re
import time
import warnings

import numpy as np
import pytest

from sliarith import arith, experiments
from sliarith.core import SliFormat, SliNumber, _Lanes, decode, encode
from sliarith.experiments import (
    _LANE_BUDGET,
    MAX_DIM,
    SLI_COLUMN,
    ErrorTable,
    ExperimentConfig,
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
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.systems == ("binary16", "sli2.12")
        assert cfg.dims == (10, 100, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(systems=())
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_step=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(sweep_min=2.0, sweep_max=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(dims=(100, 10))
        with pytest.raises(ValueError):
            ExperimentConfig(dims=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(dims=(MAX_DIM + 1,))
        with pytest.raises(ValueError):
            ExperimentConfig(lo=2.0, hi=1.0)


class TestReprSweep:
    def test_exact_points_have_zero_error(self):
        cfg = ExperimentConfig(
            systems=("binary16", "sli2.12"), sweep_min=1.0, sweep_max=1.0, sweep_step=1.0
        )
        t = repr_error_sweep(cfg)
        assert len(t) == 1
        assert {k: v.tolist() for k, v in t.values.items()} == {
            "binary16": [0.0], "sli2.12": [0.0]}

    def test_e_is_exact_in_sli(self):
        # psi(e) = 2 exactly, a grid point of every SLI format
        cfg = ExperimentConfig(
            systems=("sli2.12",), sweep_min=math.e, sweep_max=math.e, sweep_step=1.0
        )
        t = repr_error_sweep(cfg)
        assert t.values["sli2.12"].tolist() == [0.0]

    def test_grid_walk(self):
        cfg = ExperimentConfig(
            systems=("binary16",), sweep_min=1.0, sweep_max=2.0, sweep_step=0.5
        )
        t = repr_error_sweep(cfg)
        assert t.key.tolist() == [1.0, 1.5, 2.0]

    def test_zero_in_range_rejected(self):
        cfg = ExperimentConfig(systems=("binary16",), sweep_min=-1.0, sweep_max=1.0)
        with pytest.raises(ValueError):
            repr_error_sweep(cfg)
        # The grid's last point may pass sweep_max by 1e-9 steps, here onto 0.
        cfg = ExperimentConfig(
            systems=("binary16",), sweep_min=-1.0, sweep_max=-1e-12, sweep_step=1.0)
        with pytest.raises(ValueError, match="exclude zero"):
            repr_error_sweep(cfg)

    def test_float_overflow_flags_inf(self):
        cfg = ExperimentConfig(
            systems=("toy5", "sli2.12u"),
            sweep_min=14.5,
            sweep_max=16.0,
            sweep_step=0.5,
        )
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
        cfg = ExperimentConfig(systems=systems, sweep_min=lo, sweep_max=hi, sweep_step=step)
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
        cfg = ExperimentConfig(
            systems=("sli2.12",), sweep_min=0.5, sweep_max=4.0, sweep_step=0.01
        )
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


class TestSimulateMatvec:
    @pytest.mark.parametrize(
        "system", ["sli2.12", "sli1.4", "sli3.3", "binary16", "bfloat16", "toy5"])
    def test_rows_match_scalar_ops_bit_for_bit(self, system):
        fmt = resolve_system(system)
        # n = 60 and 70 run as several column blocks with a partial last one.
        cases = [(24, 0.0, 100.0), (40, 0.0, 1e4), (12, 0.0, 1e-3), (16, 0.0, 1.0),
                 (70, 0.0, 100.0)]
        if fmt.signed:
            cases += [(20, -100.0, 100.0), (60, -100.0, 100.0)]
        for n, lo, hi in cases:
            rng = np.random.default_rng([n, 5])
            a = rng.uniform(lo, hi, size=(n, n))
            x = rng.uniform(0.0, 1.0, size=n)
            a[rng.random((n, n)) < 0.1] = 0.0  # exact zero products
            if lo < 0.0:
                x *= rng.choice([-1.0, 1.0], size=n)
                # Row 2 cancels exactly after two terms, row 3 halfway.
                x[1] = x[0]
                a[2, 1], a[2, 2:] = -a[2, 0], 0.0
                a[3, 1] = -a[3, 0]
            want = _matvec_by_rows(fmt, a, x)
            got = _simulate_matvec(fmt, a, x)
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (n, lo, hi)
            if lo < 0.0:
                assert want[2] == 0.0
            if fmt == BINARY16 and hi == 1e4:
                assert math.isinf(max(want))  # row sums past 65504

    def test_few_sli_roundings_fall_back(self, monkeypatch):
        # Lanes near a tie are redone by the scalar op; on the seeded
        # n = 200 wide-entry inputs fewer than 0.1% of roundings may be,
        # which keeps the tie band from growing wide unnoticed.
        masks = []
        redo = _Lanes.redo

        def counting(lanes, mask, op):
            masks.append(mask)
            return redo(lanes, mask, op)

        monkeypatch.setattr(_Lanes, "redo", counting)
        matvec_backward_error(ExperimentConfig(systems=("sli2.12",), dims=(200,), hi=100.0))
        roundings = sum(m.size for m in masks)
        assert roundings > 3 * 200 * 200  # x, A, the products and the sums
        assert sum(map(np.count_nonzero, masks)) < 1e-3 * roundings

    def test_multi_block_cases_end_in_a_partial_block(self):
        for n in (60, 70):
            cols = _LANE_BUDGET // n
            assert 1 < cols < n and n % cols != 0

    @pytest.mark.parametrize("system", ["sli2.12u", "toy5"])
    def test_unsigned_rejects_negative_entries(self, system):
        a = np.array([[1.0, 2.0], [3.0, -4.0]])
        with pytest.raises(ValueError, match="unsigned"):
            _simulate_matvec(resolve_system(system), a, np.array([0.5, 0.25]))

    def test_identity_product_is_exact(self):
        a = np.array([[1.0]])
        x = np.array([0.5])
        assert _simulate_matvec(TOY5, a, x).tolist() == [0.5]
        assert _simulate_matvec(BINARY16, a, x).tolist() == [0.5]
        got = _simulate_matvec(F, a, x)
        assert got.tolist() == [decode(encode(0.5, F))]

    def test_row_sum_in_binary64_exact_case(self):
        # all entries exactly representable: the float path is exact
        a = np.array([[0.5, 0.25], [1.0, 2.0]])
        x = np.array([2.0, 4.0])
        assert _simulate_matvec(BINARY16, a, x).tolist() == [2.0, 10.0]


class TestMatvecBackwardError:
    def test_deterministic(self):
        cfg = ExperimentConfig(systems=("binary16", "sli2.12"), dims=(3, 7))
        a = matvec_backward_error(cfg)
        b = matvec_backward_error(cfg)
        assert _rows(a) == _rows(b)

    def test_substreams_are_per_dimension(self):
        solo = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(4,))
        )
        pair = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(2, 4))
        )
        assert _rows(pair)[1] == _rows(solo)[0]

    def test_errors_are_small_at_toy_size(self):
        cfg = ExperimentConfig(systems=("binary16", "sli2.12"), dims=(5,))
        ((_, *errs),) = _rows(matvec_backward_error(cfg))
        for v in errs:
            assert 0.0 <= v < 1e-2

    def test_seed_changes_data(self):
        a = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(6,), seed=1)
        )
        b = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(6,), seed=2)
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
        # value a key or an error can take.
        monkeypatch.setattr(experiments, "_CHUNK_ROWS", 3)
        key = [1.0, -0.0, 0.0, -2.5, math.inf, -math.inf, math.nan, 5e-324,
               0.1, 1e300, -1e-300, 65504.0]
        errs = [0.0, -0.0, math.inf, 2.0**-53, 1.0 / 3.0, 5e-324, 0.1, 1e22,
                1e-7, 1e16, 123456789.0, 7.0]
        path = tmp_path / "t.dat"
        emit_dat(ErrorTable(key, {"a": errs}), ["x", "a"], path)
        want = "x a\n" + "".join(
            f"{_field_text(k)} {_field_text(e)}\n" for k, e in zip(key, errs))
        assert path.read_text() == want
        assert "-0" not in path.read_text().split()

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
    ])
    def test_dat_bytes_are_pinned(self, tmp_path, capsys, argv, sha256):
        """The .dat bytes of three runs, pinned by SHA-256.

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

    def test_no_floating_point_warnings(self, tmp_path, capsys):
        # The lanes run exp, log and divisions on every lane, dead ones
        # (zero operands, finished ladders) included; none of that may
        # surface as a numpy warning.
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
        monkeypatch.setattr(experiments, "_cmd_" + command.replace("-", "_"),
                            lambda args: seen.append(args) or 0)
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag} = {text}\n")
        assert cli([command]) == 0
        assert cli([command, f"--{flag}", text]) == 0
        assert cli([command, "--config", str(conf)]) == 0
        default, from_flag, from_config = (getattr(args, flag) for args in seen)
        assert from_flag == from_config == value != default

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

    def test_non_finite_encode_is_domain_error(self, capsys):
        assert cli(["encode", "sli2.12", "inf"]) == 1

    def test_unsorted_dims_is_domain_error(self, capsys):
        assert cli(["matvec", "--dims", "5,2", "--out", "/dev/null"]) == 1
