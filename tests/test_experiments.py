"""Tests for the experiment harness, .dat serialization, and the CLI."""

import math
import time

import numpy as np
import pytest

from sliarith import arith
from sliarith.core import SliFormat, SliNumber, decode, encode
from sliarith.experiments import (
    _LANE_BUDGET,
    MAX_DIM,
    SLI_COLUMN,
    ErrorRecord,
    ExperimentConfig,
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


class TestErrorRecord:
    def test_accepts_inf(self):
        r = ErrorRecord(3.0, {"a": 0.0, "b": math.inf})
        assert r.values["b"] == math.inf

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            ErrorRecord(1.0, {"a": -1e-9})
        with pytest.raises(ValueError):
            ErrorRecord(1.0, {"a": math.nan})


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
        (rec,) = repr_error_sweep(cfg)
        assert rec.values == {"binary16": 0.0, "sli2.12": 0.0}

    def test_e_is_exact_in_sli(self):
        # psi(e) = 2 exactly, a grid point of every SLI format
        cfg = ExperimentConfig(
            systems=("sli2.12",), sweep_min=math.e, sweep_max=math.e, sweep_step=1.0
        )
        (rec,) = repr_error_sweep(cfg)
        assert rec.values["sli2.12"] == 0.0

    def test_grid_walk(self):
        cfg = ExperimentConfig(
            systems=("binary16",), sweep_min=1.0, sweep_max=2.0, sweep_step=0.5
        )
        recs = repr_error_sweep(cfg)
        assert [r.key for r in recs] == [1.0, 1.5, 2.0]

    def test_zero_in_range_rejected(self):
        cfg = ExperimentConfig(systems=("binary16",), sweep_min=-1.0, sweep_max=1.0)
        with pytest.raises(ValueError):
            repr_error_sweep(cfg)

    def test_float_overflow_flags_inf(self):
        cfg = ExperimentConfig(
            systems=("toy5", "sli2.12u"),
            sweep_min=14.5,
            sweep_max=16.0,
            sweep_step=0.5,
        )
        recs = repr_error_sweep(cfg)
        flags = [math.isinf(r.values["toy5"]) for r in recs]
        assert flags == [False, True, True, True]  # overflow starts at 15.0
        assert all(math.isfinite(r.values["sli2.12u"]) for r in recs)

    def test_sli_error_bounded_by_index_quantum(self):
        cfg = ExperimentConfig(
            systems=("sli2.12",), sweep_min=0.5, sweep_max=4.0, sweep_step=0.01
        )
        for rec in repr_error_sweep(cfg):
            assert rec.values["sli2.12"] <= math.e * 2.0**-13 * 1.01


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
        assert _simulate_matvec(TOY5, a, x) == [0.5]
        assert _simulate_matvec(BINARY16, a, x) == [0.5]
        got = _simulate_matvec(F, a, x)
        assert got == [decode(encode(0.5, F))]

    def test_row_sum_in_binary64_exact_case(self):
        # all entries exactly representable: the float path is exact
        a = np.array([[0.5, 0.25], [1.0, 2.0]])
        x = np.array([2.0, 4.0])
        assert _simulate_matvec(BINARY16, a, x) == [2.0, 10.0]


class TestMatvecBackwardError:
    def test_deterministic(self):
        cfg = ExperimentConfig(systems=("binary16", "sli2.12"), dims=(3, 7))
        a = matvec_backward_error(cfg)
        b = matvec_backward_error(cfg)
        assert [(r.key, r.values) for r in a] == [(r.key, r.values) for r in b]

    def test_substreams_are_per_dimension(self):
        solo = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(4,))
        )
        pair = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(2, 4))
        )
        assert pair[1].key == 4.0
        assert pair[1].values == solo[0].values

    def test_errors_are_small_at_toy_size(self):
        cfg = ExperimentConfig(systems=("binary16", "sli2.12"), dims=(5,))
        (rec,) = matvec_backward_error(cfg)
        for v in rec.values.values():
            assert 0.0 <= v < 1e-2

    def test_seed_changes_data(self):
        a = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(6,), seed=1)
        )
        b = matvec_backward_error(
            ExperimentConfig(systems=("binary16",), dims=(6,), seed=2)
        )
        assert a[0].values != b[0].values


class TestDatFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "t.dat"
        records = [
            ErrorRecord(1.0, {"a": 0.1234567890123456789, "b": 0.0}),
            ErrorRecord(2.5, {"a": math.inf, "b": 2.0**-53}),
        ]
        emit_dat(records, ["x", "a", "b"], path)
        header, rows = read_dat(path)
        assert header == ["x", "a", "b"]
        assert rows[0] == [1.0, 0.1234567890123456789, 0.0]
        assert rows[1] == [2.5, math.inf, 2.0**-53]

    def test_header_text_verbatim(self, tmp_path):
        path = tmp_path / "t.dat"
        emit_dat([ErrorRecord(1.0, {"m": 0.5})], ["n", "level-index"], path)
        first = path.read_text().splitlines()[0]
        assert first == "n level-index"

    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "t.dat"
        emit_dat([], ["x", "a"], path)
        assert path.read_text() == "x a\n"
        header, rows = read_dat(path)
        assert header == ["x", "a"] and rows == []

    def test_column_count_must_match(self, tmp_path):
        path = tmp_path / "t.dat"
        with pytest.raises(ValueError):
            emit_dat([ErrorRecord(1.0, {"a": 0.0})], ["x", "a", "b"], path)

    def test_inconsistent_records_rejected(self, tmp_path):
        path = tmp_path / "t.dat"
        records = [
            ErrorRecord(1.0, {"a": 0.0}),
            ErrorRecord(2.0, {"b": 0.0}),
        ]
        with pytest.raises(ValueError):
            emit_dat(records, ["x", "a"], path)

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

    def test_non_finite_encode_is_domain_error(self, capsys):
        assert cli(["encode", "sli2.12", "inf"]) == 1

    def test_unsorted_dims_is_domain_error(self, capsys):
        assert cli(["matvec", "--dims", "5,2", "--out", "/dev/null"]) == 1
