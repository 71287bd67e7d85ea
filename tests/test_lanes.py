"""Tests for sliarith.lanes at its boundary: the checks on the arrays,
empty arrays, the float branches against fl_op, the word listing
against the scalar codec, the import order of the modules that bind one
another, and the scalar modules' freedom from numpy and lanes."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sliarith import lanes
from sliarith.arith import li_add_sub, li_mul_div
from sliarith.core import (BitWord, SliFormat, SliNumber, _key, decode, log_phi10, unpack,
                           word_fields)
from sliarith.minifloat import BFLOAT16, BINARY16, TOY5, FloatFormat, fl, fl_op

F212 = SliFormat(2, 12)
F212U = SliFormat(2, 12, signed=False)


class TestEmptyLanes:
    @pytest.mark.parametrize("fmt", [F212, BINARY16], ids=str)
    def test_every_function_takes_empty_lanes(self, fmt):
        x = lanes.encode(np.array([]), fmt)
        assert x.size == 0
        assert lanes.decode(x, fmt).size == 0
        assert lanes.add(x, x, fmt).size == 0
        assert lanes.mul(x, x, fmt).size == 0

    def test_kernels_take_empty_arrays(self):
        for out in (li_add_sub(np.array([]), np.array([])),
                    li_add_sub(np.array([]), np.array([]), True),
                    *li_mul_div(np.array([]), np.array([]))):
            assert out.shape == (0,)


class TestBoundaryChecks:
    def test_two_dimensional_arrays_are_refused(self):
        values = [math.exp(0.5 / 4096), 2.0]
        assert lanes.encode(np.array(values), F212).tolist() == [16385, 19223]
        with pytest.raises(ValueError, match="1-D"):
            lanes.encode(np.array([values]), F212)
        with pytest.raises(ValueError, match="1-D"):
            lanes.encode(np.array([values]), BINARY16)
        keys = np.array([[16385, 19223]])
        for fn in (lanes.add, lanes.mul):
            with pytest.raises(ValueError, match="1-D"):
                fn(keys, keys, F212)
        with pytest.raises(ValueError, match="1-D"):
            lanes.decode(keys, F212)

    @pytest.mark.parametrize("fmt", [F212, BINARY16], ids=str)
    def test_unequal_lengths_are_refused(self, fmt):
        x = lanes.encode(np.array([2.0, 3.0]), fmt)
        y = lanes.encode(np.array([5.0]), fmt)
        for fn in (lanes.add, lanes.mul):
            with pytest.raises(ValueError, match="one length"):
                fn(x, y, fmt)
            with pytest.raises(ValueError, match="one length"):
                fn(y, x, fmt)

    def test_keys_off_the_ladder_are_refused(self):
        top = (1 << 15) - 1  # the key of sli2.12's largest value
        assert lanes.decode(np.array([top, -top]), F212).tolist() == [math.inf, -math.inf]
        ok = np.array([16385, 19223])
        for bad in (1 << 15, -(1 << 15), 1 << 20, np.iinfo(np.int64).min):
            keys = np.array([16385, bad])
            text = f"^key {bad} outside the sli2.12 ladder$"
            with pytest.raises(ValueError, match=text):
                lanes.decode(keys, F212)
            for fn in (lanes.add, lanes.mul):
                with pytest.raises(ValueError, match=text):
                    fn(ok, keys, F212)
                # x's first key off the ladder is named, before an earlier lane of y's.
                with pytest.raises(ValueError, match=text):
                    fn(keys, np.array([1 << 16, 16385]), F212)

    def test_negative_keys_in_unsigned_formats_are_refused(self):
        keys = lanes.encode(np.array([0.0, 2.0]), F212U)
        assert lanes.decode(keys, F212U).tolist() == [0.0, lanes.decode(keys, F212)[1]]
        for bad in (np.array([-1, 0]), -keys):
            with pytest.raises(ValueError, match="outside"):
                lanes.decode(bad, F212U)
            with pytest.raises(ValueError, match="outside"):
                lanes.add(keys, bad, F212U)

    def test_kernel_arrays_must_be_one_dimensional_and_of_one_length(self):
        zx, zy = np.array([2.5, 3.0]), np.array([1.5, 1.0])
        flags = np.array([True, False])
        # Scalar terms or terms of the descriptors' length are taken.
        assert li_add_sub(zx, zy, True).shape == (2,)
        assert li_add_sub(zx, zy, flags).shape == (2,)
        assert li_mul_div(zx, zy, flags)[0].shape == (2,)
        for args, kwargs in (
            ((zx, zy[:1]), {}),  # would broadcast
            ((zx[:1], zy), {}),
            ((zx[None], zy[None]), {}),  # 2-D
            ((zx, 1.5), {}),
            ((zx, zy, flags[:1]), {}),
            ((zx, zy, [True]), {}),
            ((zx, zy, np.array([[True, False]])), {}),
        ):
            for kernel in (li_add_sub, li_mul_div):
                with pytest.raises(ValueError, match="1-D descriptor arrays of one length"):
                    kernel(*args, **kwargs)
        for reciprocal_y in (np.zeros(1, bool), np.zeros((2, 2), bool)):
            with pytest.raises(ValueError, match="1-D descriptor arrays of one length"):
                li_add_sub(zx, zy, reciprocal_y=reciprocal_y)

    @pytest.mark.parametrize("fmt", [F212, F212U, BINARY16], ids=str)
    def test_strided_views_give_the_lanes_of_copies(self, fmt):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 100.0, 400) * 10.0 ** rng.integers(-3, 3, 400)
        values[::7] = 0.0
        if fmt.signed:
            values *= rng.choice([-1.0, 1.0], 400)
        view = values[::2]
        assert not view.flags.c_contiguous
        assert lanes.encode(view, fmt).tobytes() == lanes.encode(view.copy(), fmt).tobytes()
        keys = lanes.encode(values, fmt)
        x, y = keys[::2], keys[1::2]
        for fn in (lanes.add, lanes.mul):
            assert fn(x, y, fmt).tobytes() == fn(x.copy(), y.copy(), fmt).tobytes()

    def test_sli_lanes_must_be_int64_keys(self):
        with pytest.raises(ValueError, match="int64"):
            lanes.decode(np.array([16385.0]), F212)
        with pytest.raises(ValueError, match="int64"):
            lanes.mul(np.array([16385], np.int32), np.array([16385]), F212)


class TestFloatBranches:
    """lanes.add and lanes.mul on float lanes are fl_op, bit for bit."""

    @staticmethod
    def pairs(fmt, rng):
        if fmt.signed:
            raw = rng.choice([-1.0, 1.0], (2, 4000)) * 2.0 ** rng.uniform(
                fmt.e_min - fmt.precision - 1, fmt.e_max + 1, (2, 4000))
        else:
            raw = 2.0 ** rng.uniform(fmt.e_min - fmt.precision - 1, fmt.e_max + 1, (2, 4000))
        a, b = ([fl(v, fmt) for v in row] for row in raw.tolist())
        big, tiny = fmt.max_finite, 2.0 ** (fmt.e_min - fmt.precision + 1)
        specials = [
            (big, big), (big, 2.0), (math.inf, math.inf), (math.inf, -math.inf),
            (-math.inf, math.inf), (tiny, tiny), (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0),
            (-0.0, 0.0), (-0.0, 2.0), (math.inf, 0.0), (math.nan, 1.0),
        ]
        if fmt.signed:
            specials += [(-big, -big), (-big, big), (-0.0, -2.0), (-tiny, tiny), (-2.0, 2.0)]
        return a + [p for p, _ in specials], b + [q for _, q in specials]

    @pytest.mark.parametrize("fmt", [BINARY16, BFLOAT16, TOY5], ids=str)
    def test_add_and_mul_are_fl_op(self, fmt):
        a, b = self.pairs(fmt, np.random.default_rng(17))
        for fn, symbol, op in ((lanes.add, "+", float.__add__), (lanes.mul, "*", float.__mul__)):
            # An unsigned format refuses a negative result, scalar and lane
            # alike (test_negative_results_in_unsigned_formats).
            p, q = zip(*[(u, v) for u, v in zip(a, b) if fmt.signed or not op(u, v) < 0.0])
            got = fn(np.array(p), np.array(q), fmt).tolist()
            want = [fl_op(u, v, symbol, fmt) for u, v in zip(p, q)]
            assert list(map(float.hex, got)) == list(map(float.hex, want)), symbol
            assert math.inf in want and any(map(math.isnan, want))
            assert [v for v in want if v == 0.0 and math.copysign(1.0, v) < 0] or not fmt.signed
        x = np.array(a)
        assert list(map(float.hex, lanes.decode(x, fmt).tolist())) == list(map(float.hex, a))

    def test_negative_results_in_unsigned_formats(self):
        for fn, symbol, b in ((lanes.add, "+", -2.0), (lanes.mul, "*", -math.inf)):
            with pytest.raises(ValueError, match="unsigned"):
                fl_op(1.0, b, symbol, TOY5)
            with pytest.raises(ValueError, match="unsigned"):
                fn(np.array([1.0, 1.0]), np.array([1.0, b]), TOY5)

    def test_subtraction_adds_the_negated_lane(self):
        a, b = self.pairs(BINARY16, np.random.default_rng(19))
        got = lanes.add(np.array(a), -np.array(b), BINARY16).tolist()
        want = [fl_op(p, q, "-", BINARY16) for p, q in zip(a, b)]
        assert list(map(float.hex, got)) == list(map(float.hex, want))


class TestEnumerateValues:
    @pytest.mark.parametrize("raw", [False, True], ids=["cooked", "raw"])
    @pytest.mark.parametrize("name", ["sli1.3", "sli2.3u", "sli3.2", "sli2.10"])
    def test_every_word_is_the_scalar_codec_of_its_fields(self, name, raw):
        fmt = SliFormat.from_name(name)
        blocks = list(lanes.enumerate_values(fmt, raw))
        assert all(bits.size <= 2048 for bits, _, _ in blocks)
        bits, values, lgs = (np.concatenate(column).tolist() for column in zip(*blocks))
        assert bits == list(range(1 << fmt.width))
        want_values, want_lgs = [], []
        for word in bits:
            sign, reciprocal, level, index_k = word_fields(word, fmt)
            if not raw and reciprocal < 0 and level == 1 and index_k == 0:
                want_values.append(0.0)
                want_lgs.append(-math.inf)
                continue
            num = SliNumber.of(fmt, sign, reciprocal, level, index_k)  # raw 1/1 reads as one
            want_values.append(decode(num))
            want_lgs.append(log_phi10(num.zeta) * num.reciprocal)
        assert list(map(float.hex, values)) == list(map(float.hex, want_values))
        assert list(map(float.hex, lgs)) == list(map(float.hex, want_lgs))
        # Raw, the all-zeros payload reads as one under either sign bit.
        zeros = [0, 1 << (fmt.width - 1)] if fmt.signed else [0]
        assert [values[w] for w in zeros] == [(1.0 - 2.0 * (w > 0)) if raw else 0.0 for w in zeros]

    def test_raw_changes_nothing_for_a_float_format(self):
        fmt = FloatFormat.from_name("b8e15")
        cooked, raw = list(lanes.enumerate_values(fmt)), list(lanes.enumerate_values(fmt, raw=True))
        assert len(cooked) == len(raw) > 1
        for a, b in zip(cooked, raw):
            assert [column.tobytes() for column in a] == [column.tobytes() for column in b]


def test_no_raw_zeta_reaches_the_rounding(monkeypatch):
    # The lane rounding has no raw case: every caller hands it zero, a
    # zeta >= 1 or inf, never a raw value in (0, 1).  Every word pair
    # of a signed and an unsigned format, and encode across the range.
    seen = []
    materialize = lanes._materialize_lanes

    def spy(fmt, sign, reciprocal, zeta):
        seen.append(zeta.copy())
        return materialize(fmt, sign, reciprocal, zeta)

    monkeypatch.setattr(lanes, "_materialize_lanes", spy)
    rng = np.random.default_rng(21)
    for fmt in (SliFormat(1, 4), SliFormat(2, 4, signed=False)):
        keys = np.array([_key(unpack(BitWord(b, fmt.width), fmt)) for b in range(1 << fmt.width)])
        x, y = np.repeat(keys, keys.size), np.tile(keys, keys.size)
        lanes.add(x, y, fmt)
        lanes.mul(x, y, fmt)
        values = 10.0 ** rng.uniform(-323.0, 308.0, 5000)
        values = np.concatenate((values, [0.0, 1.0, 5e-324, 2.5e-310, 1.0 - 2.0**-53,
                                          1.0 + 2.0**-52, 1.7e308]))
        if fmt.signed:
            values *= rng.choice([-1.0, 1.0], values.size)
        lanes.encode(values, fmt)
    zeta = np.concatenate(seen)
    assert len(seen) == 6 and zeta.size > 2 * (1 << 14)
    assert np.count_nonzero(zeta == 0.0) and np.count_nonzero(zeta == 1.0)
    assert not np.count_nonzero((zeta > 0.0) & (zeta < 1.0))


@pytest.mark.parametrize("module", ["core", "minifloat"])
def test_scalar_module_imports_neither_numpy_nor_lanes(module):
    # The bulk path lives in lanes; core and minifloat work one value at a
    # time, so neither may pull in numpy or lanes, under any spelling.
    tree = ast.parse(Path(lanes.__file__).with_name(f"{module}.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [base] + [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
    bad = [n for n in names if n.split(".")[0] == "numpy" or "lanes" in n.split(".")]
    assert not bad, f"sliarith.{module} imports {bad}"


@pytest.mark.parametrize("module", ["lanes", "core", "arith", "minifloat", "experiments"])
def test_import_order(module):
    # core and arith bind each other, and so do arith and lanes, one of
    # each pair at its end; whichever is imported first, the package
    # comes up whole.
    code = (f"import sliarith.{module}, sys; "
            "assert callable(sys.modules['sliarith'].lanes.encode)")
    env = {**os.environ, "PYTHONPATH": str(Path(lanes.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
