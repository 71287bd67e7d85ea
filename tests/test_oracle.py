"""The four ops against bench/oracle.py, the 80-digit reference that
rounds once (nearest index, ties away) as the README promises: a seeded
sli2.12 sample through the scalar ops and the lanes and every sli2.4
pair through the lanes, each against the oracle's pinned digest, and
the sli2.20 and sli2.24 near-tie corpus.  The oracle is imported from
bench/, not copied."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sliarith import lanes
from sliarith.arith import add, div, mul, sub
from sliarith.core import BitWord, SliFormat, _from_key, _key, pack, unpack

_spec = importlib.util.spec_from_file_location(
    "oracle_digest", Path(__file__).resolve().parents[1] / "tools" / "oracle_digest.py")
oracle_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_digest)
SliOracle = oracle_digest.load_oracle().SliOracle

OPS = {"add": add, "sub": sub, "mul": mul, "div": div}


def _keys(words, fmt: SliFormat) -> np.ndarray:
    """The lane key of each word, through the scalar codec."""
    return np.array([_key(unpack(BitWord(int(w), fmt.width), fmt)) for w in words])


def _words(keys: np.ndarray, fmt: SliFormat) -> np.ndarray:
    """The packed word of each lane key, through the scalar codec."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([pack(_from_key(fmt, int(k))).bits for k in distinct])[inverse]


def _lane_op(op: str, x: np.ndarray, y: np.ndarray, fmt: SliFormat) -> np.ndarray:
    """x op y per lane of nonzero-divisor keys.  sub adds -y; div multiplies
    by 1/y, whose key flips y's reciprocal flag exactly:
    sign * (2**(level_bits + index_bits + 1) - |key|)."""
    if op == "sub":
        y = -y
    elif op == "div":
        y = np.sign(y) * ((2 << (fmt.level_bits + fmt.index_bits)) - np.abs(y))
    return (lanes.mul if op in ("mul", "div") else lanes.add)(x, y, fmt)


def _check_pin(fmt: SliFormat, pin: str, op_pairs: dict[str, list[tuple[int, int]]],
               results: dict[str, list[int]], who: str) -> None:
    """Pass where the digest of results, each op's words over its pairs in
    op_pairs, is the pin that tools/oracle_digest.py prints; else run the
    oracle, and fail at the first pair whose word is not the oracle's."""
    ops = oracle_digest.OPS
    if oracle_digest.digest([results[op] for op in ops], fmt.width) == pin:
        return
    oracle = SliOracle(fmt.level_bits, fmt.index_bits)
    hex_width = 2 + fmt.width // 4
    for op in ops:
        for (x, y), got in zip(op_pairs[op], results[op]):
            want = oracle.op(op, x, y)
            if got != want:
                pytest.fail(f"{op} {x:#0{hex_width}x} {y:#0{hex_width}x}: {who} give "
                            f"{got:#0{hex_width}x}, the oracle {want:#0{hex_width}x}")
    pytest.fail("every pair is the oracle's word, but the digest differs from the pin")


class TestSli212Sample:
    """20 000 seeded sli2.12 ops, the sample of tools/oracle_digest.py,
    against the digest of the oracle's words that the tool prints.  The
    oracle takes about 3 s for them, so only a mismatch runs it, to name
    the first pair that differs."""

    FMT = oracle_digest.SAMPLE_FMT
    DIGEST = "10732d78fe86f064672ad0b6faac7dd4e8bedea82349751d264d7145999fc6b2"

    @pytest.fixture(scope="class")
    def sample(self) -> tuple[list[tuple[int, int]], dict[str, list[tuple[int, int]]]]:
        """The pairs, and per op the pairs it takes: div takes none with a
        zero divisor."""
        pairs = oracle_digest.sample_pairs()
        return pairs, {op: oracle_digest.divisible(op, pairs, self.FMT.width) for op in OPS}

    @pytest.fixture(scope="class")
    def scalar_words(self, sample) -> dict[str, list[int]]:
        """The scalar ops' word for each op's pairs."""
        pairs, op_pairs = sample
        nums = {w: unpack(BitWord(w, 16), self.FMT) for pair in pairs for w in pair}
        return {op: [pack(fn(nums[x], nums[y])).bits for x, y in op_pairs[op]]
                for op, fn in OPS.items()}

    def test_sample_shape(self, sample, scalar_words):
        pairs, op_pairs = sample
        assert len(pairs) * len(OPS) == 20_000
        assert len(pairs) - len(op_pairs["div"]) == sum(y & 0x7FFF == 0 for _, y in pairs) > 0
        top, bottom = 0x7FFF, 0x3FFF  # saturation at both ends
        assert top in scalar_words["mul"] and bottom in scalar_words["mul"]
        assert 0 in scalar_words["sub"]  # exact cancellation

    def test_scalar_ops_match_the_oracle(self, sample, scalar_words):
        pairs, op_pairs = sample
        for x, y in pairs:
            if not y & 0x7FFF:  # the oracle refuses these too
                with pytest.raises(ZeroDivisionError):
                    div(unpack(BitWord(x, 16), self.FMT), unpack(BitWord(y, 16), self.FMT))
        _check_pin(self.FMT, self.DIGEST, op_pairs, scalar_words, "the scalar ops")

    def test_lanes_match_the_oracle(self, sample):
        _, op_pairs = sample
        results = {}
        for op in OPS:
            x, y = np.array(op_pairs[op]).T
            results[op] = _words(_lane_op(op, _keys(x, self.FMT), _keys(y, self.FMT), self.FMT),
                                 self.FMT).tolist()
        _check_pin(self.FMT, self.DIGEST, op_pairs, results, "the lanes")


class TestSli24Exhaustive:
    """Every sli2.4 word pair (the paper's 8-bit format) through the lanes,
    against the digest of the oracle's words that tools/oracle_digest.py
    prints.  The oracle takes about 20 s for them, so only a mismatch
    runs it, to name the first pair that differs."""

    FMT = SliFormat(2, 4)
    DIGEST = "0108c38fbf82d75bf15e159442da2a3d77bb25c485d5f30699feb4af08c678e2"

    def test_lane_results_are_the_oracles_words(self):
        keys = _keys(range(1 << self.FMT.width), self.FMT)
        op_pairs = {op: oracle_digest.pairs(op) for op in oracle_digest.OPS}
        results = {}
        for op, pairs in op_pairs.items():
            x, y = np.array(pairs).T
            results[op] = _words(_lane_op(op, keys[x], keys[y], self.FMT), self.FMT).tolist()
        _check_pin(self.FMT, self.DIGEST, op_pairs, results, "the lanes")


class TestNearTies:
    """The near-tie corpus of tests/near_ties.txt: sli2.20 and sli2.24
    add/sub pairs whose unrounded result lies within 1e-11 of a rounding
    tie, found by tools/near_ties.py in 10**7 seeded pairs of each
    format.  There a lane must give the scalar op's word."""

    PATH = Path(__file__).with_name("near_ties.txt")

    @pytest.fixture(scope="class")
    def corpus(self) -> dict[str, tuple]:
        """Per format the pairs' keys x and y, the scalar add's keys and
        the pinned misses: the (x, y) whose line ends in "miss"."""
        lines = {}
        for line in self.PATH.read_text().splitlines():
            if not line.startswith("#"):
                name, *fields = line.split()
                lines.setdefault(name, []).append(fields)
        corpus = {}
        for name, rows in lines.items():
            fmt = SliFormat.from_name(name)
            x, y = np.array([row[:2] for row in rows], dtype=np.int64).T
            want = [_key(add(_from_key(fmt, a), _from_key(fmt, b)))
                    for a, b in zip(x.tolist(), y.tolist())]
            pinned = {(int(a), int(b)) for a, b, *miss in rows if miss == ["miss"]}
            corpus[name] = fmt, x, y, np.array(want), pinned
        return corpus

    def test_corpus_shape(self, corpus):
        assert {name: (x.size, len(pinned)) for name, (_, x, _, _, pinned) in corpus.items()} == {
            "sli2.20": (162, 3), "sli2.24": (2488, 213)}

    def test_lanes_give_the_scalar_ops(self, corpus, perturbed_numpy):
        # Under a numpy 4 ulps off libm, every lane is the scalar op's,
        # those within 1e-11 of a tie included: the lanes take no exp or
        # log from numpy.
        for name, (fmt, x, y, want, _) in corpus.items():
            bad = np.flatnonzero(lanes.add(x, y, fmt) != want)
            assert not bad.size, f"{name}: {bad.size} lanes differ, first x={x[bad[0]]} y={y[bad[0]]}"

    def test_scalar_misses_are_pinned(self, corpus):
        # The scalar add against the oracle: a miss off the pin is a
        # regression, and a pinned pair that now matches is a correction,
        # whose "miss" mark is then dropped.
        for name, (fmt, x, y, want, pinned) in corpus.items():
            oracle = SliOracle(fmt.level_bits, fmt.index_bits)
            word = {k: pack(_from_key(fmt, k)).bits
                    for k in np.concatenate((x, y, want)).tolist()}
            misses = {(a, b) for a, b, w in zip(x.tolist(), y.tolist(), want.tolist())
                      if oracle.op("add", word[a], word[b]) != word[w]}
            assert not misses - pinned, f"{name}: new misses {sorted(misses - pinned)}"
            assert not pinned - misses, f"{name}: now the oracle's {sorted(pinned - misses)}"
