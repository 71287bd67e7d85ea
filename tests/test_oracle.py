"""The four ops against bench/oracle.py, the 80-digit reference that
rounds once (nearest index, ties away) as the README promises: a seeded
sli2.12 sample through the scalar ops and the lanes, and every sli2.4
pair through the lanes against the oracle's pinned digest.  The oracle
is imported from bench/, not copied."""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from sliarith import lanes
from sliarith.arith import add, div, mul, sub
from sliarith.core import BitWord, SliFormat, _from_key, _key, next_up, pack, unpack

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


class TestSli212Sample:
    """20 000 seeded sli2.12 ops, word for word against the oracle."""

    FMT = SliFormat(2, 12)

    @staticmethod
    def pairs() -> list[tuple[int, int]]:
        """Half uniform word pairs, half a word against its next_up with
        random sign flips (near and exact-neighbour cancellation), then a
        zero or negative zero against random words, and pairs of the 16
        largest and 16 smallest magnitudes (products and quotients that
        saturate): 5 000 pairs."""
        fmt = TestSli212Sample.FMT
        rng = random.Random(17)

        def word(n: int = 1 << 16, base: int = 0) -> int:
            return base + int(rng.random() * n)

        def signed(w: int) -> int:
            return w ^ 0x8000 if rng.random() < 0.5 else w

        pairs = [(word(), word()) for _ in range(2400)]
        for _ in range(2400):
            x = word(0x7FFE, 1)  # positive and below the top, so next_up exists
            y = pack(next_up(unpack(BitWord(x, 16), fmt))).bits
            pairs.append((signed(x), signed(y)))
        for zero in (0, 0x8000):
            for _ in range(25):
                w = word()
                pairs += [(zero, w), (w, zero)]
        ends = (0x7FFF, 0x3FFF)  # the largest and the smallest magnitude
        for _ in range(25):
            pairs += [(signed(word(16, a - 15)), signed(word(16, b - 15)))
                      for a in ends for b in ends]
        return pairs

    @pytest.fixture(scope="class")
    def sample(self) -> tuple[list[tuple[int, int]], dict[str, list[int | None]]]:
        """The pairs and the oracle's word for each op, None for x / 0."""
        oracle = SliOracle(2, 12)
        pairs = self.pairs()
        want = {}
        for op in OPS:
            want[op] = []
            for x, y in pairs:
                try:
                    want[op].append(oracle.op(op, x, y))
                except ZeroDivisionError:
                    want[op].append(None)
        return pairs, want

    def test_sample_shape(self, sample):
        pairs, want = sample
        assert len(pairs) * len(OPS) == 20_000
        assert want["div"].count(None) == sum(y & 0x7FFF == 0 for _, y in pairs) > 0
        top, bottom = 0x7FFF, 0x3FFF  # saturation at both ends
        assert top in want["mul"] and bottom in want["mul"]
        assert 0 in want["sub"]  # exact cancellation

    def test_scalar_ops_match_the_oracle(self, sample):
        pairs, want = sample
        nums = {w: unpack(BitWord(w, 16), self.FMT) for pair in pairs for w in pair}
        misses = []
        for op, fn in OPS.items():
            for (x, y), w in zip(pairs, want[op]):
                try:
                    got = pack(fn(nums[x], nums[y])).bits
                except ZeroDivisionError:
                    got = None
                if got != w:
                    misses.append(f"{op} {x:#06x} {y:#06x}: {got} != oracle {w}")
        assert not misses, f"{len(misses)} misses, first {misses[:5]}"

    def test_lanes_match_the_oracle(self, sample):
        pairs, want = sample
        x, y = np.array(pairs).T
        misses = []
        for op in OPS:
            live = (y & 0x7FFF != 0) if op == "div" else np.ones(len(pairs), bool)
            got = _words(_lane_op(op, _keys(x[live], self.FMT), _keys(y[live], self.FMT),
                                  self.FMT), self.FMT)
            w = np.array(want[op], dtype=object)[live].astype(np.int64)
            for i in np.flatnonzero(got != w):
                misses.append(f"{op} {x[live][i]:#06x} {y[live][i]:#06x}: "
                              f"{got[i]} != oracle {w[i]}")
        assert not misses, f"{len(misses)} misses, first {misses[:5]}"


class TestSli24Exhaustive:
    """Every sli2.4 word pair (the paper's 8-bit format) through the lanes,
    against the digest of the oracle's words that tools/oracle_digest.py
    prints.  The oracle takes about 20 s for them, so only a mismatch
    runs it, to name the first pair that differs."""

    FMT = SliFormat(2, 4)
    DIGEST = "0108c38fbf82d75bf15e159442da2a3d77bb25c485d5f30699feb4af08c678e2"

    def test_lane_results_are_the_oracles_words(self):
        keys = _keys(range(1 << self.FMT.width), self.FMT)
        results = []
        for op in oracle_digest.OPS:
            x, y = np.array(oracle_digest.pairs(op)).T
            results.append(_words(_lane_op(op, keys[x], keys[y], self.FMT), self.FMT)
                           .astype(np.uint8))
        if oracle_digest.digest(results) == self.DIGEST:
            return
        oracle = SliOracle(self.FMT.level_bits, self.FMT.index_bits)
        for op, words in zip(oracle_digest.OPS, results):
            for (x, y), got in zip(oracle_digest.pairs(op), words.tolist()):
                want = oracle.op(op, x, y)
                if got != want:
                    pytest.fail(f"{op} {x:#04x} {y:#04x}: the lanes give {got:#04x}, "
                                f"the oracle {want:#04x}")
        pytest.fail("every pair is the oracle's word, but the digest differs from the pin")
