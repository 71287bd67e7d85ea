"""The 80-digit oracle's results on two word-pair sets, one SHA-256 each.

    python3 tools/oracle_digest.py

sli2.4 is the paper's 8-bit format: sign, reciprocal flag, 2 level bits
and 4 index bits.  For add, sub, mul and div in turn, every pair (x, y)
of its 256 words in word order (x outer, y inner) is rounded with
bench/oracle.py.  sli2.12, the 16-bit format, is sampled: the 5 000
seeded pairs of sample_pairs go through the four ops in the same way.
Div skips the pairs whose divisor is zero.  Each result word is hashed
as one big-endian byte (sli2.4) or two (sli2.12), and the script prints
one "format digest" line per set, the digests tests/test_oracle.py pins
and compares with the scalar ops' and the lanes' results, so that the
oracle only runs on a mismatch.  The oracle takes 20-26 s for the 261 632
sli2.4 results and about 3 s for the 20 000 sli2.12 ones on a 2-core Xeon.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sliarith.core import BitWord, SliFormat, next_up, pack, unpack  # noqa: E402

LEVEL_BITS, INDEX_BITS = 2, 4
WIDTH = 2 + LEVEL_BITS + INDEX_BITS
SAMPLE_FMT = SliFormat(2, 12)
OPS = ("add", "sub", "mul", "div")


def load_oracle():
    """bench/oracle.py as a module; it is written without sliarith."""
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def divisible(op: str, pairs: list[tuple[int, int]], width: int) -> list[tuple[int, int]]:
    """The pairs op takes: every pair, but for div those with a zero divisor."""
    payload = (1 << (width - 1)) - 1
    return [(x, y) for x, y in pairs if op != "div" or y & payload]


def pairs(op: str) -> list[tuple[int, int]]:
    """The sli2.4 word pairs of op in digest order."""
    words = range(1 << WIDTH)
    return divisible(op, [(x, y) for x in words for y in words], WIDTH)


def sample_pairs() -> list[tuple[int, int]]:
    """The sli2.12 sample: half uniform word pairs, half a word against
    its next_up with random sign flips (near and exact-neighbour
    cancellation), then a zero or negative zero against random words, and
    pairs of the 16 largest and 16 smallest magnitudes (products and
    quotients that saturate): 5 000 pairs, seed 17."""
    rng = random.Random(17)

    def word(n: int = 1 << 16, base: int = 0) -> int:
        return base + int(rng.random() * n)

    def signed(w: int) -> int:
        return w ^ 0x8000 if rng.random() < 0.5 else w

    pairs = [(word(), word()) for _ in range(2400)]
    for _ in range(2400):
        x = word(0x7FFE, 1)  # positive and below the top, so next_up exists
        y = pack(next_up(unpack(BitWord(x, 16), SAMPLE_FMT))).bits
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


def digest(results, width: int = WIDTH) -> str:
    """SHA-256 of the result words of each op in OPS order, each word
    big-endian in the bytes that width bits take."""
    h = hashlib.sha256()
    for words in results:
        h.update(np.asarray(words, dtype=f">u{(width + 7) // 8}").tobytes())
    return h.hexdigest()


def main() -> None:
    sli_oracle = load_oracle().SliOracle
    oracle = sli_oracle(LEVEL_BITS, INDEX_BITS)
    print("sli2.4", digest([oracle.op(op, x, y) for x, y in pairs(op)] for op in OPS))
    fmt, sample = SAMPLE_FMT, sample_pairs()
    oracle = sli_oracle(fmt.level_bits, fmt.index_bits)
    print(fmt.name, digest(([oracle.op(op, x, y) for x, y in divisible(op, sample, fmt.width)]
                            for op in OPS), fmt.width))


if __name__ == "__main__":
    main()
