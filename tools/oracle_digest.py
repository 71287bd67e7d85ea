"""The 80-digit oracle's results over every sli2.4 word pair, as one SHA-256.

    python3 tools/oracle_digest.py

sli2.4 is the paper's 8-bit format: sign, reciprocal flag, 2 level bits
and 4 index bits.  For add, sub, mul and div in turn, every pair (x, y)
of its 256 words in word order (x outer, y inner) is rounded with
bench/oracle.py, and each result word is hashed as one byte; div skips
the pairs whose divisor is zero, the words 0x00 and 0x80.  The script
prints the digest, which tests/test_oracle.py pins and compares with the
lanes' results in under a second.  The oracle takes 20-26 s for the
261 632 results on a 2-core Xeon.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEVEL_BITS, INDEX_BITS = 2, 4
WIDTH = 2 + LEVEL_BITS + INDEX_BITS
OPS = ("add", "sub", "mul", "div")


def load_oracle():
    """bench/oracle.py as a module; it is written without sliarith."""
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs(op: str) -> list[tuple[int, int]]:
    """The word pairs of op in digest order: every pair, but for div those
    with a zero divisor."""
    payload = (1 << (WIDTH - 1)) - 1
    words = range(1 << WIDTH)
    return [(x, y) for x in words for y in words if op != "div" or y & payload]


def digest(results) -> str:
    """SHA-256 of the result words of each op in OPS order, one byte each."""
    h = hashlib.sha256()
    for words in results:
        h.update(bytes(words))
    return h.hexdigest()


def main() -> None:
    oracle = load_oracle().SliOracle(LEVEL_BITS, INDEX_BITS)
    print(digest([oracle.op(op, x, y) for x, y in pairs(op)] for op in OPS))


if __name__ == "__main__":
    main()
