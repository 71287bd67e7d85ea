"""Seeded search for sli2.20 and sli2.24 add/sub pairs whose unrounded
result lies within NEAR of a rounding tie, written as lane keys.

    python3 tools/near_ties.py

For each format, PAIRS signed word pairs go through lanes.add(x, y) in
chunks: half are two uniform words, half a uniform word against a
neighbour 1-3 ranks away, each with a random sign, so sums and
differences (x - y is x + (-y)) of near and exact neighbours are both
drawn.  A spy on lanes._materialize_lanes takes the unrounded zeta of
every lane, which is the scalar add's (both run the compiled kernel),
and each lane within NEAR of a tie, level + (k + 1/2) / 2**index_bits
below the last (past which every zeta saturates), is kept.

The pairs are written to tests/near_ties.txt, one "format x y" line of
lane keys (core._key) each, which tests/test_oracle.py reads.  A line
ends in "miss" where the scalar add is not the word bench/oracle.py
rounds, so the misses are pinned and a correction can only remove them.  On a
2-core Xeon the search takes about 11 s and finds 162 sli2.20 and 2 488
sli2.24 pairs: a third of the uniform pairs are absorbed onto the grid.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from oracle_digest import load_oracle  # noqa: E402
from sliarith import arith, lanes  # noqa: E402
from sliarith.core import SliFormat, _from_key, _key_of, pack, word_fields  # noqa: E402

FORMATS = {"sli2.20": 2020, "sli2.24": 2024}  # format: seed
PAIRS, CHUNK = 10_000_000, 200_000
NEAR = 1e-11  # in zeta
OUT = ROOT / "tests" / "near_ties.txt"


def tie_distance(zeta: np.ndarray, fmt: SliFormat) -> np.ndarray:
    """Distance of each zeta to the nearest rounding tie, inf where no tie
    decides the rounding (zero, saturated, inf or NaN zeta)."""
    t = zeta * fmt.index_scale  # exact: a power-of-two scaling
    off = np.abs(t - np.floor(t) - 0.5) / fmt.index_scale
    live = (zeta >= 1.0) & (zeta < fmt.max_level + (fmt.index_scale - 1) / fmt.index_scale)
    return np.where(live, off, np.inf)


def draw(rng: np.random.Generator, fmt: SliFormat, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n key pairs: the first half uniform words, the second a uniform
    nonzero word against a neighbour 1-3 ranks away, random signs."""
    def words(size):
        bits = rng.integers(0, 1 << fmt.width, size)
        sign, reciprocal, level, index_k = word_fields(bits, fmt)
        zero = (bits & ((1 << (fmt.width - 1)) - 1)) == 0
        return np.where(zero, 0, _key_of(fmt, sign, reciprocal, level, index_k))

    half = n // 2
    x, y = words(n), words(n)
    top = (2 << (fmt.level_bits + fmt.index_bits)) - 1  # the largest key
    mag = np.maximum(np.abs(x[half:]), 1)
    step = rng.integers(1, 4, n - half) * rng.choice([-1, 1], n - half)
    near = np.clip(mag + step, 1, top)
    near = np.where(near == mag, mag - step, near)  # clipped onto itself: step the other way
    x[half:] = mag * rng.choice([-1, 1], n - half)
    y[half:] = near * rng.choice([-1, 1], n - half)
    return x, y


def lane_zeta(x: np.ndarray, y: np.ndarray, fmt: SliFormat) -> np.ndarray:
    """The unrounded zeta lanes.add(x, y) hands its rounding, per lane.
    The rounding itself is skipped: only the zeta is wanted."""
    seen = []
    materialize = lanes._materialize_lanes

    def spy(fmt, sign, reciprocal, zeta):
        seen.append(zeta.copy())
        return np.zeros(zeta.shape, np.int64)

    lanes._materialize_lanes = spy
    try:
        lanes.add(x, y, fmt)
    finally:
        lanes._materialize_lanes = materialize
    (zeta,) = seen
    return zeta


def search(name: str, seed: int) -> list[tuple[int, int]]:
    fmt = SliFormat.from_name(name)
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(PAIRS // CHUNK):
        x, y = draw(rng, fmt, CHUNK)
        near = np.flatnonzero(tie_distance(lane_zeta(x, y, fmt), fmt) <= NEAR).tolist()
        found += [(int(x[i]), int(y[i])) for i in near]
    return found


def misses(name: str, pairs: list[tuple[int, int]]) -> list[bool]:
    """Per pair, whether the scalar add differs from the oracle's word."""
    fmt = SliFormat.from_name(name)
    oracle = load_oracle().SliOracle(fmt.level_bits, fmt.index_bits)

    def word(num):
        return pack(num).bits

    return [word(arith.add(_from_key(fmt, x), _from_key(fmt, y)))
            != oracle.op("add", word(_from_key(fmt, x)), word(_from_key(fmt, y)))
            for x, y in pairs]


def main() -> None:
    lines = ["# Near-tie add/sub pairs as lane keys, \"format x y\", then \"miss\" where\n"
             "# the scalar add is not the oracle's word.  Written by tools/near_ties.py.\n"]
    for name, seed in FORMATS.items():
        pairs = search(name, seed)
        missed = misses(name, pairs)
        print(f"{name}: {len(pairs)} pairs, {sum(missed)} scalar misses")
        lines += [f"{name} {x} {y}{' miss' if m else ''}\n" for (x, y), m in zip(pairs, missed)]
    OUT.write_text("".join(lines))


if __name__ == "__main__":
    main()
