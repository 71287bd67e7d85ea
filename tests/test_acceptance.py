"""End-to-end acceptance checks.

Each test covers one headline behavior of the package, prints a single
summary line (run pytest with -s to see them all; failures carry the
line in their report), and enforces a wall-clock budget.  Expected
values are frozen here: 5-bit tables are checked against an independent
exponential-tower recomputation plus the reference listing, rounded
results against encode of the exact binary64 result, and statistical
checks against seeded streams.

The matrix-vector check also pins two measured limits of the
experiment with A from uniform(0, 100) and x from uniform(0, 1).  Row
sums sit near 25n, so binary16 cannot overflow below n ~ 65504 / 25 =
2620 and stays finite at every dimension checked; a second case with
entries up to 1e4 is where binary16 overflows and sli2.12 stays
finite.  And at n = 1000 sli2.12 rows end about 20% low through
swamping: near a running sum of 25 000 one sli2.12 gap is about 140,
so most addends of at most 100 are rounded away or up by a whole gap.
"""

import math
import time

import numpy as np
import pytest

from sliarith import arith
from sliarith.core import (
    BitWord,
    SliFormat,
    SliNumber,
    decode,
    encode,
    enumerate_values,
    log_phi10,
    magnitude_rank,
    next_up,
    pack,
    phi,
    psi,
    unpack,
)
from sliarith.experiments import (
    ExperimentConfig,
    cli,
    matvec_backward_error,
    repr_error_sweep,
)
from sliarith.minifloat import BINARY16, TOY5, fl

F212 = SliFormat(2, 12)

# Sentinels for magnitudes past binary64: checked via the log10 column.
LOG_NEG = ("log10", -1759.0, -1757.0)
LOG_POS = ("log10", 1757.0, 1759.0)

# Reference 5-bit listing: word, toy float, 1 level bit SLI, 2 level
# bit SLI (the SLI columns read raw words, ignoring the zero and
# canonical-one conventions, so all 32 rows carry magnitudes).
TABLE5 = [
    ("00000", "0", "1", "1"),
    ("00001", "0.0625", "0.8825", "0.7788"),
    ("00010", "0.125", "0.7788", "0.6065"),
    ("00011", "0.1875", "0.6873", "0.4724"),
    ("00100", "0.25", "0.6065", "0.3679"),
    ("00101", "0.3125", "0.5353", "0.2769"),
    ("00110", "0.375", "0.4724", "0.1923"),
    ("00111", "0.4375", "0.4169", "0.1204"),
    ("01000", "0.5", "0.3679", "0.06599"),
    ("01001", "0.625", "0.322", "0.02702"),
    ("01010", "0.75", "0.2769", "0.0055"),
    ("01011", "0.875", "0.2334", "2.4e-4"),
    ("01100", "1", "0.1923", "2.6e-7"),
    ("01101", "1.25", "0.1544", "8.4e-17"),
    ("01110", "1.5", "0.1204", "1.7e-79"),
    ("01111", "1.75", "0.0908", LOG_NEG),
    ("10000", "2", "1", "1"),
    ("10001", "2.5", "1.1331", "1.284"),
    ("10010", "3", "1.284", "1.6487"),
    ("10011", "3.5", "1.455", "2.117"),
    ("10100", "4", "1.6487", "2.7183"),
    ("10101", "5", "1.8682", "3.6111"),
    ("10110", "6", "2.117", "5.2003"),
    ("10111", "7", "2.3989", "8.3062"),
    ("11000", "8", "2.7183", "15.1533"),
    ("11001", "10", "3.1054", "37.0085"),
    ("11010", "12", "3.6111", "181.3313"),
    ("11011", "14", "4.2844", "4048.8237"),
    ("11100", "inf", "5.2", "3.8e6"),
    ("11101", "nan", "6.4769", "1.18e16"),
    ("11110", "nan", "8.306", "5.6387e78"),
    ("11111", "nan", "11.0108", LOG_POS),
]


def _report(name: str, failures: list[str], started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s, budget {budget:.0f}s")
    status = "PASS" if not failures else "FAIL [" + "; ".join(failures) + "]"
    print(f"acceptance {name}: {status} ({elapsed:.2f}s)")
    assert not failures, f"{name}: {'; '.join(failures)}"


def _printed_tolerance(text: str) -> float:
    """One unit in the last printed digit, treating at most four of the
    literal's significant digits as meaningful (reference listings round
    or truncate at four)."""
    mantissa = text.lower().split("e")[0].replace("-", "").replace(".", "").lstrip("0")
    digits = min(4, len(mantissa))
    magnitude = math.floor(math.log10(abs(float(text))))
    return 10.0 ** (magnitude - digits + 1)


def _tower_value(word: str, level_bits: int, index_bits: int) -> float:
    """Recompute a raw unsigned SLI word by literal exponentiation."""
    bits = int(word, 2)
    recip = bits >> (level_bits + index_bits) & 1
    level = (bits >> index_bits & ((1 << level_bits) - 1)) + 1
    k = bits & ((1 << index_bits) - 1)
    v = k / (1 << index_bits)
    for _ in range(level):
        try:
            v = math.exp(v)
        except OverflowError:
            v = math.inf
    return v if recip else (0.0 if math.isinf(v) else 1.0 / v)


def _run_table(capsys, argv: list[str]) -> dict[str, list[str]]:
    assert cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return {parts[0]: parts[1:] for parts in (ln.split() for ln in lines[1:])}


def test_01_five_bit_value_tables(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    toy = _run_table(capsys, ["table", "toy5"])
    for word, toy_text, _, _ in TABLE5:
        got = toy[word][0]
        if toy_text == "nan":
            ok = got == "nan"
        elif toy_text == "inf":
            ok = got == "inf"
        else:
            ok = float(got) == float(toy_text)
        if not ok:
            failures.append(f"toy5 {word}: printed {got}, expected {toy_text}")

    for fmt_name, col, level_bits, index_bits in (
        ("sli1.3u", 2, 1, 3),
        ("sli2.2u", 3, 2, 2),
    ):
        table = _run_table(capsys, ["table", fmt_name, "--raw"])
        for row in TABLE5:
            word, want = row[0], row[col]
            value_text, log_text = table[word]
            value = float(value_text)
            tower = _tower_value(word, level_bits, index_bits)
            if math.isinf(tower) or tower == 0.0:
                if value != tower:
                    failures.append(f"{fmt_name} {word}: {value_text} vs tower {tower}")
            elif not value == pytest.approx(tower, rel=1e-12):
                failures.append(f"{fmt_name} {word}: {value_text} vs tower {tower!r}")
            if isinstance(want, tuple):
                lo, hi = want[1], want[2]
                if not lo <= float(log_text) <= hi:
                    failures.append(
                        f"{fmt_name} {word}: log10 {log_text} outside [{lo}, {hi}]"
                    )
            else:
                tol = _printed_tolerance(want)
                if not abs(value - float(want)) <= tol:
                    failures.append(
                        f"{fmt_name} {word}: {value_text} not within {tol:g} of {want}"
                    )

    _report("01 (5-bit value tables)", failures, t0, 1.0)


def test_02_pi_encode_and_square(capsys):
    t0 = time.perf_counter()
    failures: list[str] = []

    x = encode(math.pi, F212)
    if (x.sign, x.reciprocal, x.level, x.index_k) != (1, 1, 2, 554):
        failures.append(f"encode(pi) fields {(x.sign, x.reciprocal, x.level, x.index_k)}")
    if str(pack(x)) != "0101001000101010":
        failures.append(f"encode(pi) word {pack(x)}")
    if not decode(x) == pytest.approx(3.141899100868418, rel=1e-12):
        failures.append(f"decode(encode(pi)) = {decode(x)!r}")

    sq = arith.mul(x, x)
    if (sq.level, sq.index_k) != (2, 3393):
        failures.append(f"pi*pi fields {(sq.level, sq.index_k)}")
    if not decode(sq) == pytest.approx(9.870807937639510, rel=1e-12):
        failures.append(f"decode(pi*pi) = {decode(sq)!r}")

    _report("02 (pi round trip and square)", failures, t0, 1.0)


def test_03_quantization_error_bound():
    t0 = time.perf_counter()
    failures: list[str] = []

    for fmt in (SliFormat(2, 12), SliFormat(3, 11)):
        bound = 2.0 ** -(fmt.index_bits + 1) + 1e-12
        rng = np.random.default_rng([977, fmt.level_bits, fmt.index_bits])
        exponents = rng.uniform(-300.0, 300.0, size=100_000)
        bad = 0
        worst = 0.0
        for u in exponents:
            x = 10.0 ** u
            n = encode(x, fmt)
            zeta_enc = n.level + n.index_k / fmt.index_scale
            if x >= 1.0:
                target = psi(x)
            else:
                target = 1.0 + psi(-math.log(x))
            err = abs(target - zeta_enc)
            worst = max(worst, err)
            if err > bound:
                bad += 1
        if bad:
            failures.append(
                f"{fmt.name}: {bad} of 100000 encodings off by more than "
                f"{bound:g} (worst {worst:g})"
            )

    _report("03 (index quantization bound)", failures, t0, 10.0)


def test_04_rounded_ops_match_binary64_oracle():
    t0 = time.perf_counter()
    failures: list[str] = []
    ops = [
        ("add", arith.add, lambda a, b: a + b),
        ("sub", arith.sub, lambda a, b: a - b),
        ("mul", arith.mul, lambda a, b: a * b),
        ("div", arith.div, lambda a, b: a / b),
    ]
    rng = np.random.default_rng(8451296)
    for name, fn, ref in ops:
        signs = rng.choice([-1.0, 1.0], size=(10_000, 2))
        mags = 10.0 ** rng.uniform(-6.0, 6.0, size=(10_000, 2))
        bad = 0
        for (sx, sy), (mx, my) in zip(signs, mags):
            x = encode(sx * mx, F212)
            y = encode(sy * my, F212)
            got = fn(x, y)
            want = encode(ref(decode(x), decode(y)), F212)
            if got.is_zero or want.is_zero:
                if not (got.is_zero and want.is_zero):
                    bad += 1
            elif got.sign != want.sign or abs(
                magnitude_rank(got) - magnitude_rank(want)
            ) > 1:
                bad += 1
        if bad:
            failures.append(f"{name}: {bad} of 10000 results off the binary64 oracle")

    _report("04 (operations match binary64 oracle)", failures, t0, 30.0)


def test_05_closure_on_random_words():
    t0 = time.perf_counter()
    failures: list[str] = []
    ops = [
        ("add", arith.add),
        ("sub", arith.sub),
        ("mul", arith.mul),
        ("div", arith.div),
    ]
    rng = np.random.default_rng(55_0105)
    words = rng.integers(0, 1 << F212.width, size=(100_000, 2), dtype=np.uint32)
    bad = 0
    bad_zero = 0
    for wx, wy in words:
        x = unpack(BitWord(int(wx), 16), F212)
        y = unpack(BitWord(int(wy), 16), F212)
        for name, fn in ops:
            try:
                r = fn(x, y)
            except ZeroDivisionError:
                if not (name == "div" and y.is_zero):
                    bad_zero += 1
                continue
            if name == "div" and y.is_zero:
                bad_zero += 1
                continue
            if not isinstance(r, SliNumber) or math.isnan(decode(r)):
                bad += 1
    if bad:
        failures.append(f"{bad} results failed validation or decoded to NaN")
    if bad_zero:
        failures.append(f"{bad_zero} violations of the division-by-zero contract")

    _report("05 (closure on 100000 word pairs)", failures, t0, 60.0)


def test_06_range_without_overflow():
    t0 = time.perf_counter()
    failures: list[str] = []

    # Top of the 2.12 format towers far past every binary64, while the
    # tiny 1.3 format tops out finite below the toy float's max.
    if not log_phi10(4.75) > 308.0:
        failures.append(f"log_phi10(4.75) = {log_phi10(4.75)}")
    if not log_phi10(F212.max_zeta) > 1000.0:
        failures.append(f"log_phi10(max zeta) = {log_phi10(F212.max_zeta)}")
    top13 = phi(2.875)
    if not (math.isfinite(top13) and abs(top13 - 11.0108) < 5e-4 and top13 < 14.0):
        failures.append(f"phi(2.875) = {top13!r}")

    # Saturation instead of infinity: 15 overflows the toy float but
    # clamps to the finite top of sli1.3u.
    f13 = SliFormat(1, 3, signed=False)
    sat = encode(15.0, f13)
    if math.isinf(fl(15.0, TOY5)) is not True:
        failures.append("toy float did not overflow at 15")
    if (sat.level, sat.index_k) != (2, 7) or not math.isfinite(decode(sat)):
        failures.append(f"encode(15) in sli1.3u gave {sat}")
    if decode(sat) != f13.max_value:
        failures.append(f"saturated decode {decode(sat)!r} != {f13.max_value!r}")

    _report("06 (finite range, saturation not overflow)", failures, t0, 1.0)


def test_07_representation_error_sweep():
    t0 = time.perf_counter()
    failures: list[str] = []

    cfg = ExperimentConfig(
        systems=("binary16", "sli2.12"),
        sweep_min=1.0,
        sweep_max=math.e,
        sweep_step=1e-4,
    )
    table = repr_error_sweep(cfg)
    b16 = float(table.values["binary16"].max())
    sli = float(table.values["sli2.12"].max())
    sli_bound = 1.01 * math.e * 2.0**-13
    if not sli <= sli_bound:
        failures.append(f"sli2.12 max relative error {sli:g} above {sli_bound:g}")
    if not 2.0**-12 <= b16 <= 2.0**-11:
        failures.append(f"binary16 max relative error {b16:g} not near its unit roundoff")
    if not sli < b16:
        failures.append(f"sli2.12 ({sli:g}) not below binary16 ({b16:g}) on [1, e]")

    _report("07 (representation error sweep)", failures, t0, 10.0)


def _matvec_inputs(cfg: ExperimentConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A and x as matvec_backward_error draws them for (cfg.seed, n)."""
    rng = np.random.default_rng([cfg.seed, n])
    a = rng.uniform(cfg.lo, cfg.hi, size=(n, n))
    return a, rng.uniform(0.0, 1.0, size=n)


def _sli_half_gap(fmt: SliFormat, lo: float, hi: float) -> float:
    """Largest relative half-gap (next_up(v) - v) / 2v over the
    representable v from encode(lo) up to the first one above hi.

    It bounds the relative error of rounding to nearest any magnitude
    from decode(encode(lo)) to hi: a magnitude in [v, next_up(v)] lies
    within half that gap of a neighbour and is at least v.
    """
    v, u = encode(lo, fmt), 0.0
    low = decode(v)
    while low <= hi:
        v = next_up(v)
        up = decode(v)
        u = max(u, (up - low) / (2.0 * low))
        low = up
    return u


def test_08_matvec_backward_error():
    """Wide entries, overflow against finiteness, and error growth.

    Each simulated row is y_i = sum_j a_ij x_j with a and x rounded to
    the system, every product rounded, and the sum taken left to right
    from zero: each term meets at most n + 2 roundings (two inputs, the
    product, n - 1 additions).  All terms are nonnegative, so every
    exact quantity in a row lies between the smallest and the largest
    of the entries, the products a_ij x_j and the row sums.

    binary16 (p = 11, u = 2**-11, largest finite 65504) rounds a result
    to inf once it reaches (2 - 2**-11) * 2**15 = 65520.  Under the
    model fl(t) = t(1 + d) + e, |d| <= u, with e at most half the
    subnormal quantum 2**-24, no value a row computes exceeds
    (1 + u)**(n + 2) * s + slack, and an overflow-free row ends at least
    (1 - u)**(n + 2) * s - slack, where s is the largest exact row sum
    and slack = (1 + u)**(n + 2) * n * (hi + 2) * 2**-24 covers the
    subnormal terms.  The first bound below 65520 forces binary16 to
    stay finite, the second above 65504 forces an overflow, and the
    test checks whichever one the drawn data settles; a case that
    settles neither is a failure, not a skip.  With A ~ uniform(0, 100)
    the row sums sit near 25n (27 314 at most at n = 1000), so binary16
    cannot overflow below n ~ 65504 / 25 = 2620 and stays finite at
    every n <= 1000.  The wide-entry case picks hi = 1e4 from that
    threshold: row sums near 2500n sit below 65504 at n = 10 and far
    above it at n = 100, where binary16 must overflow while sli2.12,
    which saturates instead, must stay finite.

    sli2.12 rounds every operation once (README contract), so with u
    the largest relative half-gap of sli2.12 over the magnitudes a row
    reaches, the first-order recursive-summation bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3-4)
    gives |yhat_i - y_i| <= gamma_{n+2} sum_j |a_ij x_j| with
    gamma_k = k u / (1 - k u), so the normwise backward error is at
    most gamma_{n+2} wherever (n + 2) u < 1.  Computed values then stay
    within a factor e of the exact ones and rounded inputs and products
    above half of them, so u is measured from half the smallest to
    three times the largest exact magnitude.  The binary64 reference
    adds under 1e-12.  Level-index gaps widen with magnitude: with
    hi = 100, u grows from 1.7e-3 at n = 10 to 3.6e-3 at n = 1000, so
    (n + 2) u < 1 holds at n = 10 and 100 only.  Past it the sli2.12 error is
    swamping, not a random walk: near a running sum of 25 000 one gap
    is about 140, so addends of at most 100 are rounded away or up by a
    whole gap, and the rows at n = 1000 end about 20% low.  What still
    holds at every n is the growth rule of the unit-entry half: the
    error never falls by more than 3x from one n to the next.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    u16 = 2.0**-BINARY16.precision
    b16_edge = (2.0 - u16) * 2.0**BINARY16.e_max
    quantum16 = 2.0 ** (BINARY16.e_min - BINARY16.precision + 1)

    overflowed = set()
    for hi, dims in ((100.0, (10, 100, 500, 1000)), (1e4, (10, 100))):
        cfg = ExperimentConfig(
            systems=("binary16", "sli2.12"), dims=dims, lo=0.0, hi=hi, seed=2024
        )
        sli_errs = []
        table = matvec_backward_error(cfg)
        for key, b16, sli in zip(
            table.key.tolist(),
            table.values["binary16"].tolist(),
            table.values["sli2.12"].tolist(),
        ):
            n = int(key)
            sli_errs.append(sli)
            a, x = _matvec_inputs(cfg, n)
            rows = a @ x
            s = float(rows.max())
            grow = (1.0 + u16) ** (n + 2)
            slack = grow * n * (hi + 2.0) * quantum16
            top = grow * s + slack
            bottom = (1.0 - u16) ** (n + 2) * s - slack
            if math.isinf(b16):
                overflowed.add((hi, n))
            if top < b16_edge:
                if not math.isfinite(b16):
                    failures.append(
                        f"hi={hi:g} n={n}: binary16 gave {b16} though no row "
                        f"value can pass {top:.6g} < {b16_edge:g}"
                    )
            elif bottom > BINARY16.max_finite:
                if not math.isinf(b16):
                    failures.append(
                        f"hi={hi:g} n={n}: binary16 finite ({b16:.3g}) though "
                        f"a row sum of at least {bottom:.6g} > 65504 must overflow"
                    )
            else:
                failures.append(
                    f"hi={hi:g} n={n}: largest row sum {s:.6g} settles no "
                    f"binary16 outcome (bounds {bottom:.6g}..{top:.6g})"
                )

            if not math.isfinite(sli):
                failures.append(f"hi={hi:g} n={n}: sli2.12 gave {sli}")
                continue
            terms = np.concatenate([a.ravel(), x, (a * x).ravel(), rows])
            u = _sli_half_gap(F212, float(terms.min()) / 2.0, 3.0 * float(terms.max()))
            k = (n + 2) * u
            if k < 1.0 and not sli <= k / (1.0 - k):
                failures.append(
                    f"hi={hi:g} n={n}: sli2.12 backward error {sli:.3g} above "
                    f"gamma_{n + 2} = {k / (1.0 - k):.3g} (u = {u:.3g})"
                )

        if hi == 100.0:
            for small, big in zip(sli_errs, sli_errs[1:]):
                if not big >= small / 3.0:
                    failures.append(
                        f"hi=100 sli2.12: error fell from {small:.3g} to {big:.3g}"
                    )
    if (1e4, 100) not in overflowed:
        failures.append("binary16 did not overflow in the wide-entry case at n=100")

    # Unit entries: both systems stay finite with errors that grow
    # with n, across independent seeds.
    for seed in range(2024, 2029):
        table = matvec_backward_error(
            ExperimentConfig(
                systems=("binary16", "sli2.12"),
                dims=(10, 100, 1000),
                lo=0.0,
                hi=1.0,
                seed=seed,
            )
        )
        for name in ("binary16", "sli2.12"):
            errs = table.values[name].tolist()
            if not all(math.isfinite(e) and e >= 0.0 for e in errs):
                failures.append(f"seed {seed} {name}: non-finite errors {errs}")
                continue
            for small, big in zip(errs, errs[1:]):
                if not big >= small / 3.0:
                    failures.append(
                        f"seed {seed} {name}: error fell from {small:.3g} to {big:.3g}"
                    )

    _report("08 (matrix-vector backward error)", failures, t0, 60.0)


def test_09_exhaustive_small_formats():
    t0 = time.perf_counter()
    failures: list[str] = []
    checked = 0

    for signed in (True, False):
        for level_bits in range(1, 7):
            top_index = (10 if signed else 11) - level_bits
            for index_bits in range(1, top_index + 1):
                fmt = SliFormat(level_bits, index_bits, signed=signed)
                checked += 1
                neg_zero = 1 << (fmt.width - 1) if signed else None
                seen = set()
                for bits in range(1 << fmt.width):
                    n = unpack(BitWord(bits, fmt.width), fmt)
                    back = pack(n).bits
                    want = 0 if bits == neg_zero else bits
                    if back != want:
                        failures.append(f"{fmt.name}: word {bits:#x} -> {back:#x}")
                    seen.add(back)
                count = 2 * fmt.max_level * fmt.index_scale
                if signed:
                    count = 2 * count - 1
                if len(seen) != count:
                    failures.append(f"{fmt.name}: {len(seen)} values, expected {count}")
                if not signed:
                    values = [v for _, v, _ in enumerate_values(fmt, raw=True)]
                    half = 1 << (fmt.width - 1)
                    for a, b in zip(values[:half], values[1:half]):
                        if not (a > b or (a == 0.0 and b == 0.0)):
                            failures.append(f"{fmt.name}: lower half not decreasing")
                            break
                    for a, b in zip(values[half:], values[half + 1 :]):
                        if not (b > a or (math.isinf(a) and math.isinf(b))):
                            failures.append(f"{fmt.name}: upper half not increasing")
                            break

    if checked != 84:
        failures.append(f"covered {checked} formats, expected 84")

    _report("09 (exhaustive 12-bit-and-under formats)", failures, t0, 30.0)
