"""One workload in a fresh, single-threaded process; started by run.py.

Modes:
  setup    build the workload's inputs and report the set-up time only;
  measure  then run untraced units for --seconds, check the first
           unit's output and report the end-to-end numbers;
  trace    then alternate untraced and traced units for --seconds,
           check, and report the per-layer numbers.
The last line of standard output is one JSON object.

Times are normalised to the host's current speed.  On a shared machine
the speed of one core can change by a factor of two within a minute, as
other tenants come and go.  A fixed reference loop runs between units,
and each interval measured is scaled by REF_S over the loop's time next
to it.  The reported times are thus those of a host on which the loop
takes REF_S (a quiet core of a 2-core Xeon VM), and host slowdowns
cancel while a change in sliarith's speed does not.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sliarith  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The stated purpose of each workload, as layer calls a traced run must show.
COVERAGE = {
    "sweep-repr": ("arith.li_add_sub.calls == 0", "arith.li_mul_div.calls == 0"),
    "matvec-wide": ("arith.li_add_sub.calls > 0", "arith.li_mul_div.calls > 0"),
    "ops-mix": ("arith.li_add_sub.calls > 0", "arith.li_mul_div.calls > 0",
                "arith.sub.calls > 0", "arith.div.calls > 0"),
}


# Seconds the reference loop takes on the host that times are scaled to.
REF_S = 0.010


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True, slots=True)
class _Point:
    value: float
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < 4096:
            raise ValueError(self.index)


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, shaped like sliarith's scalar code:
    validated frozen dataclasses, exp and log, attribute reads."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(12000):
        p = _Point(math.exp(-(i & 63) / 64.0), i & 4095)
        acc += math.log(p.value + 1.0) * p.index
    return time.perf_counter() - start


def _coverage_failures(workload: str, layers: dict[str, tuple[float, str]]) -> list[str]:
    failures = []
    for rule in COVERAGE[workload]:
        name, op, bound = rule.split()
        value = layers[name][0]
        if not (value == float(bound) if op == "==" else value > float(bound)):
            failures.append(f"{rule} fails on {workload} ({value})")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    args = parser.parse_args()
    if not Path(sliarith.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sliarith imported from {sliarith.__file__}, not from {ROOT / 'src'}")

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_raw = _now() - args.spawned
    refs = [reference_seconds() for _ in range(3)]
    report: dict = {"setup_s": setup_raw * REF_S / statistics.median(refs)}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    unit_seconds: list[float] = []
    scales: list[float] = []  # per untraced unit (per round when tracing)
    traced_seconds = 0.0
    first = None
    divergent = 0
    start = _now()
    while True:
        elapsed, output = workload.unit()
        unit_seconds.append(elapsed)
        outputs = [output]
        if tracer is not None:
            tracer.install()
            try:
                elapsed, output = workload.unit()
            finally:
                tracer.uninstall()
            traced_seconds += elapsed
            outputs.append(output)
        refs.append(reference_seconds())
        scales.append(REF_S * 2 / (refs[-2] + refs[-1]))
        for output in outputs:
            if first is None:
                first = output
            elif output != first:
                divergent += 1
        if _now() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check = workload.check(first)
    units = len(unit_seconds) * (2 if tracer else 1)
    per_unit = workload.ops_per_unit
    attempted = units * per_unit
    failed = min(attempted, check.failed * (units - divergent) + divergent * per_unit)
    notes = list(check.notes)
    if divergent:
        notes.append(f"{divergent} units gave other output than the checked one")
    report.update(attempted=attempted, failed=failed)

    report["ref_loop_ms"] = statistics.median(refs) * 1e3
    if tracer is None:
        rates = [per_unit / (s * k) for s, k in zip(unit_seconds, scales)]
        p50, p99 = workload.op_us(unit_seconds, scales)
        report["metrics"] = {
            "sim_ops_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": (1.0 - failed / attempted, "ratio"),
            "op_us_p50": (p50, "us"),
            "op_us_p99": (p99, "us"),
            "sli_err": (check.sli_err, "rel"),
            "float_err": (check.float_err, "rel"),
        }
    else:
        rounds = len(unit_seconds)
        layers = tracer.layer_metrics(rounds, statistics.median(scales))
        layers["trace.overhead_frac"] = (traced_seconds / sum(unit_seconds) - 1.0, "ratio")
        report["coverage"] = _coverage_failures(args.workload, layers)
        report["metrics"] = layers
    report["notes"] = notes
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
