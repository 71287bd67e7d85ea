"""Self-tests for the benchmark's own code.

    python3 -m pytest -q bench

The last test runs bench/run.py once per workload and mode (about a
minute on a 2-core machine).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import sliarith  # noqa: E402

from oracle import SliOracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import MatvecWide, OpsMix, SweepRepr  # noqa: E402


def test_oracle_reproduces_readme_examples():
    oracle = SliOracle()
    x = oracle.encode(math.pi)
    assert oracle.fields(x) == (1, 1, 2, 554)
    assert float(oracle.value(oracle.op("mul", x, x))) == 9.87080793763951


def test_oracle_saturates_and_cancels():
    oracle = SliOracle()
    top = oracle.from_rank(1, oracle.top_rank)
    assert oracle.op("mul", top, top) == top
    assert oracle.op("sub", top, top) == 0
    with pytest.raises(ZeroDivisionError):
        oracle.op("div", top, 0)


def test_tracer_wraps_every_binding_site():
    tracer = Tracer()
    original = sliarith.core.round_index
    tracer.install()
    try:
        for site in ("sliarith.core.encode", "sliarith.experiments.encode", "sliarith.encode",
                     "sliarith.arith.round_index", "sliarith.core.SliNumber.of"):
            assert site in tracer.sites
        assert sliarith.arith.round_index is not original
    finally:
        tracer.uninstall()
    assert sliarith.arith.round_index is original
    assert sliarith.core.round_index is original


@pytest.mark.parametrize("make", [
    lambda d: SweepRepr(7, d, lo=0.5, hi=0.6, step=1e-3),
    lambda d: MatvecWide(7, d, dims=(2, 5)),
    lambda d: OpsMix(7, d, pairs=200),
], ids=["sweep-repr", "matvec-wide", "ops-mix"])
def test_op_count_equals_traced_calls(make, tmp_path):
    workload = make(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        _, output = workload.unit()
    finally:
        tracer.uninstall()
    assert tracer.op_calls() == workload.ops_per_unit
    assert workload.check(output).failed == 0


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr
            result = _result(proc)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ops-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
