"""Usage errors of tools/bench_pairs.py, which must come before any tree is unpacked."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PR = 999_999  # a BENCH_<PR>.json no run should write


@pytest.mark.parametrize("extra, message", [
    (["--workload", "sweep=3"], "'sweep' is not one of"),
    (["--workload", "ops-mix=0"], "the pair count must be an integer >= 1"),
    (["--workload", "ops-mix=1.5"], "the pair count must be an integer >= 1"),
    (["--workload", "ops-mix=1", "--seconds", "500"], "--seconds 500: bench/run.py takes 1 to"),
    (["--workload", "ops-mix=1", "--seconds", "0"], "--seconds 0: bench/run.py takes 1 to"),
    (["--workload", "ops-mix=1", "--seed", "-1"], "--seed -1: must be >= 0"),
    (["--workload", "ops-mix=2", "--traced-pairs", "-2"], "--traced-pairs -2: must be >= 0"),
])
def test_bad_arguments_are_usage_errors(extra, message):
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", "HEAD", "--pr", str(PR), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "exit" not in proc.stderr  # no pair ran
    assert not (ROOT / f"BENCH_{PR}.json").exists()

