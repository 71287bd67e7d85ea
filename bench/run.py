"""sliarith benchmark: one seeded workload, measured end to end or traced by layer.

    python3 bench/run.py --workload {sweep-repr,matvec-wide,ops-mix}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; sliarith is imported from
./src.  Each workload runs in a fresh child process (bench/child.py)
with BLAS and OpenMP pinned to one thread.  With --trace 0 the child
measures untraced for S seconds and eight more children measure set-up
alone; with --trace 1 one child alternates untraced and traced units.
Every run checks the program's outputs against numpy float16 and an
80-digit mpmath oracle.  Prints a line describing the environment,
then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  Exits 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-repr", "matvec-wide", "ops-mix")
SETUP_SAMPLES = 9
# Every run must end within this many seconds, children included.
DEADLINE_S = 170.0
# The measuring child overruns --seconds by up to one unit (one traced
# round when tracing), and checks and set-up children follow it; a
# larger --seconds could not finish within DEADLINE_S.
MAX_SECONDS = 110
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def environment(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "git_commit": _git_commit(),
        "thread_pinning": PINNED,
    }


def run_child(args: argparse.Namespace, mode: str, workdir: Path, deadline: float) -> dict:
    """Run one child to completion and return its JSON report."""
    spawned = _now()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--spawned", repr(spawned)]
    env = dict(os.environ, **PINNED)
    # subprocess.run kills and reaps the child if it overruns.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds from 1 to {MAX_SECONDS}")
    if not (ROOT / "src" / "sliarith" / "__init__.py").is_file():
        print(f"bench: no sliarith sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = _now() + DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=".bench-run-", dir=ROOT))
    try:
        if args.trace:
            report = run_child(args, "trace", workdir, deadline)
            metrics = report["metrics"]
        else:
            report = run_child(args, "measure", workdir, deadline)
            setups = [report["setup_s"]]
            setups += [run_child(args, "setup", workdir, deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
            metrics = {"setup_s": (statistics.median(setups), "s"), **report["metrics"]}
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = report["notes"] + report.get("coverage", [])
    for note in problems:
        print(f"bench: check failed: {note}", file=sys.stderr)
    correct = report["failed"] == 0 and not problems
    env = environment(args)
    env["ref_loop_ms"] = report["ref_loop_ms"]
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
