"""Paired benchmark runs of a parent commit and a change, written to BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent REV --pr N
        --workload NAME=PAIRS [--workload NAME=PAIRS ...] [--seconds S]
        [--seed N] [--traced-pairs K]

Run from the root of a git checkout.  The parent is unpacked from REV
with git archive into a temporary directory, and the change is copied
into a second one: the working tree's files that git tracks or would
track (ls-files --cached --others --exclude-standard).  So both sides
run from the same kind of directory, without the working tree's
caches and build leftovers, and a metric such as peak RSS does not
differ by location alone.  Each pair runs bench/run.py once in each
tree, on the same workload, seed and --seconds, and the side that runs
first alternates from pair to pair.
Pair i of every workload uses seed --seed + i.  --traced-pairs adds K
more pairs per workload with --trace 1, for the per-layer numbers.  A
NAME that BENCHMARK.json does not list, PAIRS that is not an integer
>= 1, --seconds outside the 1..MAX_SECONDS that bench/run.py accepts, a
negative --seed or a negative --traced-pairs is a usage error (exit 2)
before any tree is unpacked.

Before the first pair, src/ and bench/ of both trees are byte-compiled
(compileall, this interpreter).  Python reads bytecode even where
PYTHONDONTWRITEBYTECODE=1 stops it writing any, so each bench child
then imports sliarith from bytecode instead of compiling it inside its
timed set-up: in a fresh interpreter on a 2-core Xeon, `import sliarith`
(numpy's import included) took a median of 157 ms from source and 133 ms
from bytecode over 9 runs each.  Then sliarith is imported once in each
tree whose source has the compiled kernel (src/sliarith/_kernel.c),
which builds it there, so that no bench child pays the build (about
0.5 s) inside its timed set-up; a tree without that source is left as
it is.

The file records every run (exit code, environment line, result) and,
per workload and end-to-end metric, each side's median and quartiles
over the untraced runs, the change's median over the parent's, the
pairs the change won (ties count for neither side) and a verdict: gain,
regression, unresolved or within bound (see _verdict; better and bound
are read from BENCHMARK.json).  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _max_seconds() -> int:
    """MAX_SECONDS of this checkout's bench/run.py, the largest --seconds it takes."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.MAX_SECONDS


def _unpack(rev: str, into: Path) -> str:
    """The tree of rev, written into the directory into; returns its full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(into, filter="data")
    return commit


def _copy_worktree(into: Path) -> None:
    """The working tree's files that git tracks or would track, copied
    into the directory into; a tracked file deleted from the tree is
    left out."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.exists():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, into / name)


def _build_kernel(tree: Path) -> None:
    """Build the compiled kernel of tree's sliarith by importing it there,
    if tree's source has one."""
    if not (tree / "src" / "sliarith" / "_kernel.c").is_file():
        return
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", "import sliarith"], cwd=tree / "src", env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"cannot build the kernel in {tree}: {proc.stderr[-2000:]}")


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = {"exit": proc.returncode, "env": None, "result": None}
    for line in proc.stdout.splitlines():
        if line.startswith("env "):
            run["env"] = json.loads(line[4:])
        elif line.startswith("{"):
            run["result"] = json.loads(line)
    if proc.returncode != 0:
        run["stderr"] = proc.stderr[-2000:]
    return run


# The fewest pairs from which a gain can be read.
MIN_GAIN_PAIRS = 10


def _sign(metric: dict) -> int:
    """+1 for a metric whose higher values are better, -1 for lower."""
    return 1 if metric["better"] == "higher" else -1


def _verdict(parent: dict, change: dict, wins: int, bound: float, sign: int) -> str:
    """The reading of one metric on one workload, from both sides' runs.

    gain: at least MIN_GAIN_PAIRS pairs, the change won nine tenths of
    them or more, and the medians differ in the better direction by more than the
    parent's interquartile range.  regression: the change's median is worse
    than the parent's by more than bound, a share of the parent's median.
    unresolved: the parent's interquartile range is wider than that bound,
    and not every change run is better than every parent run.  Anything
    else is within bound.  sign is +1 where higher is better, else -1 (_sign).
    """
    pairs = len(change["runs"])
    ahead = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    allowed = bound * abs(parent["median"])
    if pairs >= MIN_GAIN_PAIRS and 10 * wins >= 9 * pairs and ahead > spread:
        return "gain"
    if -ahead > allowed:
        return "regression"
    if spread > allowed and (min(sign * v for v in change["runs"])
                             <= max(sign * v for v in parent["runs"])):
        return "unresolved"
    return "within bound"


def _summary(pairs: list[dict], end_to_end: dict[str, dict]) -> dict:
    """Per workload and end-to-end metric (BENCHMARK.json's entries, by
    name, with their better and bound): medians, quartiles, ratio, wins
    and verdict, untraced runs only."""
    out: dict[str, dict] = {}
    for pair in pairs:
        if pair["trace"]:
            continue
        sides = {side: (pair[side]["result"] or {}).get("metrics", {})
                 for side in ("parent", "change")}
        for name in sides["parent"].keys() & sides["change"].keys() & end_to_end.keys():
            entry = out.setdefault(pair["workload"], {}).setdefault(
                name, {"parent": [], "change": [], "wins": 0, "losses": 0})
            p, c = sides["parent"][name]["value"], sides["change"][name]["value"]
            entry["parent"].append(p)
            entry["change"].append(c)
            sign = _sign(end_to_end[name])
            entry["wins"] += sign * (c - p) > 0
            entry["losses"] += sign * (c - p) < 0
    for metrics in out.values():
        for name, entry in metrics.items():
            for side in ("parent", "change"):
                values = entry.pop(side)
                q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                entry[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2],
                               "runs": values}
            base = entry["parent"]["median"]
            entry["change_over_parent"] = entry["change"]["median"] / base if base else None
            entry["pairs"] = len(entry["change"]["runs"])
            entry["bound"] = end_to_end[name]["bound"]
            entry["verdict"] = _verdict(entry["parent"], entry["change"], entry["wins"],
                                        entry["bound"], _sign(end_to_end[name]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<PR>.json")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS",
                        help="a workload and its number of pairs; repeat for more")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--traced-pairs", type=int, default=0)
    args = parser.parse_args()
    max_seconds = _max_seconds()
    if not 1 <= args.seconds <= max_seconds:
        parser.error(f"--seconds {args.seconds}: bench/run.py takes 1 to {max_seconds}")
    if args.seed < 0:
        parser.error(f"--seed {args.seed}: must be >= 0")
    if args.traced_pairs < 0:
        parser.error(f"--traced-pairs {args.traced_pairs}: must be >= 0")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    plan = {}
    for spec in args.workload:
        name, _, count = spec.partition("=")
        if name not in workloads:
            parser.error(f"--workload {spec}: {name!r} is not one of {', '.join(workloads)}")
        try:
            plan[name] = int(count or 1)
        except ValueError:
            plan[name] = 0
        if plan[name] < 1:
            parser.error(f"--workload {spec}: the pair count must be an integer >= 1")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {"parent": _unpack(args.parent, trees["parent"]),
                   "change": "working tree of " + _git("rev-parse", "HEAD")}
        _copy_worktree(trees["change"])
        for tree in trees.values():
            for part in ("src", "bench"):
                if not compileall.compile_dir(tree / part, quiet=1):
                    raise SystemExit(f"cannot byte-compile {tree / part}")
            _build_kernel(tree)
        pairs = []
        for workload, count in plan.items():
            for i in range(count + args.traced_pairs):
                trace = int(i >= count)
                seed = args.seed + i
                order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "seconds": args.seconds,
                        "trace": trace, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, seed, args.seconds, trace)
                    print(f"{workload} seed {seed} trace {trace} {side}: exit {pair[side]['exit']}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)

    report = {
        "what": f"bench/run.py parent/change pairs for PR {args.pr}",
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds} [--trace 1]",
        "made_by": "python3 " + " ".join(sys.argv),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "trees": commits,
        "order": "pairs alternate which side runs first (field 'first')",
        "summary": _summary(pairs, end_to_end),
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(pair[side]["exit"] == 0 for pair in pairs for side in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())
