"""tools/bench_pairs.py: usage errors, which must come before any tree is
unpacked, the kernel build in each tree before the pairs, and the
summary's verdicts, on synthetic runs."""

import importlib.machinery
import importlib.util
import json
import shutil
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


def _tool():
    path = ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_kernel_is_built_in_each_tree_that_has_one(tmp_path):
    # A tree of this source gets its kernel build before any bench child
    # runs; a parent tree without the kernel's source is not imported at
    # all, as its failing import would show.
    new, old = tmp_path / "new" / "src" / "sliarith", tmp_path / "old" / "src" / "sliarith"
    shutil.copytree(ROOT / "src" / "sliarith", new,
                    ignore=shutil.ignore_patterns("_kernel_*", "__pycache__"))
    old.mkdir(parents=True)
    (old / "__init__.py").write_text("raise SystemExit(3)\n")
    tool = _tool()
    for tree in (tmp_path / "new", tmp_path / "old"):
        tool._build_kernel(tree)
    assert len(list(new.glob("_kernel_*" + importlib.machinery.EXTENSION_SUFFIXES[0]))) == 1
    assert [p.name for p in old.iterdir()] == ["__init__.py"]


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def _pairs(name, parent, change, workload="ops-mix", trace=0):
    """Synthetic pairs of runs with one metric each, as _run records them."""
    return [{"workload": workload, "trace": trace,
             **{side: {"exit": 0, "result": {"metrics": {name: {"value": v}}}}
                for side, v in (("parent", p), ("change", c))}}
            for p, c in zip(parent, change)]


PARENT = [100.0, 103.0, 97.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 100.0]  # median 100


@pytest.mark.parametrize("name, parent, change, wins, verdict", [
    # Ten pairs, ten won, medians 20 apart against an interquartile range of 2.5.
    ("sim_ops_per_s", PARENT, [v + 20 for v in PARENT], 10, "gain"),
    # Lower is better: the same shift downwards.
    ("op_us_p50", PARENT, [v - 20 for v in PARENT], 10, "gain"),
    # Nine of ten is enough.
    ("sim_ops_per_s", PARENT, [v + 20 for v in PARENT[:9]] + [50.0], 9, "gain"),
    # Eight of ten is not.
    ("sim_ops_per_s", PARENT, [v + 20 for v in PARENT[:8]] + [50.0, 60.0], 8, "within bound"),
    # Every pair won, but by less than the parent's own spread.
    ("sim_ops_per_s", PARENT, [v + 1 for v in PARENT], 10, "within bound"),
    # Fewer than ten pairs, however clear.
    ("sim_ops_per_s", PARENT[:6], [v + 20 for v in PARENT[:6]], 6, "within bound"),
    # Worse by more than the 0.25 bound, either direction of better.
    ("sim_ops_per_s", PARENT, [v * 0.7 for v in PARENT], 0, "regression"),
    ("op_us_p50", PARENT, [v * 1.3 for v in PARENT], 0, "regression"),
    # Worse, but within the bound.
    ("sim_ops_per_s", PARENT, [v * 0.8 for v in PARENT], 0, "within bound"),
    # pass_frac's bound is 0.01.
    ("pass_frac", [1.0] * 4, [0.98] * 4, 0, "regression"),
    ("pass_frac", [1.0] * 10, [1.0] * 10, 0, "within bound"),
    # The parent spreads wider than the bound: a shift cannot be read...
    ("sim_ops_per_s", [50, 150, 60, 140], [45, 145, 55, 135], 0, "unresolved"),
    ("sim_ops_per_s", [50, 150, 60, 140], [60, 160, 70, 150], 4, "unresolved"),
    # ...unless every change run is better than every parent run.
    ("sim_ops_per_s", [50, 150, 60, 140], [151, 160, 155, 152], 4, "within bound"),
    ("op_us_p50", [50, 150, 60, 140], [40, 45, 30, 49], 4, "within bound"),
])
def test_summary_verdicts(name, parent, change, wins, verdict):
    entry = _tool()._summary(_pairs(name, parent, change), END_TO_END)["ops-mix"][name]
    assert (entry["wins"], entry["verdict"]) == (wins, verdict)
    assert entry["bound"] == END_TO_END[name]["bound"]
    assert entry["pairs"] == len(parent) and entry["parent"]["runs"] == parent


def test_summary_reads_untraced_runs_of_listed_metrics():
    pairs = (_pairs("sim_ops_per_s", PARENT, [v + 20 for v in PARENT])
             + _pairs("sim_ops_per_s", [1.0, 1.0], [0.1, 0.1], trace=1)
             + _pairs("core.pack.calls", [4000] * 3, [4000] * 3)
             + _pairs("sim_ops_per_s", [5.0, 6.0], [6.0, 5.0], workload="sweep-repr"))
    pairs[0]["change"]["result"] = None  # a run that printed no result
    summary = _tool()._summary(pairs, END_TO_END)
    assert set(summary) == {"ops-mix", "sweep-repr"}
    assert list(summary["ops-mix"]) == ["sim_ops_per_s"]
    entry = summary["ops-mix"]["sim_ops_per_s"]
    assert entry["pairs"] == 9 and entry["parent"]["runs"] == PARENT[1:]
    assert entry["verdict"] == "within bound"  # nine pairs: too few for a gain
    sweep = summary["sweep-repr"]["sim_ops_per_s"]
    assert (sweep["wins"], sweep["losses"], sweep["change_over_parent"]) == (1, 1, 1.0)
