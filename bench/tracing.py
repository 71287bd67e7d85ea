"""Spans around sliarith's public functions, installed from outside the package.

Tracer replaces every binding of a traced function in every loaded
sliarith module (``experiments.encode`` and ``arith.round_index`` are
bindings of ``core.encode`` and ``core.round_index``), so calls are seen
however the package reaches them.  A span is one call; spans are summed
per (name, parent) as they end, so memory does not grow with the number
of calls.  Self time is a span's duration minus the time covered by its
child spans.  Counts taken from return values (saturation, cancellation,
binary16 overflow and NaN, records, bytes written) are kept beside them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter

# (layer metric name, defining module, attribute), in report order.
FUNCTIONS = (
    ("core.encode", "sliarith.core", "encode"),
    ("core.decode", "sliarith.core", "decode"),
    ("core.round_index", "sliarith.core", "round_index"),
    ("core.sli_number_of", "sliarith.core", "SliNumber.of"),
    ("core.pack", "sliarith.core", "pack"),
    ("core.unpack", "sliarith.core", "unpack"),
    ("arith.li_add_sub", "sliarith.arith", "li_add_sub"),
    ("arith.li_mul_div", "sliarith.arith", "li_mul_div"),
    ("arith.add", "sliarith.arith", "add"),
    ("arith.sub", "sliarith.arith", "sub"),
    ("arith.mul", "sliarith.arith", "mul"),
    ("arith.div", "sliarith.arith", "div"),
    ("minifloat.fl", "sliarith.minifloat", "fl"),
    ("minifloat.fl_op", "sliarith.minifloat", "fl_op"),
    ("experiments.cli", "sliarith.experiments", "cli"),
    ("experiments.repr_error_sweep", "sliarith.experiments", "repr_error_sweep"),
    ("experiments.matvec_backward_error", "sliarith.experiments", "matvec_backward_error"),
    ("experiments.emit_dat", "sliarith.experiments", "emit_dat"),
)

ARITH_OPS = frozenset({"arith.add", "arith.sub", "arith.mul", "arith.div"})
FLOAT_OPS = frozenset({"minifloat.fl", "minifloat.fl_op"})
# Functions whose call is one rounding into a target format: one simulated op.
OP_FUNCTIONS = ARITH_OPS | FLOAT_OPS | {"core.encode"}
EXPERIMENTS = [name for name, _, _ in FUNCTIONS if name.startswith("experiments.")]
COUNTED = [name for name, _, _ in FUNCTIONS if name not in EXPERIMENTS]


def _observe_arith(counts, parent, args, result):
    if parent in ARITH_OPS:  # sub calls add; count each op once
        return
    x, y = args[0], args[1]
    if result.is_zero:
        if not (x.is_zero or y.is_zero):
            counts["arith.cancel_count"] += 1
    elif result.level == result.fmt.max_level and result.index_k == result.fmt.index_scale - 1:
        counts["arith.saturated_count"] += 1


def _observe_float(counts, parent, args, result):
    if parent == "minifloat.fl_op":
        return
    operands = args[:1] if len(args) == 2 else args[:2]
    if math.isnan(result):
        counts["minifloat.nan_count"] += 1
    elif math.isinf(result) and all(math.isfinite(v) for v in operands):
        counts["minifloat.overflow_count"] += 1


def _observe_records(counts, parent, args, result):
    counts["experiments.records"] += len(result)


def _observe_emit(counts, parent, args, result):
    counts["experiments.emit_dat.bytes"] += os.path.getsize(args[2])


OBSERVERS = {
    "arith.add": _observe_arith,
    "arith.sub": _observe_arith,
    "arith.mul": _observe_arith,
    "arith.div": _observe_arith,
    "minifloat.fl": _observe_float,
    "minifloat.fl_op": _observe_float,
    "experiments.repr_error_sweep": _observe_records,
    "experiments.matvec_backward_error": _observe_records,
    "experiments.emit_dat": _observe_emit,
}


class Tracer:
    """Installs span wrappers on sliarith and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str | None], list[int]] = {}
        self.counts: Counter[str] = Counter()
        self.sites: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[name, parent] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observe is not None:
                observe(counts, parent, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sliarith" or n.startswith("sliarith.")]
        self.sites = []
        for name, modname, attr in FUNCTIONS:
            home = sys.modules[modname]
            if attr == "SliNumber.of":
                cls = home.SliNumber
                original = cls.__dict__["of"]
                self._set(cls, "of", classmethod(self._wrap(name, original.__func__)))
                self.sites.append(f"{modname}.SliNumber.of")
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._set(module, key, wrapped)
                    self.sites.append(f"{module.__name__}.{key}")

    def _set(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def op_calls(self) -> int:
        """Simulated ops: op-function calls not made from inside another op."""
        return sum(rec[0] for (n, parent), rec in self.spans.items()
                   if n in OP_FUNCTIONS and parent not in OP_FUNCTIONS)

    def layer_metrics(self, units: int, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per work unit, in report order; times are multiplied
        by time_scale."""
        out: dict[str, tuple[float, str]] = {}
        for name in COUNTED:
            calls = self.calls(name)
            self_ns = sum(rec[2] for (n, _), rec in self.spans.items() if n == name)
            out[f"{name}.calls"] = (calls / units, "count")
            out[f"{name}.self_us"] = (
                self_ns * time_scale / calls / 1e3 if calls else 0.0, "us")
        scalar_ops = sum(rec[0] for (n, parent), rec in self.spans.items()
                         if n in ARITH_OPS and parent not in ARITH_OPS)
        kernels = self.calls("arith.li_add_sub")
        out["arith.kernel_calls_per_op"] = (kernels / scalar_ops if scalar_ops else 0.0, "ratio")
        for key in ("arith.cancel_count", "arith.saturated_count",
                    "minifloat.overflow_count", "minifloat.nan_count"):
            out[key] = (self.counts[key] / units, "count")
        for name in EXPERIMENTS:
            self_ns = sum(rec[2] for (n, _), rec in self.spans.items() if n == name)
            out[f"{name}.self_s"] = (self_ns * time_scale / units / 1e9, "s")
        out["experiments.records"] = (self.counts["experiments.records"] / units, "count")
        out["experiments.emit_dat.bytes"] = (
            self.counts["experiments.emit_dat.bytes"] / units, "bytes")
        return out
