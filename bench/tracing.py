"""Span tracing of lenetkit's public functions, installed from outside.

The engine carries no instrumentation of its own, so the traced run replaces
each function in ``TRACED`` with a wrapper that records a span and restores
the original afterwards. A wrapper is installed under every name a caller
looks up: ``train.py`` and ``cli.py`` bind ``model_forward`` at import time,
so patching only ``nn.model_forward`` would miss their calls. Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = {
    "nn": ("conv2d_forward", "conv2d_backward", "avgpool2d_forward",
           "avgpool2d_backward", "sigmoid_forward", "sigmoid_backward",
           "dense_forward", "dense_backward", "softmax", "model_forward",
           "model_backward"),
    "loss": ("cross_entropy", "focal_loss"),
    "train": ("train", "evaluate", "sgd_step"),
    "data": ("augment", "load_image", "decode_pgm", "resize_bilinear",
             "load_dataset", "gen_synthetic"),
    "checkpoint": ("crc64", "load_checkpoint", "save_checkpoint",
                   "checkpoint_to_model"),
    "metrics": ("confusion", "macro_report", "binarized_report"),
    "cli": ("main",),
}

_MARK = "__bench_traced__"


def _conv_flop(a) -> int:
    n, cin, h, w = a["x"].shape
    cout, _, kh, kw = a["kernel"].shape
    return 2 * n * cout * (h - kh + 1) * (w - kw + 1) * cin * kh * kw


def _dense_flop(a) -> int:
    return 2 * a["x"].shape[0] * a["w"].shape[0] * a["w"].shape[1]


# Work a call does, computed from its bound arguments: floating-point
# operations of the multiply-adds (backward computes both the input and the
# parameter gradient, twice the forward count), or checkpoint bytes.
WORK = {
    "nn.conv2d_forward": ("gflop", lambda a: _conv_flop(a) / 1e9),
    "nn.conv2d_backward": ("gflop", lambda a: 2 * _conv_flop(a) / 1e9),
    "nn.dense_forward": ("gflop", lambda a: _dense_flop(a) / 1e9),
    "nn.dense_backward": ("gflop", lambda a: 2 * _dense_flop(a) / 1e9),
    "checkpoint.load_checkpoint": ("bytes", lambda a: os.path.getsize(a["path"])),
    "checkpoint.save_checkpoint": ("bytes", lambda a: os.path.getsize(a["path"])),
}

# Functions that also run while the workload sets up. Their per-set-up
# figures are reported under ``.setup_calls`` and ``.setup_ms``, apart from
# the per-unit ``.calls`` and ``.ms``, so that each name keeps one meaning.
SETUP_TRACED = ("data.gen_synthetic", "data.load_dataset", "data.load_image",
                "data.decode_pgm", "data.resize_bilinear",
                "checkpoint.save_checkpoint", "checkpoint.crc64")

EXTRA_METRICS = (
    ("checkpoint.bytes_read", "B"),
    ("checkpoint.setup_bytes_written", "B"),
    ("cli.cold_predict_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            qual = f"{module}.{fn}"
            names += [(f"{qual}.calls", "count"), (f"{qual}.ms", "ms")]
            if WORK.get(qual, ("",))[0] == "gflop":
                names += [(f"{qual}.gflop", "GFLOP"), (f"{qual}.gflop_s", "GFLOP/s")]
            if qual in SETUP_TRACED:
                names += [(f"{qual}.setup_calls", "count"), (f"{qual}.setup_ms", "ms")]
    return names + list(EXTRA_METRICS)


def lenetkit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lenetkit" or name.startswith("lenetkit."))]


def installed_wrappers() -> list[str]:
    """Names, as ``module.attr``, under which a trace wrapper is installed."""
    return [f"{m.__name__}.{attr}" for m in lenetkit_modules()
            for attr, value in vars(m).items() if getattr(value, _MARK, False)]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    A span is ``(name, start, end, parent, run_id, work)``: ``parent`` is the
    index of the enclosing span or -1, and ``run_id`` names the unit of work
    (one set-up, or one measured call) the span belongs to.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.run_id = ""
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        modules = lenetkit_modules()
        for module_name, functions in TRACED.items():
            home = sys.modules[f"lenetkit.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is original]:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, 0.0)
            if work:
                amount = work[1](signature.bind(*args, **kwargs).arguments)
                spans[index] = spans[index][:5] + (amount,)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _, _) in enumerate(self.spans)]

    def per_unit(self, run_ids: list[str]) -> dict[str, list[dict]]:
        """Per traced function, its calls, self seconds and work in each unit."""
        index = {run_id: i for i, run_id in enumerate(run_ids)}
        table = defaultdict(lambda: [{"calls": 0, "s": 0.0, "work": 0.0}
                                     for _ in run_ids])
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, run_id, amount = span
            if run_id in index:
                cell = table[name][index[run_id]]
                cell["calls"] += 1
                cell["s"] += self_s
                cell["work"] += amount
        return table

    def layer_metrics(self, units: list[str], setups: list[str]) -> dict[str, float]:
        """Per-layer metrics as medians over the traced units, and over the
        set-ups for the functions in ``SETUP_TRACED``. A function that never
        runs in a unit reports zero calls.
        """
        in_units, in_setups = self.per_unit(units), self.per_unit(setups)
        empty = [{"calls": 0, "s": 0.0, "work": 0.0}]

        def median(cells, key):
            return statistics.median(c[key] for c in cells)

        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for fn in functions:
                qual = f"{module}.{fn}"
                cells = in_units.get(qual, empty)
                out[f"{qual}.calls"] = median(cells, "calls")
                out[f"{qual}.ms"] = median(cells, "s") * 1e3
                if WORK.get(qual, ("",))[0] == "gflop":
                    out[f"{qual}.gflop"] = median(cells, "work")
                    out[f"{qual}.gflop_s"] = statistics.median(
                        c["work"] / c["s"] if c["s"] > 0 else 0.0 for c in cells)
                if qual in SETUP_TRACED:
                    cells = in_setups.get(qual, empty)
                    out[f"{qual}.setup_calls"] = median(cells, "calls")
                    out[f"{qual}.setup_ms"] = median(cells, "s") * 1e3
        out["checkpoint.bytes_read"] = median(
            in_units.get("checkpoint.load_checkpoint", empty), "work")
        out["checkpoint.setup_bytes_written"] = median(
            in_setups.get("checkpoint.save_checkpoint", empty), "work")
        return out

    def module_shares(self, unit: str) -> dict[str, float]:
        """Share of one unit's wall time spent in each module's own code."""
        totals: dict[str, float] = defaultdict(float)
        wall = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            name, start, end, parent, run_id, _ = span
            if run_id != unit:
                continue
            totals[name.split(".")[0]] += self_s
            if parent < 0:
                wall += end - start
        return {m: s / wall for m, s in sorted(totals.items())} if wall else {}

    def write(self, path: Path) -> None:
        """Write every span as one CSV row; times are seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["span", "name", "start_s", "end_s", "parent",
                          "workload", "run_id", "work"])
            for i, (name, start, end, parent, run_id, amount) in enumerate(self.spans):
                out.writerow([i, name, f"{start - origin:.9f}", f"{end - origin:.9f}",
                              parent, self.workload, run_id, amount])
