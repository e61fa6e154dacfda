"""Checks that tracing leaves the engine as it found it.

    python3 -m pytest bench/test_tracing.py -q

The traced run must remove every wrapper when it ends, and the untraced
runs, which give the end-to-end numbers, must never run with one installed.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from lenetkit import cli, data, nn, train  # noqa: E402
from workloads import Checks  # noqa: E402


def _bindings() -> dict:
    return {(m.__name__, attr): value for m in tracing.lenetkit_modules()
            for attr, value in vars(m).items() if callable(value)}


def _tiny_dataset() -> data.Dataset:
    rng = np.random.default_rng(0)
    samples = [data.Sample(rng.random((1, 32, 32)), i % 3, f"s{i}") for i in range(6)]
    return data.Dataset(samples, ["a", "b", "c"], "test")


class _Probe:
    """A workload whose unit notes which wrappers are installed while it runs."""

    min_units = 4

    def __init__(self):
        self.model = nn.init_params(0, 3)
        self.dataset = _tiny_dataset()
        self.seen = []

    def unit(self) -> dict:
        self.seen.append(tracing.installed_wrappers())
        train.evaluate(self.model, self.dataset)
        return {"wall_s": 0.0}


def test_install_covers_every_caller_binding_and_uninstall_restores_all():
    before = _bindings()
    tracer = tracing.Tracer("check")
    tracer.install()
    try:
        installed = set(tracing.installed_wrappers())
        for name in ("lenetkit.nn.model_forward", "lenetkit.train.model_forward",
                     "lenetkit.cli.model_forward", "lenetkit.checkpoint.crc64",
                     "lenetkit.train.evaluate", "lenetkit.data.augment"):
            assert name in installed
        train.evaluate(nn.init_params(0, 3), _tiny_dataset())
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert _bindings() == before
    names = {span[0] for span in tracer.spans}
    assert {"train.evaluate", "nn.model_forward", "nn.conv2d_forward",
            "metrics.confusion"} <= names


def test_uninstall_restores_after_a_traced_call_raises():
    before = _bindings()
    tracer = tracing.Tracer("check")
    tracer.install()
    try:
        with pytest.raises(Exception):
            cli.model_forward(nn.init_params(0, 3), np.zeros((1, 1, 8, 8)))
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert tracer.spans[-1][0] == "nn.model_forward"


def test_untraced_run_never_has_a_wrapper_installed():
    probe, checks = _Probe(), Checks()
    untraced, traced = run.measure(probe, 0.0, None, checks)
    assert len(untraced) == probe.min_units and not traced
    assert all(seen == [] for seen in probe.seen)
    assert checks.failed == 0


def test_traced_run_alternates_and_removes_every_wrapper():
    probe, checks = _Probe(), Checks()
    tracer = tracing.Tracer("check")
    untraced, traced = run.measure(probe, 0.0, tracer, checks)
    assert len(untraced) == len(traced) == probe.min_units // 2
    assert [bool(seen) for seen in probe.seen] == [False, True] * (probe.min_units // 2)
    assert tracing.installed_wrappers() == []
    assert checks.failed == 0
    metrics = tracer.layer_metrics(["unit-1", "unit-3"], [])
    assert metrics["train.evaluate.calls"] == 1
    assert metrics["nn.conv2d_forward.calls"] == 2
    assert metrics["nn.conv2d_forward.gflop"] > 0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("check")
    tracer.spans[:] = [("outer", 0.0, 10.0, -1, "u", 0.0),
                       ("inner", 1.0, 4.0, 0, "u", 0.0),
                       ("leaf", 2.0, 3.0, 1, "u", 0.0),
                       ("inner", 5.0, 7.0, 0, "u", 0.0)]
    assert tracer.self_times() == [5.0, 2.0, 1.0, 2.0]


def test_set_up_calls_are_reported_apart_from_unit_calls():
    tracer = tracing.Tracer("check")
    tracer.spans[:] = [("data.load_image", 0.0, 1.0, -1, "setup-0", 0.0),
                       ("data.load_image", 1.0, 3.0, -1, "unit-1", 0.0),
                       ("data.load_image", 3.0, 4.0, -1, "unit-1", 0.0)]
    metrics = tracer.layer_metrics(["unit-1"], ["setup-0"])
    assert metrics["data.load_image.calls"] == 2
    assert metrics["data.load_image.ms"] == 3000.0
    assert metrics["data.load_image.setup_calls"] == 1
    assert metrics["data.gen_synthetic.calls"] == 0
    assert set(metrics) == {name for name, _ in tracing.metric_names()} - {
        "cli.cold_predict_ms", "trace.overhead_pct"}
