"""Run one lenetkit benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the engine is imported from
``src/``. The run sets its inputs up several times and reports the median
set-up time, checks its outputs, then repeats the workload's unit of work
for ``--seconds``. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. The traced run alternates untraced and
traced units, so it also reports the tracing overhead, and writes its spans
to ``.bench_out/``. A failed check makes the run exit with code 1.
"""

import os

# Pin BLAS to one thread before numpy is first imported: with two threads a
# desk epoch has ranged from 67 to 259 ms on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
COLD_PREDICTS = 5
DEFAULT_SEED = 1


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_sha": git_sha(ROOT)}


def cold_predict_ms(workload, checks) -> float:
    """Median wall time of a fresh ``python -m lenetkit.cli predict`` process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for i in range(COLD_PREDICTS):
        cmd = [sys.executable, "-m", "lenetkit.cli", "predict", "--checkpoint",
               str(workload.checkpoint), "--image", workload.images[i % len(workload.images)]]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        checks.op(proc.returncode == 0, f"cold predict exited {proc.returncode}")
    return statistics.median(times) * 1e3


def _call(tracer, run_id: str, fn):
    """Call ``fn``, traced under ``run_id`` when a tracer is given."""
    if tracer:
        tracer.run_id = run_id
        tracer.install()
    try:
        return fn()
    finally:
        if tracer:
            tracer.uninstall()


def measure(workload, seconds: float, tracer, checks, extra_setups=()):
    """Repeat the unit of work for ``seconds``; a traced run traces every other unit.

    The machine's speed drifts over tens of seconds, and each core on its
    own, so the units take turns on the cores this process may use and the
    ``extra_setups`` are spread evenly over the window instead of all running
    before it. No unit starts that would, at the last unit's pace, end past
    the window.
    """
    from tracing import installed_wrappers
    cpus = sorted(os.sched_getaffinity(0))
    untraced, traced = [], []
    start = time.perf_counter()
    pending = [(start + seconds * (k + 1) / (len(extra_setups) + 1), setup)
               for k, setup in enumerate(extra_setups)]
    last = 0.0
    i = 0
    try:
        while i < workload.min_units or time.perf_counter() + last <= start + seconds:
            # An untraced unit and the traced one after it share a core.
            os.sched_setaffinity(0, {cpus[i // 2 % len(cpus)]})
            trace_this = tracer is not None and i % 2 == 1
            unit_start = time.perf_counter()
            sample = _call(tracer if trace_this else None, f"unit-{i}", workload.unit)
            last = time.perf_counter() - unit_start
            (traced if trace_this else untraced).append(sample)
            i += 1
            if not checks.expect(not installed_wrappers(),
                                 "a trace wrapper is still installed"):
                break
            while pending and time.perf_counter() >= pending[0][0]:
                os.sched_setaffinity(0, {cpus[len(pending) % len(cpus)]})
                pending.pop(0)[1]()
        for k, (_, setup) in enumerate(pending):
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            setup()
    finally:
        os.sched_setaffinity(0, cpus)
    return untraced, traced


def run(args) -> int:
    import tracing
    from workloads import WORKLOADS, Checks

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, checks)
    tracer = tracing.Tracer(args.workload) if args.trace else None
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    print("env " + json.dumps(dict(environment(), workload=args.workload,
                                   seed=args.seed, seconds=args.seconds,
                                   trace=args.trace)))
    checks.expect(not tracing.installed_wrappers(), "trace wrappers installed at start")
    metrics = {}
    setup_s = []

    def timed_setup(k: int, target) -> None:
        def body():
            start = time.perf_counter()
            target.setup(work_root / f"setup-{k}")
            setup_s.append(time.perf_counter() - start)
        _call(tracer, f"setup-{k}", body)
        if target is not workload:
            shutil.rmtree(work_root / f"setup-{k}", ignore_errors=True)

    # Later set-ups build a throwaway copy of the workload from the same seed.
    extra_setups = [lambda k=k: timed_setup(k, WORKLOADS[args.workload](args.seed, Checks()))
                    for k in range(1, workload.setup_repeats)]
    try:
        timed_setup(0, workload)
        workload.prepare()
        untraced, traced = measure(workload, args.seconds, tracer, checks, extra_setups)

        e2e, extra = workload.summarise(untraced)
        e2e = {"setup_s": (statistics.median(setup_s), "s"), **e2e,
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB")}
        if tracer:
            units = [f"unit-{i}" for i in range(1, 2 * len(traced), 2)]
            setups = [f"setup-{i}" for i in range(workload.setup_repeats)]
            layers = tracer.layer_metrics(units, setups)
            walls = [[s["wall_s"] for s in group] for group in (traced, untraced)]
            overhead = statistics.median(walls[0]) / statistics.median(walls[1]) - 1
            layers["trace.overhead_pct"] = overhead * 100
            print(f"trace overhead: {100 * overhead:+.1f}% on the median unit"
                  f" ({len(traced)} traced, {len(untraced)} untraced units)")
            layers["cli.cold_predict_ms"] = (
                cold_predict_ms(workload, checks) if args.workload == "serve" else 0.0)
            units_of = dict(tracing.metric_names())
            metrics = {k: (layers[k], units_of[k]) for k in units_of}
            shares = tracer.module_shares(units[0])
            print("self-time share of one traced unit: " + ", ".join(
                f"{m} {100 * s:.1f}%" for m, s in shares.items()))
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write(spans_path)
            print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = e2e
        report = {**e2e, **extra,
                  "error_rate": (checks.failed / max(checks.attempted, 1), "ratio")}
        for name, (value, unit) in report.items():
            meaning = workload.meaning.get(name)
            print(f"metric {args.workload} {name} {value:.6g} {unit}"
                  + (f" ({meaning})" if meaning else ""))
    except Exception:  # any failure ends the run as an incorrect result
        traceback.print_exc()
        checks.op(False, "the workload raised")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted, "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk-train", "augment-train", "serve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "lenetkit" / "__init__.py"
    if not source.is_file():
        print(f"error: no lenetkit source at {source.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lenetkit
    if Path(lenetkit.__file__).resolve() != source:
        print(f"error: imported lenetkit from {lenetkit.__file__}, not {source}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
