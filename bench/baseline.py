"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/baseline.json

Runs ``bench/run.py`` once per workload and seed with tracing off, one
process at a time, then once more per workload with tracing on. For each
metric it prints the median over the seeds and the spread, the distance
between the first and third quartile as a share of the median. With
``--out`` it writes every run's metrics, the summary, the traced per-layer
metrics and the machine description to that JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("desk-train", "augment-train", "serve")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result["report"] = {}
    for line in lines:
        if line.startswith("metric "):
            _, _, name, value, unit = line.split()[:5]
            result["report"][name] = {"value": float(value), "unit": unit}
    result["notes"] = [line for line in lines[:-1]
                       if not line.startswith(("metric ", "env "))]
    return result


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "iqr_share": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range, as in '1-10'")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        summary["env"] = {k: v for k, v in runs[0]["env"].items()
                          if k not in ("workload", "seed", "seconds", "trace")}
        entry = {"end_to_end": {}, "report": {}, "runs": [r["metrics"] for r in runs]}
        for name, first in runs[0]["metrics"].items():
            entry["end_to_end"][name] = dict(
                spread([r["metrics"][name]["value"] for r in runs]), unit=first["unit"])
        for name, first in runs[0]["report"].items():
            entry["report"][name] = dict(
                median=statistics.median(r["report"][name]["value"] for r in runs),
                unit=first["unit"])
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.5g} {s['unit']},"
                  f" spread {100 * s['iqr_share']:.2f}%", flush=True)
        traced = run_once(workload, seeds[0], args.seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["trace_notes"] = traced["notes"]
        print(f"  {workload} traced: " + "; ".join(traced["notes"]), flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
