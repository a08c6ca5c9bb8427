"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 bench/repeat.py --runs 10 [--seconds 20] [--workload replay ...]
        [--trace 0|1] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, seeds
``1..runs``; ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
For every declared metric, workload metric and operation median it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.  ``--out`` writes
the same summary, with the environment line of the first run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def table(lines: list[str], header: str) -> dict:
    """The rows of one "name value unit" table in a run's output."""
    start = lines.index(header) + 1
    rows = {}
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        name, value, unit = line.strip().rsplit(None, 2)
        rows[name] = {"value": float(value), "unit": unit}
    return rows


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    metrics = {
        **table(lines, "operation medians:"),
        **table(lines, "workload metrics:"),
        **json.loads(lines[-1])["metrics"],
    }
    return env, metrics


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=workloads)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    summary = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace}
    for workload in args.workload or workloads:
        per_metric: dict[str, list[float]] = {}
        units = {}
        for seed in range(1, args.runs + 1):
            env, metrics = run_once(workload, seed, args.seconds, args.trace)
            summary.setdefault("env", env)
            for name, metric in metrics.items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {}
        print(f"{workload}:")
        for name, values in per_metric.items():
            s = summarize(values)
            summary[workload][name] = {"unit": units[name], **s}
            print(
                f"  {name:<40} median {s['median']:>12.6g} {units[name]:<6}"
                f" q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  spread {s['spread']:.3f}"
            )
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
