"""probeopt benchmark: one seeded workload, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload plan-large --seed 1 --seconds 15 --trace 0

Workloads: plan-large, sweep-small, replay, cli (see bench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics, and the spans are written to ``bench/out/``.  Earlier
lines give the environment, the workload's own metrics and, when traced,
per-layer self time and call counts.  The exit code is 0 only when every
operation succeeded and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Pinned before numpy loads: the benchmark is one single-threaded process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload",
        required=True,
        choices=("plan-large", "sweep-small", "replay", "cli"),
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "probeopt" / "__init__.py").is_file():
        print(f"error: no probeopt sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PROBEOPT_THREADS", None)
    sys.path.insert(0, str(SRC))

    import harness  # noqa: E402  (needs the pinned environment and src/)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    result = harness.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        workdir=OUT / f"work-{tag}-{os.getpid()}",
        trace_path=OUT / f"trace-{tag}.json" if args.trace else None,
    )

    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"rounds {result['rounds']}  operations {result['attempted']}  failed {result['failed']}")
    print("set-up seconds " + " ".join(f"{t:.4f}" for t in result["setup_times"]))
    print("round seconds " + " ".join(f"{t:.4f}" for t in result["round_totals"]))
    print("operation medians:")
    for label, seconds in result["op_medians"].items():
        print(f"  {label:<40} {1e3 * seconds:>14.6g} ms")
    print("workload metrics:")
    for name, (value, unit) in result["report"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print("per-layer metrics:" if args.trace else "end-to-end metrics:")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
