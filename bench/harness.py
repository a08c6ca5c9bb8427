"""Runs one workload: repeated set-up, timed rounds, gate, metrics.

The end-to-end metrics (``--trace 0``) come from an untraced run.  A traced
run (``--trace 1``) repeats the same workload with :class:`spans.Tracer`
installed and reports the per-layer metrics instead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS

# Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


class Recorder:
    """Times operations in a closed loop and counts gate failures.

    ``ops`` holds ``(round, position, kind, seconds, attrs)`` for every
    operation that returned; ``position`` is its place in the round, so the
    same operation can be followed across rounds.  An operation that raises
    counts as failed, and so does every check whose predicate is false or
    raises.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.round = 0
        self.position = 0
        self.ops: list[tuple[int, int, str, float, dict]] = []
        self.attempted = 0
        self.failed = 0

    def next_round(self) -> None:
        self.round += 1
        self.position = 0

    def op(self, kind, fn, *args, **attrs):
        self.attempted += 1
        self.position += 1
        sid = self.tracer.begin_op(kind, self.round, attrs) if self.tracer else None
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self._fail(f"operation {kind} {attrs} raised:\n{traceback.format_exc()}")
            return None
        finally:
            elapsed = perf_counter() - t0
            if sid is not None:
                self.tracer.end_op(sid)
        self.ops.append((self.round, self.position, kind, elapsed, attrs))
        return out

    def check(self, label, predicate) -> None:
        try:
            ok = bool(predicate())
        except Exception:
            self._fail(f"check {label} raised:\n{traceback.format_exc()}")
            return
        if not ok:
            self._fail(f"check failed: {label}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"gate: {message}", file=sys.stderr)

    def op_times(self) -> list[float]:
        return [t for _, _, _, t, _ in self.ops]

    def op_medians(self) -> dict[str, float]:
        """Median seconds per operation kind and instance size."""
        times: dict[str, list[float]] = {}
        for _, _, kind, seconds, attrs in self.ops:
            label = f"{kind} n={attrs['n']}" if "n" in attrs else kind
            times.setdefault(label, []).append(seconds)
        return {label: statistics.median(t) for label, t in times.items()}

    def round_totals(self) -> list[float]:
        """Summed operation time of each round."""
        totals = [0.0] * self.round
        for rnd, _, _, seconds, _ in self.ops:
            totals[rnd] += seconds
        return totals

    def round_seconds(self, kinds=None) -> float:
        """One round's time for the operations of ``kinds`` (all if None),
        taking each operation's time as its median over the rounds.

        Per-operation medians shrug off a burst of load from elsewhere on
        the machine that hits different operations in different rounds.
        """
        times: dict[int, list[float]] = {}
        for _, position, kind, seconds, _ in self.ops:
            if kinds is None or kind in kinds:
                times.setdefault(position, []).append(seconds)
        return sum(statistics.median(t) for t in times.values())


def environment(name, seed, seconds, trace) -> dict:
    threads = {
        var: os.environ.get(var)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": threads,
        "sim_threads": 1,
        "probeopt_threads_env": os.environ.get("PROBEOPT_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace, *, sizes=None, workdir=None, trace_path=None):
    """Run one workload; returns a result dict (see ``bench/README.md``)."""
    workload = WORKLOADS[name](sizes, workdir)
    tracer = spans.Tracer() if trace else None
    rec = Recorder(tracer)
    setup_times = []
    try:
        if tracer:
            tracer.install()
        try:
            for i in range(SETUP_REPEATS):
                sid = tracer.begin_op("setup", -1 - i, {}) if tracer else None
                t0 = perf_counter()
                state = workload.setup(seed)
                setup_times.append(perf_counter() - t0)
                if sid is not None:
                    tracer.end_op(sid)

            deadline = perf_counter() + seconds
            while True:
                workload.run_round(state, rec)
                rec.next_round()
                if perf_counter() >= deadline:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        workload.finish(state, rec)
    finally:
        workload.close()

    rounds = rec.round
    result = {
        "env": environment(name, seed, seconds, trace),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "rounds": rounds,
        "round_totals": rec.round_totals(),
        "setup_times": setup_times,
        "op_medians": rec.op_medians(),
        "report": {
            **workload.report(rec),
            "error_rate": (rec.failed / rec.attempted, "ratio"),
        },
    }
    if tracer:
        result["metrics"] = spans.layer_metrics(tracer, rounds, spans.span_cost())
        if trace_path:
            tracer.write(trace_path, {"env": result["env"]})
    else:
        result["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_s": (rec.round_seconds(), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return result
