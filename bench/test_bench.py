"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Lives beside the benchmark, outside the package's ``testpaths``.  Checks that
every declared metric is emitted with its unit, that the gate catches a
deliberately wrong result, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads as wl  # noqa: E402


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


TINY = {
    "plan-large": wl.PlanSizes(
        saturated=((40, 4), (20, 3)), two_state_n=30, queue=((20, 4), (12, 3))
    ),
    "sweep-small": wl.SweepSizes(cells=((3, 2), (4, 3), (5, 4), (4, 2), (3, 3), (6, 2))),
    "replay": wl.ReplaySizes(
        narrow=(4, 3), wide=(8, 4), prefix=(4, 3),
        narrow_slots=2000, wide_slots=2000, tree_slots=200,
    ),
    "cli": wl.CliSizes(documents=3, sim_slots=200, sim_replications=2),
}

# The workload metrics each workload reports next to the declared ones.
WORKLOAD_METRICS = {
    "plan-large": {"saturated_plan_s": "s", "queue_plan_s": "s"},
    "sweep-small": {"sweep_instances_per_s": "1/s"},
    "replay": {"sim_slots_per_s": "1/s", "tree_sim_slots_per_s": "1/s"},
    "cli": {"cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "cmd_samples": "count"},
}


def run_tiny(name, trace, tmp_path):
    return harness.run_workload(
        name, 3, 0, trace, sizes=TINY[name], workdir=tmp_path / "work"
    )


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in declared()["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_emitted_with_units(name, tmp_path):
    result = run_tiny(name, 0, tmp_path)
    assert result["failed"] == 0
    metrics = result["metrics"]
    end_to_end = declared()["end_to_end"]
    assert list(metrics) == [m["name"] for m in end_to_end]
    for metric in end_to_end:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value) and value > 0
    report = result["report"]
    assert report["error_rate"] == (0.0, "ratio")
    for metric, unit in WORKLOAD_METRICS[name].items():
        value, got = report[metric]
        assert got == unit and math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_emitted_with_units(name, tmp_path):
    result = run_tiny(name, 1, tmp_path)
    assert result["failed"] == 0
    metrics = result["metrics"]
    per_layer = declared()["per_layer"]
    assert list(metrics) == [m["name"] for m in per_layer]
    for metric in per_layer:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value) and value >= 0
    assert metrics["trace.overhead_s"][0] > 0


def test_tracer_restores_the_library(tmp_path):
    import probeopt.lagrange as lagrange
    import probeopt.oracle as oracle

    before = (lagrange.best_reserve_backup, oracle.OracleResult.__dict__["tree"])
    run_tiny("sweep-small", 1, tmp_path)
    assert (lagrange.best_reserve_backup, oracle.OracleResult.__dict__["tree"]) == before


def test_gate_catches_a_policy_changed_after_evaluation(tmp_path, monkeypatch):
    evaluate = wl.core.evaluate_policy

    def evaluate_then_move_fallback(instance, policy, **kwargs):
        report = evaluate(instance, policy, **kwargs)
        if isinstance(policy, wl.multi_state.ThresholdPolicy):
            probed = set(policy.probe_sequence())
            spare = [j for j in range(instance.n) if j not in probed and j != policy.backup]
            moved = None if policy.backup is not None else spare[0]
            object.__setattr__(policy, "backup", moved)
        return report

    monkeypatch.setattr(wl.core, "evaluate_policy", evaluate_then_move_fallback)
    result = run_tiny("plan-large", 0, tmp_path)
    assert result["failed"] > 0
    assert result["report"]["error_rate"][0] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = declared()["command"] + [
        "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"
    ]
    proc = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
