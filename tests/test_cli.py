"""End-to-end runs of the command line front end.

Everything goes through ``main(argv)`` in process.  At the bottom, one
subprocess test runs the ``probeopt`` console script declared in this
checkout's ``pyproject.toml`` through an installer-style launcher, so
no install is needed; the sdist test checks that a build publishes
that declaration.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from probeopt.cli import INPUT_ERROR, _build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


def write_instance(tmp_path, seed=0, name="inst.json", **spec_kwargs):
    spec = po.GenSpec(**{"n": 4, "state_count": 3, **spec_kwargs})
    path = tmp_path / name
    path.write_text(json.dumps(po.instance_to_dict(po.generate(spec, seed))))
    return path


class TestGen:
    def test_writes_a_valid_instance(self, tmp_path):
        out = tmp_path / "a.json"
        assert run("gen", "-n", 3, "-K", 4, "--seed", 5, "-o", out) == 0
        inst = po.load_instance(out)
        assert inst.n == 3 and inst.state_count == 4

    def test_count_gives_a_list(self, tmp_path):
        out = tmp_path / "many.json"
        assert run("gen", "-n", 2, "--count", 3, "-o", out) == 0
        docs = json.loads(out.read_text())
        assert isinstance(docs, list) and len(docs) == 3

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "-n", 4, "--seed", 9, "-o", a)
        run("gen", "-n", 4, "--seed", 9, "-o", b)
        assert a.read_text() == b.read_text()

    def test_stdout_when_no_output(self, capsys):
        assert run("gen", "-n", 2, "--seed", 1) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "rewards" in doc

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["-n", 0], "need at least one channel"),
            (["-n", 2, "-K", 1], "need at least two states"),
            (["-n", 2, "--cost-lo", 1.5], "cost_range must sit inside [0, 1)"),
            (["-n", 2, "--count", -3], "--count must be at least 1, got -3"),
            (["-n", 2, "--count", 0], "--count must be at least 1, got 0"),
        ],
    )
    def test_bad_spec_is_an_input_error(self, argv, message, capsys):
        assert run("gen", *argv) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
    def test_generated_files_pass_check_and_load_exactly(self, tmp_path, k):
        # rounding to 12 digits can push a probability sum past PROB_TOL
        for seed in range(40):
            out = tmp_path / f"k{k}s{seed}.json"
            assert run("gen", "-n", 8, "-K", k, "--seed", seed, "-o", out) == 0
            assert run("check", out, "-o", tmp_path / "check.json") == 0
            loaded = po.load_instance(out)
            drawn = po.generate(
                po.GenSpec(n=8, state_count=k), np.random.default_rng(seed)
            )
            assert np.array_equal(loaded.rewards, drawn.rewards)
            assert np.array_equal(loaded.probs, drawn.probs)
            assert np.array_equal(loaded.costs, drawn.costs)


class TestCheck:
    def test_good_file(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert run("check", path) == 0
        results = json.loads(capsys.readouterr().out)
        assert results == [{"file": str(path), "ok": True}]

    def test_validation_failure_lists_violations(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        doc = json.loads(path.read_text())
        doc["rewards"] = sorted(doc["rewards"], reverse=True)
        path.write_text(json.dumps(doc))
        assert run("check", path) == 2
        results = json.loads(capsys.readouterr().out)
        assert results[0]["ok"] is False
        assert results[0]["violations"]

    def test_non_finite_numbers(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        doc = json.loads(path.read_text())
        doc["channels"][1]["cost"] = float("nan")
        path.write_text(json.dumps(doc))
        assert run("check", path) == 2
        results = json.loads(capsys.readouterr().out)
        assert [v["code"] for v in results[0]["violations"]] == ["non-finite"]
        assert run("solve", path) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        assert run("check", path) == 2

    def test_missing_file(self, tmp_path):
        assert run("check", tmp_path / "ghost.json") == 2

    @pytest.mark.parametrize(
        "rewards", [[[0.0], [0.5], [1.0]], 0, None], ids=["column", "scalar", "null"]
    )
    def test_rewards_that_are_not_a_vector(self, tmp_path, capsys, rewards):
        path = write_instance(tmp_path)
        doc = json.loads(path.read_text())
        doc["rewards"] = rewards
        path.write_text(json.dumps(doc))
        assert run("check", path) == INPUT_ERROR
        (result,) = json.loads(capsys.readouterr().out)
        assert result["violations"] == [
            {
                "code": "bad-prob-shape",
                "channel": None,
                "detail": "rewards must be a 1-d vector",
            }
        ]
        sol = write_instance(tmp_path, name="good.json")
        for argv in (["solve"], ["oracle"], ["simulate", "--policy", sol]):
            assert run(argv[0], path, *argv[1:]) == INPUT_ERROR
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: {path}: bad-prob-shape: rewards must be a 1-d vector\n"
            )

    def test_mixed_batch_still_reports_everything(self, tmp_path, capsys):
        good = write_instance(tmp_path, name="good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        assert run("check", good, bad) == 2
        results = json.loads(capsys.readouterr().out)
        assert [r["ok"] for r in results] == [True, False]


class TestSolve:
    def test_saturated_round_trip(self, tmp_path):
        ipath = write_instance(tmp_path, seed=3)
        out = tmp_path / "sol.json"
        assert run("solve", ipath, "-o", out) == 0
        doc = json.loads(out.read_text())
        inst = po.load_instance(ipath)
        policy = po.policy_from_dict(doc["policy"], inst)
        rep = po.evaluate_policy(inst, policy)
        assert doc["report"]["gain"] == pytest.approx(rep.gain, abs=1e-9)

    def test_saturated_threshold_charge(self, tmp_path):
        ipath = write_instance(tmp_path, seed=3)
        out = tmp_path / "sol.json"
        assert run("solve", ipath, "--threshold", 0.25, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["altered_threshold"] == 0.25

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_saturated_threshold_must_be_finite(self, tmp_path, capsys, bad):
        ipath = write_instance(tmp_path, seed=1)
        assert run("solve", ipath, f"--threshold={bad}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_additive_on_equal_costs(self, tmp_path):
        ipath = write_instance(tmp_path, seed=4, cost_regime="equal")
        out = tmp_path / "add.json"
        assert run("solve", ipath, "--mode", "additive", "--epsilon", 0.2, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert doc["certificate"]["epsilon"] == 0.2

    def test_additive_rejects_unequal_costs(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=5, cost_regime="heterogeneous")
        assert run("solve", ipath, "--mode", "additive") == 2
        assert "error:" in capsys.readouterr().err

    def test_additive_budget_give_up(self, tmp_path):
        ipath = write_instance(
            tmp_path, seed=6, n=8, state_count=4, cost_regime="equal",
            cost_range=(0.25, 0.3),
        )
        code = run(
            "solve", ipath, "--mode", "additive",
            "--epsilon", 0.2, "--max-candidates", 1,
        )
        assert code == 3

    def test_unsaturated(self, tmp_path):
        ipath = write_instance(tmp_path, seed=7)
        out = tmp_path / "mix.json"
        assert run("solve", ipath, "--mode", "unsaturated", "--rate", 0.5, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["policy"]["alpha"] <= 1.0
        assert doc["report"]["busy_fraction"] == pytest.approx(1 / 1.05)

    def test_unsaturated_needs_a_rate(self, tmp_path):
        ipath = write_instance(tmp_path)
        assert run("solve", ipath, "--mode", "unsaturated") == 2

    def test_unsaturated_rate_domain(self, tmp_path):
        ipath = write_instance(tmp_path)
        assert run("solve", ipath, "--mode", "unsaturated", "--rate", 1.5) == 2

    def test_unsaturated_all_off_instance(self, tmp_path):
        # every channel certainly off: the kink sits at price 0 between
        # always sending and never sending, both worth nothing
        path = tmp_path / "flat.json"
        out = tmp_path / "mix.json"
        inst = po.Instance.from_arrays(
            [0.0, 1.0], [[1.0, 1.0], [0.0, 0.0]], [0.1, 0.1]
        )
        path.write_text(json.dumps(po.instance_to_dict(inst)))
        code = run("solve", path, "--mode", "unsaturated", "--rate", 0.5, "-o", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["transmit_prob"] == pytest.approx(0.525, abs=1e-12)
        assert doc["report"]["busy_slot_gain"] == 0.0


class TestOracle:
    def test_value_agrees_with_library(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=8, n=3)
        assert run("oracle", ipath) == 0
        doc = json.loads(capsys.readouterr().out)
        expect = po.exact_dp(po.load_instance(ipath)).value
        assert doc["value"] == pytest.approx(expect, abs=1e-9)
        assert doc["probes_worst_case"] <= 3

    @pytest.mark.parametrize(
        "extra, sends",
        [((), 1.0), (("--threshold", "0.5", "--tie-preference", "prefer-silent"), 0.49)],
    )
    def test_reports_the_tree_transmit_probability(self, tmp_path, capsys, extra, sends):
        ipath = write_instance(tmp_path, seed=11, n=5)
        assert run("oracle", ipath, *extra) == 0
        doc = json.loads(capsys.readouterr().out)
        inst = po.load_instance(ipath)
        tree = po.DecisionTree.from_dict(doc["tree"], inst)
        expect = po.evaluate_policy(inst, tree).transmit_prob
        assert doc["transmit_prob"] == pytest.approx(expect, abs=1e-12)
        assert doc["transmit_prob"] == pytest.approx(sends, abs=0.01)

    def test_dot_export(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=8, n=3)
        dot = tmp_path / "tree.dot"
        assert run("oracle", ipath, "--dot", dot) == 0
        assert dot.read_text().startswith("digraph")

    def test_too_many_channels_gives_up(self, tmp_path):
        ipath = write_instance(tmp_path, seed=9, n=15, state_count=2)
        assert run("oracle", ipath) == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_threshold_must_be_finite(self, tmp_path, capsys, bad):
        ipath = write_instance(tmp_path, seed=1)
        assert run("oracle", ipath, f"--threshold={bad}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


class TestSimulate:
    def test_replays_solve_output_directly(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=3)
        sol = tmp_path / "sol.json"
        run("solve", ipath, "-o", sol)
        code = run(
            "simulate", ipath, "--policy", sol,
            "--slots", 2000, "--replications", 3,
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["busy_fraction"] == 1.0
        assert "mean_queue" not in doc

    def test_one_replication_is_strict_json(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=3)
        sol = tmp_path / "sol.json"
        run("solve", ipath, "-o", sol)
        assert run(
            "simulate", ipath, "--policy", sol, "--slots", 500, "--replications", 1
        ) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["se_gain"] is None and doc["se_transmit"] is None
        assert doc["z_gain"] is None

    def test_reports_the_analytic_counterpart(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=3)
        inst = po.load_instance(ipath)
        sol = tmp_path / "sol.json"
        run("solve", ipath, "-o", sol)
        assert run(
            "simulate", ipath, "--policy", sol, "--slots", 4000, "--replications", 4
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        exact = po.evaluate_policy(inst, po.best_reserve_backup(inst))
        assert doc["analytic_gain"] == pytest.approx(exact.gain, rel=1e-11)
        assert doc["analytic_transmit"] == pytest.approx(exact.transmit_prob, rel=1e-11)
        z = (doc["mean_gain"] - doc["analytic_gain"]) / doc["se_gain"]
        assert doc["z_gain"] == pytest.approx(z, abs=1e-6)
        assert abs(doc["z_gain"]) < 5.0

    def test_queue_run_compares_busy_slots_with_the_plan(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=7)
        mix = tmp_path / "mix.json"
        run("solve", ipath, "--mode", "unsaturated", "--rate", 0.5, "-o", mix)
        plan = json.loads(mix.read_text())["report"]
        for arrivals, rate in ((None, 0.5), ("markov:0.2,0.3", 0.4)):
            extra = ["--arrivals", arrivals] if arrivals else []
            assert run(
                "simulate", ipath, "--policy", mix, "--queue",
                "--slots", 20_000, "--replications", 4, *extra,
            ) == 0
            doc = json.loads(capsys.readouterr().out)
            plan_gain = plan["busy_slot_gain"]
            assert doc["analytic_gain"] == pytest.approx(plan_gain, rel=1e-11)
            assert doc["analytic_transmit"] == pytest.approx(rate, rel=1e-11)
            se = doc["se_gain"] / doc["busy_fraction"]
            z = (doc["busy_gain"] - doc["analytic_gain"]) / se
            assert doc["z_gain"] == pytest.approx(z, abs=1e-6)
            assert abs(doc["z_gain"]) < 5.0

    def test_no_z_score_without_spread(self, tmp_path, capsys):
        # a fallback that is always in its middle state gains the same
        # every replication, so the standard error is 0
        inst = po.Instance.from_arrays(
            [0.0, 0.5, 1.0], [[0.0, 0.5], [1.0, 0.0], [0.0, 0.5]], [0.1, 0.1]
        )
        ipath = tmp_path / "sure.json"
        ipath.write_text(json.dumps(po.instance_to_dict(inst)))
        ppath = tmp_path / "pol.json"
        blind = po.ThresholdPolicy(backup=0, threshold=None, levels=())
        ppath.write_text(json.dumps(blind.to_dict(inst.names)))
        assert run(
            "simulate", ipath, "--policy", ppath, "--slots", 300, "--replications", 3
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["se_gain"] == 0.0 and doc["z_gain"] is None
        assert doc["analytic_gain"] == doc["mean_gain"] == 0.5

    def test_bare_policy_file_works_too(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=3)
        inst = po.load_instance(ipath)
        ppath = tmp_path / "pol.json"
        ppath.write_text(
            json.dumps(po.best_reserve_backup(inst).to_dict(inst.names))
        )
        assert run(
            "simulate", ipath, "--policy", ppath,
            "--slots", 1000, "--replications", 2,
        ) == 0
        assert "mean_gain" in json.loads(capsys.readouterr().out)

    def test_queue_run(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=7)
        mix = tmp_path / "mix.json"
        run("solve", ipath, "--mode", "unsaturated", "--rate", 0.5, "-o", mix)
        code = run(
            "simulate", ipath, "--policy", mix, "--queue",
            "--slots", 20_000, "--replications", 3,
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "mean_queue" in doc
        assert doc["busy_fraction"] < 1.0

    def test_idle_queue_leaves_busy_gain_undefined(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=1)
        mix = tmp_path / "mix.json"
        run("solve", ipath, "--mode", "unsaturated", "--rate", 0.5, "-o", mix)
        assert run(
            "simulate", ipath, "--policy", mix, "--queue",
            "--arrivals", "bernoulli:0", "--slots", 500, "--replications", 3,
        ) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["busy_fraction"] == 0.0
        assert doc["busy_gain"] is None
        assert doc["z_gain"] is None
        assert doc["analytic_gain"] > 0.0

    def test_queue_needs_a_mixed_policy(self, tmp_path):
        ipath = write_instance(tmp_path, seed=3)
        sol = tmp_path / "sol.json"
        run("solve", ipath, "-o", sol)
        assert run("simulate", ipath, "--policy", sol, "--queue") == 2

    def test_arrival_spellings(self, tmp_path):
        ipath = write_instance(tmp_path, seed=7)
        mix = tmp_path / "mix.json"
        run("solve", ipath, "--mode", "unsaturated", "--rate", 0.4, "-o", mix)
        base = [
            "simulate", ipath, "--policy", mix, "--queue",
            "--slots", 500, "--replications", 2, "-o", tmp_path / "sim.json",
        ]
        assert run(*base, "--arrivals", "bernoulli:0.4") == 0
        assert run(*base, "--arrivals", "markov:0.2,0.3") == 0
        assert run(*base, "--arrivals", "tidal") == 2
        assert run(*base, "--arrivals", "bernoulli:12") == 2

    @pytest.mark.parametrize("alpha", ["NaN", "Infinity", "1.7", "-0.2"])
    def test_mixing_weight_must_be_a_probability(self, tmp_path, alpha):
        ipath = write_instance(tmp_path, seed=7)
        mix = tmp_path / "mix.json"
        run("solve", ipath, "--mode", "unsaturated", "--rate", 0.5, "-o", mix)
        doc = json.loads(mix.read_text())
        doc["policy"]["alpha"] = "ALPHA"
        mix.write_text(json.dumps(doc).replace('"ALPHA"', alpha))
        assert run(
            "simulate", ipath, "--policy", mix, "--slots", 500,
            "--replications", 2, "-o", tmp_path / "sim.json",
        ) == 2

    @staticmethod
    def _policy_docs(ipath):
        """A usable prefix-tree document, its one subtree entry, and a
        usable threshold document, over the first three channels."""
        a, b, c = (ch["name"] for ch in json.loads(ipath.read_text())["channels"][:3])
        entry = {"state": 2, "send_min": 2, "levels": [{"level": 2, "channels": [c]}]}
        prefix = {
            "kind": "prefix-tree", "backup": a, "escape_min": 2,
            "backbone": [b], "subtrees": [[entry]],
        }
        threshold = {
            "kind": "threshold", "backup": a, "threshold": None, "floor": 2,
            "levels": [{"level": 2, "channels": [b, c]}],
        }
        return {"prefix": prefix, "entry": entry, "threshold": threshold}

    def test_usable_policy_files(self, tmp_path):
        # the documents the next test breaks one field at a time
        ipath = write_instance(tmp_path)
        docs = self._policy_docs(ipath)
        for kind in ("prefix", "threshold"):
            ppath = tmp_path / f"{kind}.json"
            ppath.write_text(json.dumps(docs[kind]))
            assert run(
                "simulate", ipath, "--policy", ppath, "--slots", 200,
                "--replications", 2, "-o", tmp_path / "sim.json",
            ) == 0

    # "3" names channel c: generated instances name channels 1..n
    @pytest.mark.parametrize(
        "target, field, value",
        [
            ("prefix", "kind", "oracle-bones"),
            ("prefix", "backbone", 3),
            ("prefix", "subtrees", 5),
            ("entry", "levels", None),
            ("threshold", "levels", 7),
            ("entry", "levels", [{"level": 2, "channels": []}]),
            ("entry", "levels", [{"level": 3, "channels": ["3"]}]),
            ("threshold", "threshold", "high"),
            ("threshold", "threshold", [0.3]),
            ("threshold", "floor", 1),
            ("threshold", "levels", [{"level": 1.7, "channels": ["3"]}]),
            ("entry", "send_min", True),
        ],
        ids=[
            "unknown-kind", "backbone-number", "subtrees-number",
            "subtree-levels-null", "threshold-levels-number",
            "subtree-channels-empty", "subtree-level-out-of-range",
            "threshold-string", "threshold-list", "floor-not-last-level",
            "level-not-integer", "send-min-bool",
        ],
    )
    def test_unusable_policy_file(self, tmp_path, capsys, target, field, value):
        ipath = write_instance(tmp_path)
        docs = self._policy_docs(ipath)
        docs[target][field] = value
        doc = docs["threshold" if target == "threshold" else "prefix"]
        ppath = tmp_path / "pol.json"
        ppath.write_text(json.dumps(doc))
        assert run("simulate", ipath, "--policy", ppath) == 2
        assert "not a usable policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], "threshold", True, 3, None, {"policy": [1, 2]}, {"policy": 3}],
        ids=["array", "string", "bool", "number", "null", "wrapped-array", "wrapped-number"],
    )
    def test_policy_document_that_is_not_an_object(self, tmp_path, capsys, doc):
        ipath = write_instance(tmp_path)
        ppath = tmp_path / "pol.json"
        ppath.write_text(json.dumps(doc))
        assert run("simulate", ipath, "--policy", ppath) == 2
        err = capsys.readouterr().err
        assert "not a usable policy" in err
        assert "must be an object" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("side", ["policy_minus", "policy_plus"])
    @pytest.mark.parametrize(
        "value", [3, [1], None, "x"], ids=["number", "array", "null", "string"]
    )
    def test_mixed_side_that_is_not_an_object(self, tmp_path, capsys, side, value):
        ipath = write_instance(tmp_path, seed=7)
        mix = tmp_path / "mix.json"
        run("solve", ipath, "--mode", "unsaturated", "--rate", 0.5, "-o", mix)
        doc = json.loads(mix.read_text())
        doc["policy"][side] = value
        mix.write_text(json.dumps(doc))
        assert run("simulate", ipath, "--policy", mix) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {mix}: not a usable policy (a policy document must be an "
            f"object, not {type(value).__name__})\n"
        )

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_must_be_positive(self, tmp_path, capsys, threads):
        ipath = write_instance(tmp_path, seed=3)
        sol = tmp_path / "sol.json"
        run("solve", ipath, "-o", sol)
        assert run(
            "simulate", ipath, "--policy", sol, "--slots", 200,
            "--replications", 2, "--threads", threads,
        ) == 2
        assert "threads must be at least 1" in capsys.readouterr().err

    def test_tree_state_must_be_an_integer(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=0, n=3)
        tree = tmp_path / "tree.json"
        assert run("oracle", ipath, "-o", tree) == 0
        doc = json.loads(tree.read_text())["tree"]
        node = doc["root"]
        while "transmit" not in node:
            node = node["children"][-1]
        node["transmit"]["state"] += 0.9
        tree.write_text(json.dumps(doc))
        assert run("simulate", ipath, "--policy", tree) == 2
        assert "not a usable policy" in capsys.readouterr().err


    def test_tree_from_another_state_count(self, tmp_path, capsys):
        # a three-state tree on a four-state instance of the same channels
        three = write_instance(tmp_path, seed=0, name="i3.json", n=3, state_count=3)
        four = write_instance(tmp_path, seed=0, name="i4.json", n=3, state_count=4)
        tree = tmp_path / "t3.json"
        assert run("oracle", three, "-o", tree) == 0
        tree.write_text(json.dumps(json.loads(tree.read_text())["tree"]))
        assert run("simulate", four, "--policy", tree, "--slots", 200) == 2
        err = capsys.readouterr().err
        assert "not a usable policy" in err and "3 states" in err


class TestFileErrors:
    """Files that cannot be read or written are input errors (exit 2)
    with a one-line message, never a traceback."""

    @staticmethod
    def _fails_cleanly(capsys, *argv):
        assert run(*argv) == INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_check_a_directory(self, tmp_path, capsys):
        assert run("check", tmp_path) == INPUT_ERROR
        (result,) = json.loads(capsys.readouterr().out)
        assert result == {
            "file": str(tmp_path),
            "ok": False,
            "error": f"cannot read {tmp_path}: Is a directory",
        }

    def test_solve_a_directory(self, tmp_path, capsys):
        err = self._fails_cleanly(capsys, "solve", tmp_path)
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_simulate_a_policy_directory(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=3)
        self._fails_cleanly(capsys, "simulate", ipath, "--policy", tmp_path)

    def test_instance_not_utf8(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        doc = json.loads(path.read_text())
        doc["channels"][0]["name"] = "caf\u00e9"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        err = self._fails_cleanly(capsys, "solve", path)
        assert err.startswith(f"error: {path}: not UTF-8 text (")
        assert run("check", path) == INPUT_ERROR
        assert "not UTF-8 text" in json.loads(capsys.readouterr().out)[0]["error"]

    def test_gen_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.json"
        err = self._fails_cleanly(capsys, "gen", "-n", 2, "-o", out)
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_dot_into_a_missing_directory(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, seed=8, n=3)
        dot = tmp_path / "missing" / "dir" / "t.dot"
        err = self._fails_cleanly(capsys, "oracle", ipath, "--dot", dot)
        assert err == f"error: cannot write {dot}: No such file or directory\n"

    def test_load_messages(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.json"
        err = self._fails_cleanly(capsys, "solve", ghost)
        assert err == f"error: no such file: {ghost}\n"
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        err = self._fails_cleanly(capsys, "solve", junk)
        assert err == (
            f"error: {junk}: not valid JSON (Expecting property name enclosed "
            "in double quotes: line 1 column 2 (char 1))\n"
        )
        path = write_instance(tmp_path)
        doc = json.loads(path.read_text())
        doc["channels"][1]["cost"] = float("nan")
        path.write_text(json.dumps(doc))
        err = self._fails_cleanly(capsys, "solve", path)
        assert err == f"error: {path}: non-finite: NaN is not a finite number\n"

    @pytest.mark.parametrize(
        "field, value",
        [("cost", "abc"), ("probs", ["x", 0.5]), ("rewards", "zz")],
    )
    def test_malformed_numbers(self, tmp_path, capsys, field, value):
        path = write_instance(tmp_path)
        doc = json.loads(path.read_text())
        if field == "rewards":
            doc["rewards"] = value
        else:
            doc["channels"][0][field] = value
        path.write_text(json.dumps(doc))
        assert run("check", path) == INPUT_ERROR
        (result,) = json.loads(capsys.readouterr().out)
        assert [v["code"] for v in result["violations"]] == ["bad-document"]
        self._fails_cleanly(capsys, "solve", path)


# what a mutation puts in place of a document's value
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(),  # NaN and the infinities among them
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
# a short replay, for every simulate run below
SIMULATE = ("--slots", 40, "--replications", 2, "--threads", 1)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value somewhere inside it deleted or replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.integers(0, 7)) == 0:
            del node[key]
            return doc
        else:
            node[key] = draw(ODD_VALUES)
            return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid instance file and one valid document of each kind."""
    tmp = tmp_path_factory.mktemp("documents")
    ipath = write_instance(tmp, seed=7)
    equal = write_instance(tmp, seed=7, name="equal.json", cost_regime="equal")
    runs = {
        "threshold": ["solve", ipath],
        "decision-tree": ["oracle", ipath],
        "prefix-tree": ["solve", equal, "--mode", "additive"],
        "mixed": ["solve", ipath, "--mode", "unsaturated", "--rate", 0.5],
    }
    docs = {"instance": json.loads(ipath.read_text())}
    for kind, argv in runs.items():
        out = tmp / f"{kind}.json"
        assert run(*argv, "-o", out) == 0
        doc = json.loads(out.read_text())
        docs[kind] = doc["tree" if kind == "decision-tree" else "policy"]
        assert docs[kind]["kind"] == kind
        out.write_text(json.dumps(docs[kind]))
        assert run("simulate", ipath, "--policy", out, *SIMULATE, "-o", tmp / "sim.json") == 0
    return tmp, ipath, docs


def _exits_cleanly(*argv):
    """Run one command: exit 0 or 2, with JSON out or a one-line error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(*argv)
    assert code in (0, INPUT_ERROR)
    if code == 0 or argv[0] == "check":
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestMutatedDocuments:
    """A valid document with one value deleted or replaced by null, a
    bool, a number, NaN, a string, a list or an object is either still
    usable or refused with exit 2: never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_instance(self, documents, data):
        tmp, _, docs = documents
        path = tmp / "mutated-instance.json"
        path.write_text(json.dumps(data.draw(mutated(docs["instance"]))))
        _exits_cleanly("check", path)
        _exits_cleanly("solve", path)
        _exits_cleanly("oracle", path)
        _exits_cleanly("simulate", path, "--policy", tmp / "threshold.json", *SIMULATE)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["threshold", "decision-tree", "prefix-tree", "mixed"]),
        data=st.data(),
    )
    def test_policy(self, documents, kind, data):
        tmp, ipath, docs = documents
        path = tmp / "mutated-policy.json"
        path.write_text(json.dumps(data.draw(mutated(docs[kind]))))
        _exits_cleanly("simulate", ipath, "--policy", path, *SIMULATE)

    # a bool or a numeric string where a number belongs used to be read
    # as one; now it is refused
    @pytest.mark.parametrize("value", [True, "0.25"])
    @pytest.mark.parametrize(
        "where", [("rewards", 1), ("channels", 0, "cost"), ("channels", 0, "probs", 0)]
    )
    def test_instance_numbers_are_strict(self, documents, tmp_path, capsys, where, value):
        doc = copy.deepcopy(documents[2]["instance"])
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert run("check", path) == INPUT_ERROR
        (result,) = json.loads(capsys.readouterr().out)
        assert [v["code"] for v in result["violations"]] == ["bad-document"]
        assert run("solve", path) == INPUT_ERROR

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("threshold", "threshold", "0.5"),
            ("threshold", "threshold", True),
            ("mixed", "alpha", "0.25"),
            ("mixed", "alpha", False),
            ("mixed", "arrival_rate", "0.5"),
        ],
    )
    def test_policy_numbers_are_strict(self, documents, capsys, kind, field, value):
        tmp, ipath, docs = documents
        path = tmp / "typed-policy.json"
        path.write_text(json.dumps({**docs[kind], field: value}))
        assert run("simulate", ipath, "--policy", path, *SIMULATE) == INPUT_ERROR
        err = capsys.readouterr().err
        assert f"{field} must be a finite number, got {value!r}" in err


class TestParserReuse:
    """``main`` builds its parser once and keeps no state between calls."""

    def test_one_parser_per_process(self, tmp_path, capsys):
        parser = _build_parser()
        path = write_instance(tmp_path)
        for argv in (["check", path], ["solve", path], ["gen", "-n", 2]):
            assert run(*argv) == 0
        assert _build_parser() is parser

    def test_options_do_not_carry_over(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        assert run("solve", path) == 0
        plain = capsys.readouterr().out
        assert run("solve", path, "--threshold", 0.2) == 0
        assert capsys.readouterr().out != plain
        assert run("solve", path) == 0
        assert capsys.readouterr().out == plain

    def test_usage_error_leaves_the_next_call_alone(self, tmp_path, capsys):
        path = write_instance(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("solve", path, "--mode", "bogus")
        assert exc.value.code == 2
        capsys.readouterr()
        assert run("check", path) == 0
        assert json.loads(capsys.readouterr().out) == [{"file": str(path), "ok": True}]


REPO = Path(__file__).resolve().parents[1]


def _run_script(tmp_path, *argv):
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path / "bin"), env.get("PATH", "")])
    src = str(Path(po.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        ["probeopt", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


def test_installed_entry_point(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "probeopt" in scripts
    module, attr = scripts["probeopt"].split(":")

    # the launcher an installer writes for a console_scripts entry
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "probeopt"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)

    out = tmp_path / "inst.json"
    proc = _run_script(tmp_path, "gen", "-n", 2, "-o", out)
    assert proc.returncode == 0, proc.stderr
    assert po.load_instance(out).n == 2

    # exit codes must pass through: sys.exit(None) would read as success
    proc = _run_script(tmp_path, "check", tmp_path / "ghost.json")
    assert proc.returncode == 2, proc.stderr


def test_sdist_declares_console_script(tmp_path):
    pytest.importorskip("setuptools.build_meta")
    # build in a copy: setuptools writes an egg-info next to the sources
    proj = tmp_path / "proj"
    proj.mkdir()
    shutil.copy(REPO / "pyproject.toml", proj)
    shutil.copytree(
        REPO / "src", proj / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import setuptools.build_meta as b; print(b.build_sdist('dist'))"],
        capture_output=True,
        text=True,
        cwd=proj,
    )
    assert proc.returncode == 0, proc.stderr
    archive = proj / "dist" / proc.stdout.strip().splitlines()[-1]
    with tarfile.open(archive) as tar:
        names = tar.getnames()
        entries = [n for n in names if n.endswith("probeopt.egg-info/entry_points.txt")]
        assert entries, names
        text = tar.extractfile(entries[0]).read().decode()
    section = text.split("[console_scripts]", 1)[1].split("[", 1)[0]
    assert "probeopt = probeopt.cli:main" in section.splitlines()
    assert any(n.endswith("/src/probeopt/cli.py") for n in names)
