"""Brute-force ground truth: the bitmask table, tree extraction, class
restrictions, structural diagnostics, and the rate-capped benchmark.

The layered pass is pinned against the mask-by-mask table and the
re-pricing tree extraction kept in ``helpers`` (``reference_table``,
``reference_tree``), and the dual bound certified at the closed-form
kink against the cut search opened from both ends
(``end_cut_rate_constrained_optimum``)."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
import probeopt.oracle as oracle_module
from probeopt import multi_state
from helpers import (
    draw_instance,
    end_cut_rate_constrained_optimum,
    grid_dual_bound,
    reference_table,
    reference_tree,
    slow_report,
)

TIE_PREFERENCES = ("default", "prefer-backup", "prefer-silent", "prefer-transmit")


def run_script(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(po.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExactDP:
    def test_tree_prices_like_the_table(self):
        for seed in range(25):
            inst = draw_instance(seed, n_lo=1, n_hi=6, k_hi=4)
            res = po.exact_dp(inst)
            tree = res.tree
            tree.validate()
            rep = po.evaluate_policy(inst, tree)
            assert rep.gain == pytest.approx(res.value, abs=1e-9)

    def test_tree_execution_matches_analytic_report(self):
        for seed in range(12):
            inst = draw_instance(seed, n_lo=1, n_hi=4, k_hi=3)
            tree = po.exact_dp(inst).tree
            rep = po.evaluate_policy(inst, tree)
            gain, tx, cost, mass = slow_report(inst, tree)
            assert rep.gain == pytest.approx(gain, abs=1e-12)
            assert rep.transmit_prob == pytest.approx(tx, abs=1e-12)
            np.testing.assert_allclose(rep.state_mass, mass, atol=1e-12)

    def test_two_state_agreement(self):
        for seed in range(30):
            inst = draw_instance(seed, n_hi=7, k_lo=2, k_hi=2)
            assert po.exact_dp(inst).value == pytest.approx(
                po.evaluate_policy(inst, po.two_state_opt(inst)).gain, abs=1e-9
            )

    def test_value_dominates_every_level_policy(self):
        for seed in range(20):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            opt = po.exact_dp(inst).value
            heur = po.evaluate_policy(inst, po.best_reserve_backup(inst)).gain
            assert heur <= opt + 1e-9

    def test_size_guard(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0), np.full((2, 15), 0.5), np.zeros(15)
        )
        with pytest.raises(po.TooLarge):
            po.exact_dp(inst)
        po.exact_dp(inst, po.OracleOptions(max_channels=15))  # opt-in works

    @pytest.mark.parametrize("cap", [0, -3])
    def test_nonpositive_channel_cap_is_inconsistent(self, cap):
        with pytest.raises(oracle_module.InconsistentOptions):
            po.OracleOptions(max_channels=cap)


CHARGES = st.sampled_from([None, 0.0, 0.3, "r_max"])
RESTRICTIONS = st.sampled_from(
    [
        {},
        {"allow_no_transmit": False},
        {"forbidden_probe": 0},
        {"allowed_backups": ()},
        {"allowed_backups": (1,)},
    ]
)


def layered_case(seed, charge, restriction, negative_base, preference="default"):
    """The instance and options one layered-pass example runs on."""
    inst = draw_instance(seed, n_lo=2, n_hi=8, k_hi=5)
    if negative_base:
        # the oracle takes an unvalidated instance with a negative
        # base reward, where silence can beat every send
        inst = po.Instance.from_arrays(
            (-0.5, *inst.rewards[1:]), inst.probs, inst.costs, validate=False
        )
    opts = po.OracleOptions(
        altered_threshold=inst.max_reward if charge == "r_max" else charge,
        tie_preference=preference,
        **restriction,
    )
    return inst, opts


class TestLayeredPass:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(TIE_PREFERENCES),
        CHARGES,
        RESTRICTIONS,
        st.booleans(),
    )
    def test_matches_the_mask_by_mask_reference(
        self, seed, preference, charge, restriction, negative_base
    ):
        inst, opts = layered_case(seed, charge, restriction, negative_base, preference)
        res = po.exact_dp(inst, opts)
        V = reference_table(inst, opts)
        assert np.array_equal(np.isneginf(res.table), np.isneginf(V))
        live = np.isfinite(V)
        tol = 1e-15 * max(1.0, inst.max_reward)
        assert np.abs(res.table[live] - V[live]).max() <= tol
        assert res.tree.to_dict() == reference_tree(inst, opts, V).to_dict()
        sends = po.evaluate_policy(inst, res.tree).transmit_prob
        assert abs(res.transmit_prob - sends) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.lists(st.sampled_from(TIE_PREFERENCES), min_size=2, max_size=3),
        CHARGES,
        RESTRICTIONS,
        st.booleans(),
    )
    def test_one_pass_reads_several_tie_preferences(
        self, seed, preferences, charge, restriction, negative_base
    ):
        # V does not depend on how ties break: a pass that reads several
        # preferences gives each one's table, actions and transmit
        # probability exactly as its own pass does
        inst, opts = layered_case(seed, charge, restriction, negative_base)
        V, reads = oracle_module._tabulate(inst, opts, tuple(preferences))
        ref = reference_table(inst, opts)
        live = np.isfinite(ref)
        assert np.array_equal(np.isneginf(V), np.isneginf(ref))
        assert np.abs(V[live] - ref[live]).max() <= 1e-15 * max(1.0, inst.max_reward)
        for preference, (A, transmit) in zip(preferences, reads):
            single = dataclasses.replace(opts, tie_preference=preference)
            res = po.exact_dp(inst, single)
            assert np.array_equal(V, res.table)
            assert np.array_equal(A, res.actions)
            assert transmit == res.transmit_prob
            pair = dataclasses.replace(res, actions=A, transmit_prob=transmit)
            assert pair.tree.to_dict() == reference_tree(inst, single, ref).to_dict()

    def test_shapes_taking_turns_share_one_lattice_per_channel_count(self):
        # solves that alternate between shapes reuse each channel
        # count's lattice, cut anew for each K, and give the tables a
        # fresh build gives; no caller can write to the shared arrays
        insts = [
            draw_instance(seed, n_lo=n, n_hi=n, k_lo=k, k_hi=k)
            for seed, (n, k) in enumerate([(5, 2), (5, 4), (7, 3), (5, 2), (3, 5), (7, 2)])
        ]
        fresh = []
        for inst in insts:
            oracle_module._lattice.cache_clear()
            fresh.append(po.exact_dp(inst))
        oracle_module._lattice.cache_clear()
        for _ in range(2):
            for inst, want in zip(insts, fresh):
                res = po.exact_dp(inst)
                assert res.value == want.value
                assert np.array_equal(res.table, want.table)
                assert np.array_equal(res.actions, want.actions)
        assert oracle_module._lattice.cache_info().currsize == 3
        for n in (3, 5, 7):
            for arr in oracle_module._lattice(n):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = arr[0]

    def test_single_channel(self):
        inst = po.Instance.from_arrays((0.0, 1.0), [[0.4], [0.6]], (0.1,))
        for opts in (po.OracleOptions(), po.OracleOptions(allowed_backups=())):
            res = po.exact_dp(inst, opts)
            np.testing.assert_array_equal(res.table, reference_table(inst, opts))
            assert res.tree.to_dict() == reference_tree(inst, opts).to_dict()

    def test_drifted_extraction_raises_even_without_asserts(self):
        script = """
            import dataclasses
            import probeopt as po
            from probeopt import oracle

            if __debug__ is not {debug}:
                raise SystemExit("asserts are not as this run expects")
            inst = po.counterexample_instance(0.1)
            res = po.exact_dp(inst)
            if res.actions[0, 0] < 0:
                raise SystemExit("the optimum should probe first")
            actions = res.actions.copy()
            actions[0, 0] = oracle._SILENT  # worth 0, the table says more
            try:
                dataclasses.replace(res, actions=actions).tree
            except oracle.ExtractionDrift as exc:
                print(exc)
            else:
                raise SystemExit("a doctored action table went unnoticed")
            """
        for flags, debug in (((), True), (("-O",), False)):
            proc = run_script(script.format(debug=debug), *flags)
            assert proc.returncode == 0, proc.stderr
            assert "extracted tree is worth 0.0" in proc.stdout


class TestRestrictions:
    def walk(self, node, probes, backups, silents):
        if hasattr(node, "children"):
            probes.add(node.channel)
            for child in node.children:
                self.walk(child, probes, backups, silents)
        elif type(node).__name__ == "TransmitBackup":
            backups.add(node.channel)
        elif type(node).__name__ == "NoTransmit":
            silents.append(node)

    def collect(self, tree):
        probes, backups, silents = set(), set(), []
        self.walk(tree.root, probes, backups, silents)
        return probes, backups, silents

    def test_forbidden_probe_respected(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=3, n_hi=5, k_hi=3)
            tree = po.exact_dp(inst, po.OracleOptions(forbidden_probe=0)).tree
            probes, _, _ = self.collect(tree)
            assert 0 not in probes

    def test_backup_whitelist_respected(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=3, n_hi=5, k_hi=3)
            tree = po.exact_dp(inst, po.OracleOptions(allowed_backups=(1,))).tree
            _, backups, _ = self.collect(tree)
            assert backups <= {1}
            tree = po.exact_dp(inst, po.OracleOptions(allowed_backups=())).tree
            _, backups, _ = self.collect(tree)
            assert backups == set()

    def test_forced_transmission(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_hi=3)
            tree = po.exact_dp(
                inst, po.OracleOptions(allow_no_transmit=False)
            ).tree
            _, _, silents = self.collect(tree)
            assert silents == []

    def test_restrictions_only_lower_the_value(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_hi=3)
            free = po.exact_dp(inst).value
            for opts in (
                po.OracleOptions(allowed_backups=()),
                po.OracleOptions(forbidden_probe=0),
                po.OracleOptions(allow_no_transmit=False),
            ):
                assert po.exact_dp(inst, opts).value <= free + 1e-12

    def test_zero_charge_equals_plain(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_hi=3)
            assert po.altered_optimum(inst, 0.0).value == pytest.approx(
                po.exact_dp(inst).value, abs=1e-12
            )

    def test_prohibitive_charge_never_transmits(self):
        inst = draw_instance(4, n_lo=2, n_hi=4)
        res = po.altered_optimum(inst, inst.max_reward + 0.1)
        assert res.value == 0.0

    def test_tie_preferences_share_the_value(self):
        inst = draw_instance(8, n_lo=3, n_hi=5, k_hi=3)
        vals = {
            pref: po.exact_dp(inst, po.OracleOptions(tie_preference=pref)).value
            for pref in ("default", "prefer-backup", "prefer-silent", "prefer-transmit")
        }
        assert max(vals.values()) - min(vals.values()) < 1e-12


class TestAdaptivityExample:
    """The stock three-channel instance whose optimal tree is genuinely
    adaptive: the second probe depends on the first observation."""

    def test_tree_shape(self):
        inst = po.counterexample_instance(0.1)
        tree = po.exact_dp(inst).tree
        root = tree.root
        assert root.channel == 0
        # both lower readings continue adaptively, and with different
        # channels than a fixed order could manage: state 0 probes
        # channel 1, state 1 probes channel 1 then falls through to 2,
        # V(probe 1) = 0.57835 vs V(probe 2) = 0.5765 on that branch
        assert root.children[0].channel == 1
        assert root.children[1].channel == 1
        assert root.children[1].children[0].channel == 2
        # a top observation is already the best possible, so that branch
        # must close by transmitting it
        top = root.children[2]
        assert type(top).__name__ == "TransmitProbed"
        assert top.state == 2

    def test_level_policy_scores(self):
        inst = po.counterexample_instance(0.1)
        pol = po.reserve_backup_policy(inst, 2, None)
        assert pol.levels == ((2, (0, 1)),)
        # a top-level probe's score: its tail mean less cost per tail mass
        for j, score in ((0, 0.987990), (1, 0.9877551)):
            tail = inst.probs[2:, j]
            mean = tail @ inst.rewards[2:] / tail.sum()
            assert mean - inst.costs[j] / tail.sum() == pytest.approx(score, abs=1e-6)

    def test_level_policy_nearly_optimal(self):
        inst = po.counterexample_instance(0.1)
        opt = po.exact_dp(inst).value
        heur = po.evaluate_policy(inst, po.best_reserve_backup(inst)).gain
        assert heur < opt  # strictly: adaptivity really buys something
        assert heur >= 0.998 * opt


class TestStructureDiagnostics:
    def test_fallback_concentration_holds_on_sweep(self):
        # optimal trees send blind only when that beats the best
        # observation, and only on the best free backup, whichever way
        # ties break
        tol = oracle_module.TIE_TOL
        for seed in range(30):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_lo=2, k_hi=3)
            blind = inst.blind_rewards
            default = po.exact_dp(inst)
            backup = po.exact_dp(inst, po.OracleOptions(tie_preference="prefer-backup"))
            assert abs(default.value - backup.value) <= 1e-9
            for res in (default, backup):
                for node, _, probed in res.tree._walk():
                    if not isinstance(node, oracle_module.TransmitBackup):
                        continue
                    sent = blind[node.channel]
                    if probed:
                        assert sent >= inst.rewards[max(s for _, s in probed)] - tol
                    free = sorted(set(range(inst.n)) - {j for j, _ in probed})
                    assert sent >= blind[free].max() - tol, f"seed {seed}"

    def test_dot_export(self):
        inst = draw_instance(2, n_lo=2, n_hi=3)
        dot = po.tree_to_dot(po.exact_dp(inst).tree)
        assert dot.startswith("digraph")
        assert "send" in dot and "probe" in dot

    def test_tree_serialization_round_trip(self):
        inst = draw_instance(6, n_lo=2, n_hi=4, k_hi=3)
        tree = po.exact_dp(inst).tree
        back = po.policy_from_dict(tree.to_dict(), inst)
        assert po.evaluate_policy(inst, back).gain == pytest.approx(
            po.evaluate_policy(inst, tree).gain, abs=1e-15
        )

    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2"])
    def test_tree_states_must_be_integers(self, value):
        inst = po.generate(po.GenSpec(n=3, state_count=3), 0)
        for edit in ("state", "state_count"):
            doc = po.exact_dp(inst).tree.to_dict()
            if edit == "state_count":
                doc["state_count"] = value
            else:
                node = doc["root"]
                while "transmit" not in node:
                    node = node["children"][-1]
                node["transmit"]["state"] = value
            with pytest.raises(po.PolicyStructureError):
                po.policy_from_dict(doc, inst)


class TestTreeChecks:
    """Every path of a tree is walked by ``DecisionTree._walk``, which
    checks the game rules; evaluating, simulating and loading a tree
    all go through it."""

    def test_illegal_hand_built_tree_is_refused(self):
        inst = po.generate(po.GenSpec(n=3, state_count=3), 0)
        silent = oracle_module.NoTransmit()
        twice = oracle_module.Probe(0, (silent,) * 3)
        tree = po.DecisionTree(
            root=oracle_module.Probe(0, (twice, silent, silent)), state_count=3, n=3
        )
        with pytest.raises(po.RepeatedProbe):
            po.evaluate_policy(inst, tree)
        with pytest.raises(po.RepeatedProbe):
            tree.validate()

    def test_tree_is_checked_against_the_instance(self):
        tree = po.exact_dp(po.generate(po.GenSpec(n=3, state_count=3), 0)).tree
        four_states = po.generate(po.GenSpec(n=3, state_count=4), 0)
        with pytest.raises(po.PolicyStructureError, match="states"):
            po.evaluate_policy(four_states, tree)
        with pytest.raises(po.PolicyStructureError):
            po.policy_from_dict(tree.to_dict(), four_states)
        with pytest.raises(po.PolicyStructureError):
            po.simulate_saturated(four_states, tree, po.SimConfig(10, 1))
        # a tree over more channels than the instance holds
        narrow = po.generate(po.GenSpec(n=2, state_count=3), 0)
        wide = po.DecisionTree(
            root=oracle_module.TransmitBackup(2), state_count=3, n=3
        )
        with pytest.raises(po.UnknownChannel):
            po.evaluate_policy(narrow, wide)

    @pytest.mark.parametrize(
        "node", [{}, {"bakup": "1"}, {"silent": False}, {"silent": 1}, "silent", None]
    )
    def test_unknown_nodes_are_refused(self, node):
        inst = po.generate(po.GenSpec(n=3, state_count=3), 0)
        doc = po.exact_dp(inst).tree.to_dict()
        for target in ("root", "leaf"):
            edited = json.loads(json.dumps(doc))
            if target == "root":
                edited["root"] = node
            else:
                parent = edited["root"]
                while "children" in parent["children"][0]:
                    parent = parent["children"][0]
                parent["children"][0] = node
            for instance in (None, inst):
                with pytest.raises(po.PolicyStructureError):
                    po.policy_from_dict(edited, instance)

    def test_equal_subtrees_are_one_object(self):
        inst = po.generate(po.GenSpec(n=12, state_count=4), 0)
        tree = po.exact_dp(inst).tree
        walk = list(tree._walk(inst))
        assert len(walk) == 37_317
        assert len({id(node) for node, _, _ in walk}) == 89
        # the document expands the shared nodes, one per path, as before
        text = json.dumps(tree.to_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "20124f7ceabab617a735c5f30e43ca0398b4ba8f65e884968b675762d51f3c92"
        )


def counted_passes(mp):
    """Record the charge and tie preferences of every DP pass made
    while ``mp`` is active."""
    passes = []
    tabulate = oracle_module._tabulate

    def counted(instance, options, preferences):
        passes.append((options.altered_threshold, preferences))
        return tabulate(instance, options, preferences)

    mp.setattr(oracle_module, "_tabulate", counted)
    return passes


class TestRateCappedBenchmark:
    def test_bound_and_certificate(self):
        for seed in (0, 3, 9):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_lo=2, k_hi=3)
            for rate in (0.3, 0.6):
                bound = po.rate_constrained_optimum(inst, rate)
                assert 0.0 <= bound.multiplier <= inst.max_reward
                cert = po.dual_certificate(inst, rate, bound)
                assert cert.ok, f"seed {seed} rate {rate}"
                assert cert.primal_value <= bound.value + 1e-9
                assert cert.gap <= 1e-6
                mix_rate = cert.alpha * cert.transmit_hi + (
                    1 - cert.alpha
                ) * cert.transmit_lo
                assert mix_rate == pytest.approx(rate, abs=1e-9)

    def test_bound_rises_with_the_rate_cap(self):
        inst = draw_instance(1, n_lo=3, n_hi=5, k_lo=2, k_hi=3)
        vals = [
            po.rate_constrained_optimum(inst, rate).value
            for rate in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_rate_domain(self):
        inst = draw_instance(1, n_lo=2, n_hi=3)
        with pytest.raises(po.ProbingError):
            po.rate_constrained_optimum(inst, 0.0)
        with pytest.raises(po.ProbingError):
            po.rate_constrained_optimum(inst, 1.0)

    def test_exact_minimum_against_the_grid_reference(self):
        for seed in range(12):
            inst = draw_instance(7000 + seed, n_lo=1, n_hi=6, k_hi=4)
            for rate in (0.2, 0.5, 0.8):
                bound = po.rate_constrained_optimum(inst, rate)
                assert bound.value <= grid_dual_bound(inst, rate) + 1e-12
                # a primal mixture within 1e-9 proves the bound exact
                cert = po.dual_certificate(inst, rate, bound)
                assert cert.gap <= 1e-9, (seed, rate)

    def test_rate_out_of_reach_stops_at_zero_charge(self):
        # with rewards >= 0 the transmit-greedy optimum at charge 0 always
        # transmits, so leaving the rate out of reach takes a negative
        # base reward; the oracle does not require a validated instance
        inst = po.Instance.from_arrays(
            (-0.5, 1.0), [[0.5, 0.6], [0.5, 0.4]], (0.05, 0.0), validate=False
        )
        greedy = po.altered_optimum(inst, 0.0, tie_preference="prefer-transmit")
        top = po.evaluate_policy(inst, greedy.tree).transmit_prob
        rate = (top + 1.0) / 2.0
        assert top < rate < 1.0
        bound = po.rate_constrained_optimum(inst, rate)
        assert bound.multiplier == 0.0
        assert bound.value == po.exact_dp(inst).value
        cert = po.dual_certificate(inst, rate, bound)
        assert cert.ok is False
        assert np.isnan(cert.alpha)

    def test_matches_the_end_cut_reference(self):
        # the certified pass, and the cut search it opens on a miss,
        # against the search opened from the ends 0 and r_max
        for seed in range(150):
            inst = draw_instance(seed)
            for rate in (0.2, 0.5, 0.8):
                bound = po.rate_constrained_optimum(inst, rate)
                ref = end_cut_rate_constrained_optimum(inst, rate)
                where = f"seed {seed} rate {rate}"
                assert abs(bound.value - ref.value) <= 1e-12, where
                assert abs(bound.multiplier - ref.multiplier) <= 1e-12, where
                cert = po.dual_certificate(inst, rate, bound)
                if po.dual_certificate(inst, rate, ref).ok:
                    assert cert.ok, where
                    assert cert.gap <= 1e-9, where

    @pytest.mark.parametrize("scale, end", [(0.5, "prefer-silent"), (1.5, "prefer-transmit")])
    def test_a_wrong_seed_still_gives_the_exact_bound(self, scale, end, monkeypatch):
        # the certificate does not trust the closed form: from a seed
        # off the minimizer the pass misses, both trees sending on one
        # side of the rate, and serves as that side's cut, so only the
        # end on the other side is solved (r_max when the seed is low)
        kink = multi_state._kink_price
        monkeypatch.setattr(
            oracle_module,
            "_kink_price",
            lambda inst, rate: min(scale * kink(inst, rate), inst.max_reward),
        )
        passes = counted_passes(monkeypatch)
        ends = []
        for seed in range(20):
            inst = draw_instance(seed)
            for rate in (0.2, 0.5, 0.8):
                passes.clear()
                bound = po.rate_constrained_optimum(inst, rate)
                ref = end_cut_rate_constrained_optimum(inst, rate)
                where = f"seed {seed} rate {rate}"
                assert abs(bound.value - ref.value) <= 1e-12, where
                assert abs(bound.multiplier - ref.multiplier) <= 1e-12, where
                if bound.evaluations > 1:
                    solved = [p for _, (p, *more) in passes[1:bound.evaluations]
                              if p != "default"]
                    assert len(solved) == 1, where
                    ends += solved
        assert ends.count(end) >= 10

    def test_kink_outside_the_range_skips_the_pass(self, monkeypatch):
        # every reward below 0 puts r_max below L* >= 0; the unvalidated
        # instance is solved from the ends alone, as the reference does
        inst = po.Instance.from_arrays(
            (-0.5, -0.1), [[0.5, 0.6], [0.5, 0.4]], (0.05, 0.0), validate=False
        )
        assert not 0.0 <= multi_state._kink_price(inst, 0.5) <= inst.max_reward
        passes = counted_passes(monkeypatch)
        bound = po.rate_constrained_optimum(inst, 0.5)
        assert passes == [(0.0, ("prefer-transmit",))]
        ref = end_cut_rate_constrained_optimum(inst, 0.5)
        assert (bound.value, bound.multiplier, bound.evaluations) == (
            ref.value, ref.multiplier, ref.evaluations
        )
        assert bound.tree_hi.to_dict() == ref.tree_hi.to_dict()

    def test_evaluations_count_dp_solves(self, monkeypatch):
        passes = counted_passes(monkeypatch)
        inst = draw_instance(11, n_lo=4, n_hi=6, k_lo=3, k_hi=4)
        bound = po.rate_constrained_optimum(inst, 0.5)
        # certified at L*: one pass reads both tie preferences
        x = multi_state._kink_price(inst, 0.5)
        assert passes == [(x, ("prefer-transmit", "prefer-silent"))]
        assert bound.evaluations == 1 and bound.multiplier == x
        passes.clear()
        po.dual_certificate(inst, 0.5, bound)
        assert passes == []
        # both trees at L* send below the rate: the prefer-transmit one
        # is the cut on the right, so the pass at 0 and one cut-search
        # step follow, and r_max is never solved
        inst = draw_instance(5, n_lo=2, n_hi=6, k_lo=2, k_hi=4)
        bound = po.rate_constrained_optimum(inst, 0.5)
        x = multi_state._kink_price(inst, 0.5)
        assert [p[1] for p in passes] == [
            ("prefer-transmit", "prefer-silent"), ("prefer-transmit",), ("default",)
        ]
        assert [p[0] for p in passes[:2]] == [x, 0.0]
        assert 0.0 < bound.multiplier < x
        assert bound.evaluations == 3 == len(passes)
        assert end_cut_rate_constrained_optimum(inst, 0.5).evaluations == 4


def test_bound_and_certificate_need_no_scipy():
    proc = run_script(
        """
        import sys
        sys.modules["scipy"] = None
        import probeopt as po
        inst = po.Instance.from_arrays(
            (0.0, 0.4, 1.0), [[0.5, 0.3], [0.2, 0.5], [0.3, 0.2]], (0.05, 0.02)
        )
        bound = po.rate_constrained_optimum(inst, 0.5)
        assert po.dual_certificate(inst, 0.5, bound).ok
        """
    )
    assert proc.returncode == 0, proc.stderr
