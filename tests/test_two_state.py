"""On/off channels: the fallback search at K = 2, the probe-until-on
policy as a one-level list, and legacy ``exhaust`` documents.  Ground
truth throughout is the unrestricted oracle, the loop-everything
walkers and the closed-form fallback scan in helpers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from helpers import draw_instance, run_exhaust, slow_report, two_state_scan


def worked_example():
    """Two channels: A on 80% of the time at cost 0.05, B on 50% at
    cost 0.01.  Worked out by hand long ago; the numbers below are
    load-bearing."""
    return po.Instance.from_arrays(
        (0.0, 1.0),
        [[0.2, 0.5], [0.8, 0.5]],
        (0.05, 0.01),
        names=("A", "B"),
    )


class TestWorkedExample:
    def test_probe_sets(self):
        inst = worked_example()
        assert po.probe_set(inst, 0) == (1,)
        assert po.probe_set(inst, 1) == (0,)

    def test_gains_per_fallback(self):
        inst = worked_example()
        scan = two_state_scan(inst)
        gains = [
            po.evaluate_policy(inst, po.reserve_backup_policy(inst, j)).gain
            for j in range(inst.n)
        ]
        # keep A blind, probe B: 0.5 + 0.5 * 0.8 - 0.01
        assert scan.channel_gains[0] == pytest.approx(0.89, abs=1e-12)
        assert gains[0] == pytest.approx(0.89, abs=1e-12)
        # keep B blind, probe A: 0.8 + 0.2 * 0.5 - 0.05
        assert scan.channel_gains[1] == pytest.approx(0.85, abs=1e-12)
        assert gains[1] == pytest.approx(0.85, abs=1e-12)
        assert scan.best == 0
        assert scan.best_gain == pytest.approx(0.89, abs=1e-12)

    def test_full_policy(self):
        inst = worked_example()
        pol = po.two_state_opt(inst)
        assert isinstance(pol, po.ThresholdPolicy)
        assert pol.backup == 0
        assert pol.threshold is None
        assert pol.levels == ((1, (1,)),)
        rep = po.evaluate_policy(inst, pol)
        assert rep.gain == pytest.approx(0.89, abs=1e-12)
        assert rep.transmit_prob == 1.0


class TestCorners:
    def test_single_channel_blind(self):
        # probing a lone coin at cost 0.1 never pays: 0.5 - 0.1 < 0.5
        inst = po.Instance.from_arrays((0.0, 1.0), [[0.5], [0.5]], (0.1,))
        pol = po.two_state_opt(inst)
        assert pol.levels == ()
        assert po.evaluate_policy(inst, pol).gain == pytest.approx(0.5)

    def test_identical_expensive_pair(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[0.1, 0.1], [0.9, 0.9]], (0.5, 0.5)
        )
        pol = po.two_state_opt(inst)
        assert pol.levels == ()
        assert po.evaluate_policy(inst, pol).gain == pytest.approx(0.9)

    def test_free_probing_probes_everything_useful(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[0.4, 0.6, 0.5], [0.6, 0.4, 0.5]], (0.0, 0.0, 0.0)
        )
        pol = po.two_state_opt(inst)
        gain = po.evaluate_policy(inst, pol).gain
        assert gain == pytest.approx(po.exact_dp(inst).value, abs=1e-12)

    def test_requires_two_states(self):
        inst = po.Instance.from_arrays(
            (0.0, 0.5, 1.0), [[0.4], [0.3], [0.3]], (0.0,)
        )
        with pytest.raises(po.TwoStateRequired):
            po.two_state_opt(inst)
        with pytest.raises(po.TwoStateRequired):
            po.probe_set(inst, 0)


def exhaust_doc(probe_order, backup):
    return {"kind": "exhaust", "probe_order": list(probe_order), "backup": backup}


class TestExhaustPolicy:
    """Probe-until-on as a one-level list, and the legacy documents
    that spelled it as its own policy kind."""

    def test_structure_checks(self):
        inst = worked_example()
        for doc, err in (
            (exhaust_doc(["2", "2"], "1"), po.RepeatedProbe),
            (exhaust_doc(["1"], "1"), po.BackupProbed),
            (exhaust_doc(["8"], "1"), po.UnknownChannel),
        ):
            with pytest.raises(err):
                po.evaluate_policy(inst, po.policy_from_dict(doc))
        with pytest.raises(po.UnknownChannel):
            po.policy_from_dict(exhaust_doc(["C"], "A"), inst)

    def test_no_backup_variant(self):
        inst = worked_example()
        pol = po.policy_from_dict(exhaust_doc(["A", "B"], None), inst)
        rep = po.evaluate_policy(inst, pol)
        # transmit iff someone is on
        assert rep.transmit_prob == pytest.approx(1.0 - 0.2 * 0.5)
        assert rep.probe_cost == pytest.approx(0.05 + 0.2 * 0.01)
        assert rep.gain == pytest.approx(0.9 - 0.052)
        sim = po.simulate_saturated(
            inst, pol, po.SimConfig(slots=20_000, replications=5, seed=1)
        )
        assert (
            abs(sim.mean_transmit - rep.transmit_prob)
            <= 5.0 * sim.se_transmit + 1e-4
        )
        assert abs(sim.mean_gain - rep.gain) <= 5.0 * sim.se_gain + 1e-4

    def test_legacy_document_with_backup(self):
        inst = worked_example()
        pol = po.policy_from_dict(exhaust_doc(["B"], "A"), inst)
        assert isinstance(pol, po.ThresholdPolicy)
        assert (pol.backup, pol.threshold, pol.levels) == (0, None, ((1, (1,)),))
        rep = po.evaluate_policy(inst, pol)
        # the figures the dedicated exhaust evaluator gave
        assert rep.gain == pytest.approx(0.89, abs=1e-12)
        assert rep.transmit_prob == pytest.approx(1.0, abs=1e-12)
        assert rep.probe_cost == pytest.approx(0.01, abs=1e-12)
        blind = po.policy_from_dict(exhaust_doc([], "B"), inst)
        assert blind.levels == ()
        assert po.evaluate_policy(inst, blind).gain == pytest.approx(0.5)

    def test_serialization_round_trip(self):
        inst = worked_example()
        pol = po.two_state_opt(inst)
        doc = pol.to_dict(inst.names)
        assert doc["kind"] == "threshold"
        back = po.policy_from_dict(doc, inst)
        assert back.levels == pol.levels
        assert back.backup == pol.backup
        assert back.threshold is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5000))
    def test_matches_slow_walker_and_level_conversion(self, seed):
        inst = draw_instance(seed, n_hi=5, k_lo=2, k_hi=2)
        scan = two_state_scan(inst)
        pol = po.two_state_opt(inst)
        assert isinstance(pol, po.ThresholdPolicy)
        rep = po.evaluate_policy(inst, pol)
        assert rep.gain == pytest.approx(scan.best_gain, abs=1e-12)
        # the search weighs no fallback too and ties within 1e-12, so
        # the winner is pinned only where the scan's top two are apart
        top = np.sort(scan.channel_gains)[-2:]
        if top.size == 2 and top[1] - top[0] > 1e-9:
            assert pol.backup == scan.best
            assert pol.probe_sequence() == scan.best_probe_order
        probes = pol.probe_sequence()
        gain, tx, cost, _ = slow_report(inst, run_exhaust(probes, pol.backup))
        assert rep.gain == pytest.approx(gain, abs=1e-12)
        assert rep.probe_cost == pytest.approx(cost, abs=1e-12)
        # without a fallback the level list sends an off channel for
        # nothing where the probe-until-on walker stays silent
        if pol.backup is not None:
            assert rep.transmit_prob == pytest.approx(tx, abs=1e-12)
        assert rep.transmit_prob == pytest.approx(slow_report(inst, pol)[1], abs=1e-12)
        # the legacy spelling of the same policy evaluates identically
        names = [str(j + 1) for j in probes]
        backup = None if pol.backup is None else str(pol.backup + 1)
        legacy = po.policy_from_dict(exhaust_doc(names, backup))
        assert po.evaluate_policy(inst, legacy).gain == rep.gain


class TestOptimality:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 20_000))
    def test_equals_oracle(self, seed):
        inst = draw_instance(seed, n_hi=8, k_lo=2, k_hi=2)
        gain = po.evaluate_policy(inst, po.two_state_opt(inst)).gain
        assert gain == pytest.approx(po.exact_dp(inst).value, abs=1e-9)

    def test_scan_agrees_with_per_fallback_evaluation(self):
        for seed in range(30):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_lo=2, k_hi=2)
            scan = two_state_scan(inst)
            for i in range(inst.n):
                direct = slow_report(inst, run_exhaust(po.probe_set(inst, i), i))[0]
                assert scan.channel_gains[i] == pytest.approx(direct, abs=1e-12)

    def test_efficiency_order_is_locally_unbeatable(self):
        # swapping any adjacent pair of probes never increases the gain
        for seed in range(25):
            inst = draw_instance(seed, n_lo=3, n_hi=6, k_lo=2, k_hi=2)
            pol = po.two_state_opt(inst)
            base = po.evaluate_policy(inst, pol).gain
            order = list(pol.probe_sequence())
            for t in range(len(order) - 1):
                swapped = order.copy()
                swapped[t], swapped[t + 1] = swapped[t + 1], swapped[t]
                alt = dataclasses.replace(pol, levels=((1, tuple(swapped)),))
                assert po.evaluate_policy(inst, alt).gain <= base + 1e-12


def positive_base_example():
    """Rewards (0.5, 1): A (p=0.6, cost 0.17), B (p=0.6, cost 0.3) and
    C (p=0.4, cost 0.13).  Keeping A blind is worth 0.8, and no probe
    ahead of it pays; a scan that assumes a zero base reward probes C
    first and lands at 0.75."""
    inst = po.Instance.from_arrays(
        (0.5, 1.0),
        [[0.4, 0.4, 0.6], [0.6, 0.6, 0.4]],
        (0.17, 0.3, 0.13),
        names=("A", "B", "C"),
        validate=False,
    )
    return po.validate_instance(inst, allow_positive_base_reward=True)


class TestPositiveBaseReward:
    def test_keeps_the_fallback_without_probing(self):
        inst = positive_base_example()
        pol = po.two_state_opt(inst)
        gain = po.evaluate_policy(inst, pol).gain
        assert gain == pytest.approx(0.8, abs=1e-12)
        assert gain == pytest.approx(po.exact_dp(inst).value, abs=1e-12)
        assert (pol.backup, pol.levels) == (0, ())
        assert po.probe_set(inst, 0) == ()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 20_000), st.floats(0.01, 0.99))
    def test_equals_oracle(self, seed, base):
        drawn = draw_instance(seed, n_hi=7, k_lo=2, k_hi=2)
        inst = po.validate_instance(
            po.Instance(rewards=(base, drawn.rewards[1]), channels=drawn.channels),
            allow_positive_base_reward=True,
        )
        gain = po.evaluate_policy(inst, po.two_state_opt(inst)).gain
        assert gain == pytest.approx(po.exact_dp(inst).value, abs=1e-9)
