"""Monte Carlo layer: seeding, arrival processes, policy dispatch,
and agreement between simulated and analytic per-slot figures.

Statistical asserts use a 5 standard-error band plus a small floor;
with fixed seeds they are deterministic, the band just documents how
much slack the sample sizes need.
"""

import numpy as np
import pytest

import probeopt as po

from helpers import draw_instance, run_exhaust, slow_report


class TestArrivals:
    def test_saturated_is_all_ones(self):
        rng = np.random.default_rng(0)
        arr = po.SaturatedArrivals().draw(rng, 50)
        assert arr.shape == (50,)
        assert np.all(arr == 1)

    def test_bernoulli_mean(self):
        rng = np.random.default_rng(1)
        arr = po.BernoulliArrivals(0.3).draw(rng, 200_000)
        assert arr.mean() == pytest.approx(0.3, abs=0.01)

    def test_bernoulli_domain(self):
        with pytest.raises(po.ProbingError):
            po.BernoulliArrivals(-0.1)
        with pytest.raises(po.ProbingError):
            po.BernoulliArrivals(1.2)

    def test_markov_stationary_rate(self):
        src = po.MarkovArrivals(q01=0.2, q10=0.3)
        assert src.rate == pytest.approx(0.4)
        rng = np.random.default_rng(2)
        arr = src.draw(rng, 200_000)
        assert arr.mean() == pytest.approx(0.4, abs=0.02)

    def test_markov_flip_frequency(self):
        # stationary flip rate is pi_off * q01 + pi_on * q10
        src = po.MarkovArrivals(q01=0.05, q10=0.05)
        rng = np.random.default_rng(3)
        arr = src.draw(rng, 100_000).astype(int)
        assert np.abs(np.diff(arr)).mean() == pytest.approx(0.05, abs=0.01)

    def test_markov_domain(self):
        for q01, q10 in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.3)):
            with pytest.raises(po.ProbingError):
                po.MarkovArrivals(q01, q10)


class TestConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(po.ProbingError):
            po.SimConfig(slots=0)
        with pytest.raises(po.ProbingError):
            po.SimConfig(replications=0)
        with pytest.raises(po.ProbingError):
            po.SimConfig(slots=-5)

    def test_thread_count_from_environment(self, monkeypatch):
        monkeypatch.setenv("PROBEOPT_THREADS", "3")
        assert po.SimConfig().threads == 3
        monkeypatch.setenv("PROBEOPT_THREADS", "junk")
        assert po.SimConfig().threads == 1
        monkeypatch.setenv("PROBEOPT_THREADS", "0")
        assert po.SimConfig().threads == 1


class TestDeterminism:
    def test_same_seed_same_paths(self):
        inst = draw_instance(5, n_lo=3, n_hi=5)
        pol = po.best_reserve_backup(inst)
        cfg = po.SimConfig(slots=2_000, replications=4, seed=11)
        a = po.simulate_saturated(inst, pol, cfg)
        b = po.simulate_saturated(inst, pol, cfg)
        assert a.rep_gains == b.rep_gains
        other = po.SimConfig(slots=2_000, replications=4, seed=12)
        assert a.rep_gains != po.simulate_saturated(inst, pol, other).rep_gains

    def test_threads_do_not_change_the_numbers(self):
        # replication seeds are spawned up front, so the thread count
        # only affects scheduling
        inst = draw_instance(7, n_lo=3, n_hi=5)
        pol = po.best_reserve_backup(inst)
        one = po.simulate_saturated(
            inst, pol, po.SimConfig(slots=2_000, replications=4, seed=3, threads=1)
        )
        four = po.simulate_saturated(
            inst, pol, po.SimConfig(slots=2_000, replications=4, seed=3, threads=4)
        )
        assert one.rep_gains == four.rep_gains


class TestSaturated:
    def test_threshold_policy_matches_analytic(self):
        for seed in range(4):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            pol = po.best_reserve_backup(inst)
            rep = po.evaluate_policy(inst, pol)
            sim = po.simulate_saturated(
                inst, pol, po.SimConfig(slots=40_000, replications=6, seed=seed)
            )
            assert sim.busy_fraction == 1.0
            assert sim.busy_gain == sim.mean_gain
            assert sim.mean_queue is None and sim.throughput is None
            assert abs(sim.mean_gain - rep.gain) <= 5.0 * sim.se_gain + 1e-4
            assert (
                abs(sim.mean_transmit - rep.transmit_prob)
                <= 5.0 * sim.se_transmit + 1e-4
            )

    def test_exhaust_policy_goes_through_the_fast_path(self):
        # a legacy "exhaust" document loads as the level-list policy the
        # two-state solver returns, and the probe-until-on walker, run
        # slot by slot, sees the same sample paths
        inst = draw_instance(2, n_lo=3, n_hi=6, k_lo=2, k_hi=2)
        pol = po.two_state_opt(inst)
        legacy = po.policy_from_dict(
            {
                "kind": "exhaust",
                "probe_order": [inst.names[j] for j in pol.probe_sequence()],
                "backup": inst.names[pol.backup],
            },
            inst,
        )
        cfg = po.SimConfig(slots=3_000, replications=3, seed=6)
        fast = po.simulate_saturated(inst, pol, cfg)
        assert po.simulate_saturated(inst, legacy, cfg).rep_gains == fast.rep_gains
        walked = po.simulate_saturated(
            inst, run_exhaust(pol.probe_sequence(), pol.backup), cfg
        )
        assert walked.rep_gains == pytest.approx(fast.rep_gains, abs=1e-12)

    def test_decision_tree_matches_analytic(self):
        inst = draw_instance(9, n_lo=3, n_hi=3, k_lo=3, k_hi=3)
        tree = po.exact_dp(inst).tree
        gain, tx, _, _ = slow_report(inst, tree)
        sim = po.simulate_saturated(
            inst, tree, po.SimConfig(slots=8_000, replications=5, seed=1)
        )
        assert abs(sim.mean_gain - gain) <= 5.0 * sim.se_gain + 1e-4
        assert abs(sim.mean_transmit - tx) <= 5.0 * sim.se_transmit + 1e-4

    def test_backbone_policy_matches_analytic(self):
        inst = draw_instance(
            12, n_lo=4, n_hi=4, k_lo=3, k_hi=3, cost_regime="equal"
        )
        pol, _ = po.best_prefix_policy(inst, backup=0, escape_state=1)
        gain, tx, _, _ = slow_report(inst, pol)
        sim = po.simulate_saturated(
            inst, pol, po.SimConfig(slots=8_000, replications=5, seed=2)
        )
        assert abs(sim.mean_gain - gain) <= 5.0 * sim.se_gain + 1e-4
        assert abs(sim.mean_transmit - tx) <= 5.0 * sim.se_transmit + 1e-4

    def test_mixture_matches_its_bookkeeping(self):
        inst = draw_instance(3, n_lo=3, n_hi=6, k_hi=3)
        mix = po.solve_unsaturated(inst, 0.5, slack=0.05)
        sim = po.simulate_saturated(
            inst, mix, po.SimConfig(slots=40_000, replications=6, seed=8)
        )
        assert abs(sim.mean_gain - mix.busy_slot_gain) <= 5.0 * sim.se_gain + 1e-4
        assert (
            abs(sim.mean_transmit - mix.transmit_prob)
            <= 5.0 * sim.se_transmit + 1e-4
        )

    def test_unknown_policy_rejected(self):
        inst = draw_instance(0, n_lo=2, n_hi=3)
        with pytest.raises(po.ProbingError):
            po.simulate_saturated(inst, object(), po.SimConfig(slots=10))

    def test_report_dict_round_trips_through_json(self):
        import json

        inst = draw_instance(1, n_lo=2, n_hi=3)
        pol = po.best_reserve_backup(inst)
        sim = po.simulate_saturated(
            inst, pol, po.SimConfig(slots=500, replications=2, seed=0)
        )
        doc = json.loads(json.dumps(sim.to_dict()))
        assert doc["slots"] == 500
        assert "mean_queue" not in doc


class TestUnsaturated:
    def test_queue_run_matches_plan(self):
        inst = draw_instance(3, n_lo=3, n_hi=6, k_hi=3)
        mix = po.solve_unsaturated(inst, 0.5, slack=0.05)
        sim = po.simulate_unsaturated(
            inst, mix, po.SimConfig(slots=60_000, replications=5, seed=9)
        )
        assert sim.mean_queue is not None and sim.throughput is not None
        assert sim.busy_fraction == pytest.approx(mix.busy_fraction, abs=0.02)
        assert sim.throughput == pytest.approx(0.5, abs=0.02)
        assert abs(sim.busy_gain - mix.busy_slot_gain) <= 0.02
        assert "mean_queue" in sim.to_dict()

    def test_default_arrivals_are_bernoulli_at_plan_rate(self):
        inst = draw_instance(6, n_lo=3, n_hi=5, k_hi=3)
        mix = po.solve_unsaturated(inst, 0.4, slack=0.1)
        a = po.simulate_unsaturated(
            inst, mix, po.SimConfig(slots=5_000, replications=3, seed=4)
        )
        explicit = po.SimConfig(
            slots=5_000,
            replications=3,
            seed=4,
            arrivals=po.BernoulliArrivals(mix.arrival_rate),
        )
        b = po.simulate_unsaturated(inst, mix, explicit)
        assert a.rep_gains == b.rep_gains

    def test_bursty_arrivals_back_the_queue_up(self):
        # same mean rate, longer on-runs: the backlog should grow
        inst = draw_instance(4, n_lo=3, n_hi=5, k_hi=3)
        mix = po.solve_unsaturated(inst, 0.4, slack=0.1)
        cfg = po.SimConfig(slots=50_000, replications=4, seed=2)
        base = po.simulate_unsaturated(inst, mix, cfg)
        sticky = po.SimConfig(
            slots=50_000,
            replications=4,
            seed=2,
            arrivals=po.MarkovArrivals(q01=0.04, q10=0.06),
        )
        bursty = po.simulate_unsaturated(inst, mix, sticky)
        assert bursty.mean_queue > base.mean_queue
