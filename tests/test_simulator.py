"""Monte Carlo layer: seeding, arrival processes, policy dispatch,
and agreement between simulated and analytic per-slot figures.

Statistical asserts use a 5 standard-error band plus a small floor;
with fixed seeds they are deterministic, the band just documents how
much slack the sample sizes need.
"""

import dataclasses
import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import probeopt as po
from probeopt import simulator

from helpers import (
    draw_instance,
    draw_states_searchsorted,
    fixed_uniforms,
    markov_draw_loop,
    reference_draw_states,
    run_exhaust,
    slow_report,
    walk_outcomes,
)


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
        for threads in (0, -2):
            with pytest.raises(po.ProbingError):
                po.SimConfig(threads=threads)

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
        # two-state solver returns, and its outcomes are the
        # probe-until-on walker's, slot by slot
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
        states = simulator._draw_states(inst, np.random.default_rng(6), 3_000)
        outcomes, _ = simulator._outcomes(inst, legacy)
        walker = run_exhaust(pol.probe_sequence(), pol.backup)
        for a, b in zip(outcomes(states), walk_outcomes(inst, walker, states)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

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
        # only the package's policy kinds play, whatever hooks an object has
        inst = draw_instance(0, n_lo=2, n_hi=3)
        walker = SimpleNamespace(act=run_exhaust([0], None))
        cfg = po.SimConfig(slots=10, arrivals=po.BernoulliArrivals(0.5))
        for run in (po.simulate_saturated, po.simulate_unsaturated):
            for foreign in (object(), walker):
                with pytest.raises(po.ProbingError, match="cannot simulate a"):
                    run(inst, foreign, cfg)

    def test_queue_without_arrivals_needs_a_mixture(self):
        # only a mixed policy brings the arrival rate the default uses
        inst = draw_instance(0, n_lo=2, n_hi=3)
        cfg = po.SimConfig(slots=10)
        with pytest.raises(po.ProbingError, match="arrivals are required"):
            po.simulate_unsaturated(inst, po.best_reserve_backup(inst), cfg)

    @pytest.mark.parametrize(
        "levels, backup",
        [
            (((1, (0, 1)),), 0),  # the fallback is probed
            (((2, (1,)), (1, (2, 1))), None),  # a channel is probed twice
            (((1, (9,)),), None),  # no channel 9 among 4
        ],
        ids=["backup-probed", "repeated-probe", "unknown-channel"],
    )
    def test_illegal_threshold_policy_raises_what_evaluation_raises(
        self, levels, backup
    ):
        inst = draw_instance(7, n_lo=4, n_hi=4, k_lo=3, k_hi=3)
        bad = po.ThresholdPolicy(backup=backup, threshold=None, levels=levels)
        with pytest.raises(po.PolicyStructureError) as want:
            po.evaluate_policy(inst, bad)
        mix = po.solve_unsaturated(inst, 0.5, slack=0.05)
        cfg = po.SimConfig(slots=10, replications=1)
        for policy in (
            bad,
            dataclasses.replace(mix, policy_plus=bad),
            dataclasses.replace(mix, policy_minus=bad),
        ):
            with pytest.raises(po.PolicyStructureError) as got:
                po.simulate_saturated(inst, policy, cfg)
            assert type(got.value) is type(want.value)

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

    def test_one_replication_leaves_the_standard_errors_null(self):
        import json

        inst = draw_instance(1, n_lo=2, n_hi=3)
        pol = po.best_reserve_backup(inst)
        sim = po.simulate_saturated(
            inst, pol, po.SimConfig(slots=500, replications=1, seed=0)
        )
        assert np.isnan(sim.se_gain) and np.isnan(sim.se_transmit)
        doc = sim.to_dict()
        assert doc["se_gain"] is None and doc["se_transmit"] is None
        json.dumps(doc, allow_nan=False)


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


class TestFastPathsMatchTheLoops:
    """The vectorized draws and tree walks against the slot-by-slot
    code they replaced, on the same uniforms."""

    @pytest.mark.parametrize(
        "q01, q10",
        # copy regime (q01 <= 1 - q10), flip regime, equal bars, extremes
        [(0.2, 0.3), (0.05, 0.05), (0.8, 0.7), (0.97, 0.99), (0.4, 0.6)],
    )
    @pytest.mark.parametrize("slots", [0, 1, 2, 3, 4_000])
    def test_markov_draw(self, q01, q10, slots):
        src = po.MarkovArrivals(q01, q10)
        for seed in range(6):
            fast = src.draw(np.random.default_rng(seed), slots)
            ref = markov_draw_loop(src, np.random.default_rng(seed), slots)
            assert fast.dtype == ref.dtype and np.array_equal(fast, ref)

    @pytest.mark.parametrize("q01, q10", [(0.2, 0.3), (0.8, 0.7), (0.4, 0.6)])
    def test_markov_draw_on_the_bars(self, q01, q10):
        # uniforms exactly at q01, 1 - q10 and the stationary rate, in
        # every order over slots 0, 1 and 2
        src = po.MarkovArrivals(q01, q10)
        bars = [q01, 1.0 - q10, src.rate, 0.0, np.nextafter(q01, 0.0)]
        for u in itertools.product(bars, repeat=3):
            fast = src.draw(fixed_uniforms(u), 3)
            assert np.array_equal(fast, markov_draw_loop(src, fixed_uniforms(u), 3))

    def test_state_draw_with_zero_probability_states(self):
        # tied cumulative sums, uniforms exactly on every boundary
        probs = np.array(
            [[0.5, 0.0, 0.25], [0.0, 0.0, 0.25], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]]
        )
        inst = po.Instance.from_arrays([0.0, 0.3, 0.6, 1.0], probs, [0.1, 0.0, 0.2])
        edges = np.unique(np.concatenate([np.cumsum(probs, axis=0).ravel(), [0.0]]))
        u = np.repeat(edges[:, None], inst.n, axis=1)
        fast = simulator._draw_states(inst, fixed_uniforms(u), u.shape[0])
        ref = draw_states_searchsorted(inst, fixed_uniforms(u), u.shape[0])
        assert np.array_equal(fast, ref.T)
        fast = simulator._draw_states(inst, np.random.default_rng(1), 5_000)
        ref = draw_states_searchsorted(inst, np.random.default_rng(1), 5_000)
        assert np.array_equal(fast, ref.T)

    def test_state_draw_needs_a_wider_dtype_past_256_states(self):
        k = 300
        inst = po.generate(po.GenSpec(n=3, state_count=k), 4)
        fast = simulator._draw_states(inst, np.random.default_rng(2), 4_000)
        assert fast.dtype == np.uint16
        ref = draw_states_searchsorted(inst, np.random.default_rng(2), 4_000)
        assert np.array_equal(fast, ref.T)
        assert fast.max() > 255
        cum = np.cumsum(inst.probs, axis=0)
        u = np.concatenate([cum[:-1], [np.ones(inst.n) - 1e-17]])
        fast = simulator._draw_states(inst, fixed_uniforms(u), k)
        ref = draw_states_searchsorted(inst, fixed_uniforms(u), k)
        assert np.array_equal(fast, ref.T)

    @staticmethod
    def _same_as_the_walk(inst, policy, seed):
        # the tree reads only the rows it declares; the walk sees them all
        outcomes, read = simulator._outcomes(inst, policy)
        rng = np.random.default_rng(seed)
        fast = outcomes(simulator._draw_states(inst, rng, 3_000, read))
        states = reference_draw_states(inst, np.random.default_rng(seed), 3_000)
        slow = walk_outcomes(inst, policy, states.T)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize(
        "tie", ["default", "prefer-backup", "prefer-silent", "prefer-transmit"]
    )
    def test_decision_trees(self, tie):
        for seed in range(8):
            inst = draw_instance(
                300 + seed, n_lo=2, n_hi=7, k_lo=2, k_hi=4,
                cost_regime="heterogeneous", cost_range=(0.0, 0.1),
            )
            for options in (
                po.OracleOptions(tie_preference=tie),
                po.OracleOptions(tie_preference=tie, altered_threshold=0.4),
                po.OracleOptions(tie_preference=tie, allow_no_transmit=False),
            ):
                self._same_as_the_walk(inst, po.exact_dp(inst, options).tree, seed)

    def test_prefix_trees(self):
        for seed in range(6):
            inst = draw_instance(
                400 + seed, n_lo=3, n_hi=5, k_lo=2, k_hi=4, cost_regime="equal"
            )
            # the same channels with unequal costs, so that summing a
            # path's costs in another order would show
            costs = np.random.default_rng(seed).uniform(0.0, 0.1, inst.n)
            recosted = po.Instance.from_arrays(inst.rewards, inst.probs, costs)
            k = inst.state_count
            others = tuple(range(1, inst.n))
            policies = [
                po.PrefixTreePolicy(0, k, others, ()),  # never escapes
                po.PrefixTreePolicy(
                    0, 1, others, tuple(((0, ()),) * (k - 1) for _ in others)
                ),  # empty subtrees
            ]
            for backup in range(2):
                for esc in range(1, k):
                    pol, _ = po.best_prefix_policy(inst, backup, escape_state=esc)
                    policies.append(pol)
            for pol in policies:
                self._same_as_the_walk(inst, pol, seed)
                self._same_as_the_walk(recosted, pol, seed)


BLOCK = simulator._BLOCK

POLICY_KINDS = (
    "threshold",
    "blind",
    "silent",
    "mixture",
    "tree-default",
    "tree-prefer-backup",
    "tree-prefer-silent",
    "tree-prefer-transmit",
    "prefix",
    "exhaust",
)


def _policy(kind, inst, seed):
    g = np.random.default_rng(seed)
    if kind == "threshold":
        return po.best_reserve_backup(inst)
    if kind == "blind":
        backup = int(np.argmax(inst.blind_rewards))
        return po.ThresholdPolicy(backup=backup, threshold=None, levels=())
    if kind == "silent":  # reads no channel at all
        return po.ThresholdPolicy(backup=None, threshold=None, levels=())
    if kind == "mixture":
        try:
            return po.solve_unsaturated(inst, float(g.uniform(0.2, 0.7)), 0.05)
        except po.ProbingError:
            assume(False)
    if kind.startswith("tree-"):
        options = po.OracleOptions(tie_preference=kind.removeprefix("tree-"))
        return po.exact_dp(inst, options).tree
    if kind == "prefix":
        backup = int(g.integers(inst.n))
        escape = int(g.integers(inst.state_count))
        return po.best_prefix_policy(inst, backup, escape_state=escape)[0]
    # a random probe order with an optional fallback it leaves unprobed
    order = [int(j) for j in g.permutation(inst.n)[: g.integers(inst.n + 1)]]
    rest = [j for j in range(inst.n) if j not in order]
    backup = None if not rest or g.random() < 0.3 else int(g.choice(rest))
    doc = {
        "kind": "exhaust",
        "probe_order": [inst.names[j] for j in order],
        "backup": None if backup is None else inst.names[backup],
    }
    return po.policy_from_dict(doc, inst)


def _full_draw(instance, rng, slots, channels=None):
    """Every channel mapped, from one slots-by-channels draw."""
    return np.ascontiguousarray(reference_draw_states(instance, rng, slots).T)


class TestReadOnlyRowBlockDraw:
    """The channels-by-slots draw in row blocks, mapping only the
    channels a policy reads, against one slots-by-channels draw that
    maps every channel."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.sampled_from(POLICY_KINDS),
        st.sampled_from([1, 7, BLOCK - 1, BLOCK + 3]),
    )
    def test_read_rows_and_outcomes_match_the_full_draw(self, seed, kind, slots):
        inst = draw_instance(seed, n_lo=1, n_hi=6, k_lo=2, k_hi=5)
        policy = _policy(kind, inst, seed)
        play, read = simulator._player(inst, policy)
        assert read == sorted(set(read))
        if kind in ("silent", "blind"):
            assert len(read) == (kind == "blind")
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        states = simulator._draw_states(inst, rng, slots, read)
        ref = reference_draw_states(inst, ref_rng, slots).T
        assert states.shape == ref.shape and states.dtype == ref.dtype
        assert np.array_equal(states[read], ref[read])
        assert not np.delete(states, read, axis=0).any()
        fast = play(states, rng)
        if isinstance(policy, po.MixedPolicy):
            heads = ref_rng.random(slots) < policy.alpha
            plus = walk_outcomes(inst, policy.policy_plus, ref)
            minus = walk_outcomes(inst, policy.policy_minus, ref)
            slow = tuple(np.where(heads, p, m) for p, m in zip(plus, minus))
        else:
            slow = walk_outcomes(inst, policy, ref)
        assert rng.random() == ref_rng.random()
        for name, a, b in zip(("transmit", "reward", "cost", "success"), fast, slow):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 9))
    def test_long_probe_runs_cost_what_the_walk_adds(self, seed, n):
        # slots that run four or more probes, where a BLAS product of
        # the run mask and the costs adds in a layout-dependent order
        inst = draw_instance(seed, n_lo=n, n_hi=n, cost_regime="heterogeneous")
        order = tuple(int(j) for j in np.random.default_rng(seed).permutation(n))
        policy = po.ThresholdPolicy(
            backup=None, threshold=None, levels=((inst.state_count - 1, order),)
        )
        states = _full_draw(inst, np.random.default_rng(seed), 400)
        play, _ = simulator._player(inst, policy)
        cost = play(states, None)[2]
        assert np.array_equal(cost, walk_outcomes(inst, policy, states)[2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(POLICY_KINDS))
    def test_seeded_runs_match_runs_on_the_full_draw(self, seed, kind):
        inst = draw_instance(seed, n_lo=1, n_hi=6, k_lo=2, k_hi=5)
        policy = _policy(kind, inst, seed)
        runs = [po.simulate_saturated]
        if isinstance(policy, po.MixedPolicy):
            runs.append(po.simulate_unsaturated)
        for run, threads in itertools.product(runs, (1, 2)):
            cfg = po.SimConfig(
                slots=BLOCK + 5, replications=3, seed=seed, threads=threads
            )
            got = run(inst, policy, cfg)
            with mock.patch.object(simulator, "_draw_states", _full_draw):
                want = run(inst, policy, cfg)
            assert got.rep_gains == want.rep_gains
            assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("slots", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_block_edges_keep_the_stream(self, slots):
        inst = draw_instance(31, n_lo=5, n_hi=5, k_lo=4, k_hi=4)
        silent = po.ThresholdPolicy(backup=None, threshold=None, levels=())
        assert simulator._player(inst, silent)[1] == []
        for read in (None, [1, 3], []):
            rng = np.random.default_rng(slots)
            ref_rng = np.random.default_rng(slots)
            states = simulator._draw_states(inst, rng, slots, read)
            ref = reference_draw_states(inst, ref_rng, slots).T
            rows = list(range(inst.n)) if read is None else read
            assert np.array_equal(states[rows], ref[rows])
            assert not np.delete(states, rows, axis=0).any()
            # every uniform is used up, mapped or not
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("slots", [BLOCK, 3 * BLOCK + 7])
    def test_fixed_uniforms_across_blocks(self, slots):
        # boundary uniforms cycled over several blocks of rows
        probs = np.array(
            [[0.5, 0.0, 0.25], [0.0, 0.0, 0.25], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]]
        )
        inst = po.Instance.from_arrays([0.0, 0.3, 0.6, 1.0], probs, [0.1, 0.0, 0.2])
        edges = np.unique(np.concatenate([np.cumsum(probs, axis=0).ravel(), [0.0]]))
        u = np.resize(edges, (slots, inst.n))
        fast = simulator._draw_states(inst, fixed_uniforms(u), slots, [0, 2])
        ref = draw_states_searchsorted(inst, fixed_uniforms(u), slots).T
        assert np.array_equal(fast[[0, 2]], ref[[0, 2]])
        assert not fast[1].any()


# rep_gains of the parent of the vectorized simulator, which walked
# trees slot by slot and drew states channel by channel; a change that
# moves a sample path fails here
GOLDEN_REP_GAINS = {
    "threshold": (0.6989483784899999, 0.7022831840047055, 0.6854919373824704),
    "blind": (0.637, 0.6465, 0.6195),
    "bernoulli": (0.35893244955147147, 0.3589505027927778, 0.3675112933255676),
    "markov-copy": (0.37002807740771443, 0.36767532666955755, 0.3725914062588232),
    "markov-flip": (0.38481623013560295, 0.39631623013560296, 0.38376714704832193),
    "decision-tree": (0.697930324932611, 0.7005864280757239, 0.683964857046387),
    "prefix-tree": (0.7787751219809563, 0.7930504420665652, 0.7871577279118717),
}


def _golden_runs():
    inst = draw_instance(
        20, n_lo=5, n_hi=5, k_lo=4, k_hi=4,
        cost_regime="heterogeneous", cost_range=(0.0, 0.08),
    )
    cfg = dict(slots=2_000, replications=3, seed=5)
    best = po.best_reserve_backup(inst)
    blind = po.ThresholdPolicy(
        backup=int(np.argmax(inst.blind_rewards)), threshold=None, levels=()
    )
    mix = po.solve_unsaturated(inst, 0.4, 0.05)
    tree = po.exact_dp(inst, po.OracleOptions(altered_threshold=0.3)).tree
    eq = draw_instance(12, n_lo=4, n_hi=4, k_lo=3, k_hi=3, cost_regime="equal")
    prefix, _ = po.best_prefix_policy(eq, backup=0, escape_state=1)
    sat, unsat = po.simulate_saturated, po.simulate_unsaturated
    return {
        "threshold": lambda: sat(inst, best, po.SimConfig(**cfg)),
        "blind": lambda: sat(inst, blind, po.SimConfig(**cfg)),
        "bernoulli": lambda: unsat(inst, mix, po.SimConfig(**cfg)),
        "markov-copy": lambda: unsat(
            inst, mix, po.SimConfig(**cfg, arrivals=po.MarkovArrivals(0.2, 0.3))
        ),
        "markov-flip": lambda: unsat(
            inst, mix, po.SimConfig(**cfg, arrivals=po.MarkovArrivals(0.8, 0.7))
        ),
        "decision-tree": lambda: sat(inst, tree, po.SimConfig(**cfg)),
        "prefix-tree": lambda: sat(eq, prefix, po.SimConfig(**cfg)),
    }


def test_seeded_sample_paths_are_pinned():
    for kind, run in _golden_runs().items():
        assert run().rep_gains == GOLDEN_REP_GAINS[kind], kind
