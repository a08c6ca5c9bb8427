"""Level-list policies for many-state channels.

The evaluator is checked against the loop-everything walker, the
construction against the class-restricted oracle (the fallback may
never be probed, and only the fallback may be sent blind) and against
level lists built from a dense membership mask (``helpers.mask_levels``).
The fallback search's closed form is checked three ways: against
building and evaluating each of the n + 1 policies
(``helpers.reference_search``), against the sum of each policy's probes
and stops over composed stretches of the probe sequence
(``helpers.reference_fallback_scores``), and against Weitzman's index
value with reservation values solved channel by channel from the
instance arrays (``helpers.weitzman_value``).  ``weitzman_bound``, the
same form with the best blind mean as outside option, is checked
against that loop (``helpers.reference_weitzman_bound``) and against
the oracle, which it must never fall below.  The search's array
passes are pinned byte for byte against the band loops they replaced
(``helpers.reference_grid`` and ``helpers.reference_band_scores``).
"""

import collections
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from probeopt import multi_state
from helpers import (
    argsort_sequence,
    draw_instance,
    level_scores,
    mask_levels,
    reference_band_scores,
    reference_fallback_scores,
    reference_grid,
    reference_weitzman_bound,
    reference_search,
    restricted_oracle_value,
    slow_report,
    two_state_scan,
    weitzman_value,
)


class TestEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30_000), st.sampled_from([None, 0.0, 0.15, 0.4, 0.9]))
    def test_constructed_policy_matches_slow_walker(self, seed, threshold):
        inst = draw_instance(seed, n_hi=5, k_hi=4)
        backup = None if seed % 3 == 0 else seed % inst.n
        pol = po.reserve_backup_policy(inst, backup, threshold)
        rep = po.evaluate_policy(inst, pol)
        gain, tx, cost, mass = slow_report(inst, pol)
        assert rep.gain == pytest.approx(gain, abs=1e-12)
        assert rep.transmit_prob == pytest.approx(tx, abs=1e-12)
        assert rep.probe_cost == pytest.approx(cost, abs=1e-12)
        np.testing.assert_allclose(rep.state_mass, mass, atol=1e-12)

    def test_hand_built_policy_taken_at_face_value(self):
        # deliberately bad ordering and a skipped level; the evaluator
        # must price what is written, not what it would have built
        inst = po.Instance.from_arrays(
            (0.0, 0.3, 0.7, 1.0),
            [
                [0.4, 0.1, 0.25],
                [0.2, 0.2, 0.25],
                [0.2, 0.3, 0.25],
                [0.2, 0.4, 0.25],
            ],
            (0.02, 0.05, 0.1),
        )
        pol = po.ThresholdPolicy(backup=None, threshold=None, levels=((3, (2,)), (1, (0, 1))))
        rep = po.evaluate_policy(inst, pol)
        gain, tx, cost, _ = slow_report(inst, pol)
        assert rep.gain == pytest.approx(gain, abs=1e-14)
        assert rep.transmit_prob == pytest.approx(tx, abs=1e-14)
        assert rep.probe_cost == pytest.approx(cost, abs=1e-14)

    def test_altered_charge_passthrough(self):
        inst = draw_instance(11, n_lo=3, n_hi=3)
        pol = po.reserve_backup_policy(inst, 0, 0.2)
        plain = po.evaluate_policy(inst, pol)
        charged = po.evaluate_policy(inst, pol, altered_threshold=0.2)
        assert charged.gain == pytest.approx(
            plain.gain - 0.2 * plain.transmit_prob, abs=1e-14
        )

    def test_cached_arrays_die_with_the_instance(self):
        inst = draw_instance(3, n_lo=4, n_hi=6)
        po.evaluate_policy(inst, po.best_reserve_backup(inst))
        ref = weakref.ref(inst)
        del inst
        gc.collect()
        assert ref() is None

    def test_empty_policy_is_silent(self):
        inst = draw_instance(3, n_lo=2, n_hi=4)
        pol = po.ThresholdPolicy(backup=None, threshold=None, levels=())
        rep = po.evaluate_policy(inst, pol)
        assert rep.gain == 0.0
        assert rep.transmit_prob == 0.0


class TestNoFallbackUnvalidated:
    """A base reward below -1 on an unvalidated instance: a slot with no
    fallback that finds the low state stays silent at charge -1; it
    never sends a fallback it does not have."""

    def setup_method(self):
        self.inst = po.Instance.from_arrays(
            (-3.0, 0.5), [[0.7], [0.3]], (0.0,), validate=False
        )

    def test_search_policy_evaluates_within_the_optimum(self):
        pol = po.best_reserve_backup(self.inst, -1.0)
        assert pol.backup is None
        rep = po.evaluate_policy(self.inst, pol, altered_threshold=-1.0)
        best = po.altered_optimum(self.inst, -1.0).value
        assert best == pytest.approx(0.45, abs=1e-12)
        assert rep.gain <= best + 1e-12
        assert rep.state_mass.tolist() == pytest.approx([0.0, 0.3], abs=1e-15)

    def test_queue_answers_or_refuses(self):
        # the queue's end prices read "every slot sends" only for
        # rewards in [0, 1], so rate 0.5 is out of its reach here
        with pytest.raises(po.ProbingError):
            po.solve_unsaturated(self.inst, 0.5)
        mix = po.solve_unsaturated(self.inst, 0.2)
        rep = po.evaluate_policy(self.inst, mix)
        assert rep.transmit_prob == pytest.approx(mix.effective_rate, abs=1e-12)


class TestStructureChecks:
    def setup_method(self):
        self.inst = po.Instance.from_arrays(
            (0.0, 0.5, 1.0),
            [[0.4, 0.4], [0.3, 0.3], [0.3, 0.3]],
            (0.01, 0.01),
        )

    def test_level_out_of_range(self):
        pol = po.ThresholdPolicy(None, None, ((5, (0,)),))
        with pytest.raises(po.LevelOutOfRange):
            po.evaluate_policy(self.inst, pol)

    def test_repeated_probe(self):
        pol = po.ThresholdPolicy(None, None, ((2, (0,)), (1, (0,))))
        with pytest.raises(po.RepeatedProbe):
            po.evaluate_policy(self.inst, pol)

    def test_backup_probed(self):
        pol = po.ThresholdPolicy(1, None, ((1, (1,)),))
        with pytest.raises(po.BackupProbed):
            po.evaluate_policy(self.inst, pol)

    def test_unknown_channel(self):
        pol = po.ThresholdPolicy(None, None, ((1, (9,)),))
        with pytest.raises(po.UnknownChannel):
            po.evaluate_policy(self.inst, pol)

    def test_levels_must_descend(self):
        pol = po.ThresholdPolicy(None, None, ((1, (0,)), (2, (1,))))
        with pytest.raises(po.PolicyStructureError):
            po.evaluate_policy(self.inst, pol)


class TestConstruction:
    def test_probe_floor_tracks_fallback_mean(self):
        inst = po.Instance.from_arrays(
            (0.0, 0.4, 1.0),
            [[0.2, 0.1], [0.5, 0.2], [0.3, 0.7]],
            (0.01, 0.01),
        )

        def floor(backup, threshold=None):
            bar = multi_state._bar(inst, backup, threshold)
            return multi_state._probe_lists(inst, bar, backup)[0]

        # channel 1's blind mean is 0.78: only the top state beats it
        assert floor(1) == 2
        # no fallback: anything above the zero-reward base is worth a look
        assert floor(None) == 1
        # a bar above every reward shuts probing off entirely
        assert floor(None, 1.5) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-0.5, 1.5))
    def test_levels_match_the_membership_mask(self, seed, extra):
        inst = draw_instance(seed, n_hi=12, k_hi=7)
        for x in search_prices(inst, extra):
            for backup in [None, *range(inst.n)]:
                assert po.probe_levels(inst, backup, x) == mask_levels(
                    inst, backup, x
                ), f"fallback {backup}, price {x}"

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.lists(st.integers(0, 11), max_size=6))
    def test_probe_sequence_matches_the_full_argsort(self, seed, copies):
        # repeated columns give exactly tied scores at every level
        base = draw_instance(seed, n_hi=12, k_hi=7)
        cols = list(range(base.n)) + [c % base.n for c in copies]
        np.random.default_rng(seed).shuffle(cols)
        inst = po.Instance.from_arrays(
            base.rewards, base.probs[:, cols], base.costs[cols]
        )
        ws = multi_state._Workspace(inst)
        seq, start, end = argsort_sequence(inst)
        assert ws.seq.tolist() == seq.tolist()
        assert ws.start.tolist() == start.tolist()
        assert ws.end.tolist() == end.tolist()

    def test_a_score_equal_to_the_bar_stays_out(self):
        # channel 0's score at level 1 is 1 - 0.25 / 0.5 = 0.5 exactly,
        # the same as channel 1's blind mean: probing it would not pay
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[0.5, 0.5], [0.5, 0.5]], (0.25, 0.1)
        )
        for backup, x, want in ((1, None, ()), (None, 0.5, ((1, (1,)),))):
            assert po.probe_levels(inst, backup, x) == want
            assert mask_levels(inst, backup, x) == want

    def test_levels_sorted_and_scores_descend(self):
        for seed in range(40):
            inst = draw_instance(seed, n_lo=3, n_hi=7, k_hi=4)
            backup = None if seed % 4 == 0 else seed % inst.n
            levels = po.probe_levels(inst, backup)
            prev_u = None
            for u, mem in levels:
                if prev_u is not None:
                    assert u < prev_u
                prev_u = u
                scores = []
                for j in mem:
                    tail = inst.probs[u:, j]
                    mass = tail.sum()
                    assert mass > 0.0
                    mean = tail @ inst.rewards[u:] / mass
                    scores.append(mean - inst.costs[j] / mass)
                assert all(
                    a >= b - 1e-12 for a, b in zip(scores, scores[1:])
                ), f"seed {seed}: scores not descending at level {u}"

    def test_class_optimality_spot(self):
        # the full-width sweep lives in the acceptance suite; this is
        # the fast tripwire
        for seed in range(40):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            for backup in [None, *range(inst.n)]:
                got = po.evaluate_policy(
                    inst, po.reserve_backup_policy(inst, backup, None)
                ).gain
                want = restricted_oracle_value(inst, backup)
                assert got == pytest.approx(want, abs=1e-9), (
                    f"seed {seed}, fallback {backup}"
                )

    def test_two_state_reduction(self):
        for seed in range(60):
            inst = draw_instance(seed, n_hi=8, k_lo=2, k_hi=2)
            a = po.evaluate_policy(inst, po.best_reserve_backup(inst)).gain
            assert a == pytest.approx(two_state_scan(inst).best_gain, abs=1e-9), (
                f"seed {seed}"
            )

    def test_search_agrees_with_explicit_sweep(self):
        for seed in range(25):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            for x in (None, 0.0, 0.25, 0.8):
                best = po.best_reserve_backup(inst, x)
                got = po.evaluate_policy(inst, best, altered_threshold=x).gain
                want = max(
                    po.evaluate_policy(
                        inst,
                        po.reserve_backup_policy(inst, b, x),
                        altered_threshold=x,
                    ).gain
                    for b in [None, *range(inst.n)]
                )
                assert got == pytest.approx(want, abs=1e-12)

    def test_prohibitive_bar_never_transmits(self):
        inst = draw_instance(7, n_lo=2, n_hi=4)
        pol = po.reserve_backup_policy(inst, 0, 1.5)
        rep = po.evaluate_policy(inst, pol)
        assert pol.levels == ()
        assert rep.transmit_prob == 0.0
        assert rep.gain == 0.0


def search_prices(inst, extra):
    return [
        None, -1.0, 2.0, *inst.rewards.tolist(), *inst.blind_rewards.tolist(), extra
    ]


def assert_search_matches_reference(inst, prices):
    for x in prices:
        backup, gain, ref = reference_search(inst, x)
        scores = multi_state._fallback_scores(inst, x)
        np.testing.assert_allclose(scores, ref, rtol=0, atol=1e-12, err_msg=f"x={x}")
        got = po.best_reserve_backup(inst, x)
        got_gain = po.evaluate_policy(inst, got, altered_threshold=x).gain
        assert got_gain == pytest.approx(gain, abs=1e-12), f"x={x}"
        second, first = np.sort(ref)[-2:]
        if first - second > 1e-9:
            assert got.backup == backup, f"x={x}"


def first_best(scores):
    """The search's pick from its scores: the first within 1e-12 (1 +
    |best|) of the best, no fallback first."""
    best = scores.max()
    i = int(np.argmax(scores >= best - 1e-12 * (1.0 + abs(best))))
    return None if i == 0 else i - 1


def assert_closed_form_matches_composed(inst, prices):
    for x in prices:
        ref = reference_fallback_scores(inst, x)
        scores = multi_state._fallback_scores(inst, x)
        np.testing.assert_allclose(scores, ref, rtol=0, atol=1e-12, err_msg=f"x={x}")
        assert po.best_reserve_backup(inst, x).backup == first_best(ref), f"x={x}"


class TestFastSearch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-0.5, 1.5))
    def test_scores_match_one_evaluation_per_fallback(self, seed, extra):
        inst = draw_instance(seed, n_hi=10, k_hi=6)
        assert_search_matches_reference(inst, search_prices(inst, extra))

    @pytest.mark.parametrize("seed", range(40))
    def test_positive_base_reward(self, seed):
        # with rewards lifted off 0 a costly channel's score can sit
        # below r[0], where the no-fallback slot still probes it at
        # charges under r[0] and gets r[0] or more for it
        drawn = draw_instance(seed, n_hi=5, k_hi=5, cost_range=(0.2, 0.8))
        lifted = po.Instance.from_arrays(
            0.15 + 0.85 * drawn.rewards, drawn.probs, drawn.costs, validate=False
        )
        inst = po.validate_instance(lifted, allow_positive_base_reward=True)
        assert_search_matches_reference(inst, search_prices(inst, 0.05))

    def test_channels_never_at_the_low_states(self):
        # channel 1 is never at state 0 and channel 4 never below state
        # 2, so their tails are 1 at levels 1 and 2, and every chance
        # of finding all channels below those levels is zero; channel 0
        # is poor enough blind to put its floor at level 1
        inst = po.Instance.from_arrays(
            (0.0, 0.4, 0.7, 1.0),
            [
                [0.8, 0.0, 0.5, 0.2, 0.0],
                [0.1, 0.5, 0.1, 0.3, 0.0],
                [0.05, 0.3, 0.1, 0.3, 0.6],
                [0.05, 0.2, 0.3, 0.2, 0.4],
            ],
            (0.02, 0.01, 0.05, 0.03, 0.04),
        )
        assert_search_matches_reference(inst, search_prices(inst, 0.55))

    def test_zero_costs(self):
        for seed in range(6):
            inst = draw_instance(
                seed, n_lo=3, n_hi=8, k_hi=5, cost_range=(0.0, 0.0)
            )
            assert not inst.costs.any()
            assert_search_matches_reference(inst, search_prices(inst, 0.3))

    def test_identical_channels_go_to_the_lower_index(self):
        # channels 1 and 2 are copies, costly to probe and good blind
        col = [0.1, 0.2, 0.7]
        inst = po.Instance.from_arrays(
            (0.0, 0.5, 1.0),
            np.array([[0.6, 0.3, 0.1], col, col, [0.5, 0.3, 0.2]]).T,
            (0.01, 0.3, 0.3, 0.02),
        )
        for x in (None, 0.2):
            scores = multi_state._fallback_scores(inst, x)
            assert scores[2] == pytest.approx(scores[3], abs=1e-15)
            assert int(np.argmax(scores)) in (2, 3)
            assert po.best_reserve_backup(inst, x).backup == 1

    def test_prohibitive_price_picks_no_fallback(self):
        inst = draw_instance(5, n_lo=4, n_hi=8)
        assert not multi_state._fallback_scores(inst, 2.0).any()
        pol = po.best_reserve_backup(inst, 2.0)
        assert pol.backup is None and pol.levels == ()

    def test_single_channel(self):
        for seed in range(8):
            inst = draw_instance(seed, n_lo=1, n_hi=1, k_hi=5)
            assert_search_matches_reference(inst, search_prices(inst, 0.1))

    def test_two_states_match_the_closed_form(self):
        for seed, n in enumerate((20, 60, 150, 300)):
            inst = draw_instance(seed, n_lo=n, n_hi=n, k_lo=2, k_hi=2)
            a = po.evaluate_policy(inst, po.best_reserve_backup(inst)).gain
            b = two_state_scan(inst).best_gain
            assert a == pytest.approx(b, abs=1e-9), f"n={n}"

    def test_large_instance_stays_finite_and_exact(self):
        # the chance that all channels sit below level 1 underflows to
        # zero here, so a ratio of prefix products would read 0 / 0
        inst = po.generate(po.GenSpec(n=5000, state_count=16), 3)
        assert np.prod(1.0 - inst.probs[1:].sum(axis=0)) == 0.0
        scores = multi_state._fallback_scores(inst, 0.3)
        assert np.isfinite(scores).all()
        picks = np.random.default_rng(0).choice(inst.n, 30, replace=False)
        for b in picks:
            want = po.evaluate_policy(
                inst, po.reserve_backup_policy(inst, int(b), 0.3), altered_threshold=0.3
            ).gain
            assert scores[b + 1] == pytest.approx(want, abs=1e-12), f"fallback {b}"

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 16),
        st.lists(st.tuples(st.integers(0, 11), st.integers(1, 15)), max_size=3),
        st.lists(st.integers(0, 11), max_size=4),
        st.sampled_from([None, 0.0, -0.05]),
        st.floats(-0.5, 1.5),
    )
    def test_array_passes_match_the_band_loops_byte_for_byte(
        self, seed, k, sure, copies, sure_cost, extra
    ):
        # a "sure" channel never sits below its chosen state, so every
        # band under it has p = 1: outside [a_f, sigma_f), where the
        # array pass must not divide; a rebate lifts even a channel
        # certain of the top state above its own blind mean
        base = draw_instance(seed, n_hi=12, k_lo=k, k_hi=k)
        probs, costs = base.probs.copy(), base.costs.copy()
        for j, low in {c % base.n: min(s, k - 1) for c, s in sure}.items():
            probs[low, j] += probs[:low, j].sum()
            probs[:low, j] = 0.0
            if sure_cost is not None:
                costs[j] = sure_cost
        cols = list(range(base.n)) + [c % base.n for c in copies]
        np.random.default_rng(seed).shuffle(cols)
        inst = po.Instance.from_arrays(
            base.rewards, probs[:, cols], costs[cols], validate=False
        )
        ws = multi_state._workspace(inst)
        tail, score = level_scores(inst)
        assert ws.tail[:k].tobytes() == tail.tobytes()
        assert ws.own_score.tobytes() == score[ws.top[ws.seq], ws.seq].tobytes()
        for got, want in zip(ws.grid, reference_grid(ws)):
            assert got.tobytes() == want.tobytes()
        top = float(inst.blind_rewards.max())
        for x in (*search_prices(inst, extra), 0.0, -0.3, top + 0.25):
            got = multi_state._fallback_scores(inst, x)
            assert got.tobytes() == reference_band_scores(inst, x).tobytes(), f"x={x}"

    def test_charge_free_arrays_built_once_per_instance(self, monkeypatch):
        built = collections.Counter()

        def counted(name, build):
            def wrapper(*args):
                built[name] += 1
                return build(*args)

            return wrapper

        for name in ("grid", "lifts"):
            prop = vars(multi_state._Workspace)[name]
            monkeypatch.setattr(prop, "func", counted(name, prop.func))
        for name in ("__init__", "integral"):
            build = getattr(multi_state._Workspace, name)
            monkeypatch.setattr(multi_state._Workspace, name, counted(name, build))

        inst = draw_instance(17, n_lo=6, n_hi=9, k_lo=4)
        po.best_reserve_backup(inst, 0.3)
        assert built == {"__init__": 1, "grid": 1, "lifts": 1, "integral": 2}
        # every later price is one lookup, whoever asks
        for x in (None, -0.5, 0.0, 2.0):
            po.best_reserve_backup(inst, x)
            po.weitzman_bound(inst, x)
            multi_state._kink_price(inst, 0.4)
        assert built == {"__init__": 1, "grid": 1, "lifts": 1, "integral": 10}

    def test_repeat_search_memory(self):
        inst = po.generate(po.GenSpec(n=2000, state_count=16), 0)
        po.best_reserve_backup(inst)
        tracemalloc.start()
        try:
            po.best_reserve_backup(inst, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.lists(st.integers(0, 11), max_size=5),
        st.lists(st.tuples(st.integers(0, 11), st.integers(3, 10)), max_size=3),
        st.booleans(),
        st.floats(-0.5, 1.5),
    )
    def test_closed_form_matches_the_composed_reference(
        self, seed, copies, sure, free, extra
    ):
        # copied columns tie exactly; a near-certain top leaves a
        # fallback's chance of sitting below its mean as small as 1e-10
        base = draw_instance(seed, n_hi=12, k_hi=8)
        probs, costs = base.probs.copy(), base.costs.copy()
        for j, digits in {c % base.n: d for c, d in sure}.items():
            eps = 10.0**-digits
            probs[:, j] *= eps
            probs[-1, j] += 1.0 - eps
        if free:
            costs[:] = 0.0
        cols = list(range(base.n)) + [c % base.n for c in copies]
        np.random.default_rng(seed).shuffle(cols)
        inst = po.Instance.from_arrays(base.rewards, probs[:, cols], costs[cols])
        assert_closed_form_matches_composed(inst, search_prices(inst, extra))

    @pytest.mark.parametrize("n, k", [(2000, 16), (500, 8)])
    def test_large_sizes_match_the_composed_reference(self, n, k):
        inst = po.generate(po.GenSpec(n=n, state_count=k), 1)
        assert_closed_form_matches_composed(inst, (None, 0.4))

    @pytest.mark.parametrize("seed", range(12))
    def test_every_fallback_scores_weitzmans_value(self, seed):
        inst = draw_instance(seed, n_hi=9, k_hi=6)
        for x in (None, -1.0, 0.0, 0.3, 0.7):
            scores = multi_state._fallback_scores(inst, x)
            for b in range(inst.n):
                want = weitzman_value(inst, b, x)
                got = po.evaluate_policy(
                    inst, po.reserve_backup_policy(inst, b, x), altered_threshold=x
                ).gain
                assert got == pytest.approx(want, abs=1e-12), f"fallback {b}, x={x}"
                assert scores[b + 1] == pytest.approx(want, abs=1e-12)

    def test_reserve_class_optimum_at_scale_is_weitzmans_value(self):
        # exact_dp cannot reach n = 2000; the index policy's value can.
        # On this draw the search keeps a fallback at both prices
        spec = po.GenSpec(
            n=2000, state_count=16, prob_shape="two-point", cost_regime="heterogeneous"
        )
        inst = po.generate(spec, 0)
        others = np.random.default_rng(0).choice(inst.n, 3, replace=False)
        for x in (None, 0.4):
            pol = po.best_reserve_backup(inst, x)
            assert pol.backup is not None
            got = po.evaluate_policy(inst, pol, altered_threshold=x).gain
            assert got == pytest.approx(weitzman_value(inst, pol.backup, x), abs=1e-12)
            for b in others:
                assert weitzman_value(inst, int(b), x) <= got + 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_refused(self, bad):
        inst = draw_instance(4, n_lo=2, n_hi=4)
        with pytest.raises(po.ProbingError):
            po.best_reserve_backup(inst, bad)
        with pytest.raises(po.ProbingError):
            po.reserve_backup_policy(inst, 0, bad)


class TestWeitzmanBound:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bounds_the_oracle(self, seed):
        inst = draw_instance(seed, n_hi=7, k_hi=5)
        top = float(inst.blind_rewards.max())
        for x in (None, 0.1, 0.3, 0.7, top):
            bound = po.weitzman_bound(inst, x)
            assert bound == pytest.approx(reference_weitzman_bound(inst, x), abs=1e-12)
            # the best fallback fixes its outside option in advance
            assert bound >= multi_state._fallback_scores(inst, x).max() - 1e-12
            if x is None:
                assert bound >= po.exact_dp(inst).value - 1e-12
                continue
            opt = po.altered_optimum(inst, x).value
            assert bound >= opt - 1e-12
            if x >= top:
                # blind sends never pay: the problem is Weitzman's own
                assert bound == pytest.approx(opt, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.2, 0.5, 0.8]))
    def test_the_kink_price_minimizes_the_rate_dual(self, seed, rate):
        inst = draw_instance(seed, n_hi=7, k_hi=5)
        x = multi_state._kink_price(inst, rate)
        dual = po.weitzman_bound(inst, x) + rate * x
        assert dual >= po.rate_constrained_optimum(inst, rate).value - 1e-12
        for other in np.linspace(0.0, inst.max_reward, 41):
            assert dual <= po.weitzman_bound(inst, other) + rate * other + 1e-12

    def test_large_instance_matches_the_loop_reference(self):
        inst = po.generate(po.GenSpec(n=2000, state_count=16), 1)
        for x in (None, 0.4):
            assert po.weitzman_bound(inst, x) == pytest.approx(
                reference_weitzman_bound(inst, x), abs=1e-12
            )

    def test_non_finite_charge_refused(self):
        inst = draw_instance(4, n_lo=2, n_hi=4)
        with pytest.raises(po.ProbingError):
            po.weitzman_bound(inst, float("nan"))


class TestRateMonotonicity:
    def test_transmission_rate_never_rises_with_the_charge(self):
        for seed in range(15):
            inst = draw_instance(seed, n_lo=2, n_hi=7, k_hi=4)
            prev = None
            for x in np.linspace(-0.5, 1.1, 33):
                pol = po.best_reserve_backup(inst, float(x))
                s = po.evaluate_policy(inst, pol).transmit_prob
                if prev is not None:
                    assert s <= prev + 1e-12, f"seed {seed} at charge {x}"
                prev = s


class TestSerialization:
    def test_round_trip_with_names(self):
        inst = draw_instance(19, n_lo=3, n_hi=5)
        pol = po.reserve_backup_policy(inst, 1, 0.3)
        doc = pol.to_dict(inst.names)
        back = po.policy_from_dict(doc, inst)
        assert back.backup == pol.backup
        assert back.threshold == pol.threshold
        assert back.levels == pol.levels

    def test_round_trip_no_backup_default_names(self):
        inst = draw_instance(23, n_lo=2, n_hi=4)
        pol = po.reserve_backup_policy(inst, None, None)
        back = po.policy_from_dict(pol.to_dict())
        assert back.backup is None
        assert back.levels == pol.levels

    def test_unknown_kind_rejected(self):
        with pytest.raises(po.ProbingError):
            po.policy_from_dict({"kind": "banded"})

    @pytest.mark.parametrize("doc", [[1, 2], "threshold", True, 3, None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(po.ProbingError, match="must be an object"):
            po.policy_from_dict(doc)

    def test_large_document_decodes_by_name(self):
        n = 2000
        base = po.generate(po.GenSpec(n=n, state_count=16), 5)
        names = [f"ch-{j}" for j in np.random.default_rng(5).permutation(n)]
        inst = po.Instance.from_arrays(
            base.rewards, base.probs, base.costs, names=names
        )
        pol = po.best_reserve_backup(inst)
        doc = pol.to_dict(inst.names)
        back = po.ThresholdPolicy.from_dict(doc, inst)
        assert (back.backup, back.threshold) == (pol.backup, pol.threshold)
        assert back.levels == pol.levels
        scan = inst.names.index  # a linear scan, name by name
        assert back.levels == tuple(
            (lv["level"], tuple(scan(c) for c in lv["channels"]))
            for lv in doc["levels"]
        )
        doc["levels"][-1]["channels"][-1] = "ch-none"
        with pytest.raises(po.UnknownChannel):
            po.ThresholdPolicy.from_dict(doc, inst)
