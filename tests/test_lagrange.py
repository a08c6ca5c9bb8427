"""Price-gated mixtures for rate-limited transmission.

Under test: the cut search for the kink price and the two-policy mix
built there with its busy-slot guarantee, pinned against the older
three-stage route (candidate price grid, bracket search on the
monotone transmission rate, close-pair selection), which stays public,
and against the cut search opened from the end prices -1 and 2, which
the seeds at the closed-form dual's kink replaced
(``helpers.end_cut_unsaturated``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from probeopt import lagrange, multi_state
from helpers import (
    draw_instance,
    end_cut_unsaturated,
    slow_report,
    three_stage_unsaturated,
)


def counted_searches(mp):
    """Record the price of every fallback search made through
    ``lagrange`` while ``mp`` is active."""
    prices = []
    search = lagrange.best_reserve_backup

    def counted(instance, threshold=None):
        prices.append(threshold)
        return search(instance, threshold)

    mp.setattr(lagrange, "best_reserve_backup", counted)
    return prices


def coin_instance():
    # one fair on/off channel, no cost
    return po.Instance.from_arrays((0.0, 1.0), [[0.5], [0.5]], (0.0,))


class TestCandidateGrid:
    def test_single_coin_grid(self):
        grid = po.candidate_thresholds(coin_instance())
        np.testing.assert_allclose(grid, [-1.0, 0.0, 0.5, 1.0, 2.0])

    def test_grid_shape(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            grid = po.candidate_thresholds(inst)
            assert len(grid) == inst.n + inst.state_count + 2
            assert np.all(np.diff(grid) >= 0)
            assert grid[0] == -1.0 and grid[-1] == 2.0

    def test_extreme_prices_pin_the_rate(self):
        for seed in range(10):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_hi=3)
            always = po.best_reserve_backup(inst, -1.0)
            never = po.best_reserve_backup(inst, 2.0)
            assert po.evaluate_policy(inst, always).transmit_prob == pytest.approx(1.0, abs=1e-12)
            assert po.evaluate_policy(inst, never).transmit_prob == 0.0


class TestBracket:
    def test_invariant_across_rates(self):
        grid_rates = (0.15, 0.35, 0.55, 0.75, 0.95)
        for seed in range(12):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            cands = po.candidate_thresholds(inst)
            for rate in grid_rates:
                br = po.find_rate_bracket(inst, rate)
                assert br.s_low >= rate >= br.s_high
                assert br.threshold_low <= br.threshold_high
                i = int(np.searchsorted(cands, br.threshold_low))
                assert cands[i + 1] == pytest.approx(br.threshold_high)

    def test_rate_domain(self):
        inst = coin_instance()
        for rate in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(po.RateOutOfRange):
                po.find_rate_bracket(inst, rate)

    def test_searches_each_price_once(self, monkeypatch):
        prices = counted_searches(monkeypatch)
        for seed in range(12):
            inst = draw_instance(seed, n_lo=2, n_hi=8, k_hi=4)
            for rate in (0.15, 0.55, 0.95):
                prices.clear()
                po.find_rate_bracket(inst, rate)
                assert len(prices) == len(set(prices)) >= 2
                prices.clear()
                po.solve_unsaturated(inst, rate, 0.05)
                assert len(prices) == len(set(prices)) >= 3


class TestPairSelection:
    def test_straddle_and_gap(self):
        for seed in range(12):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            for rate in (0.3, 0.6, 0.9):
                br = po.find_rate_bracket(inst, rate)
                delta = 1e-4
                pair = po.select_multiplier_pair(inst, rate, br, delta)
                assert pair.s_minus >= rate >= pair.s_plus
                assert pair.construction in ("exact", "midpoint", "bisection")
                if pair.construction != "exact":
                    assert pair.multiplier_high - pair.multiplier_low <= delta * (
                        1 + 1e-12
                    )

    def test_searches_each_price_once(self, monkeypatch):
        cases = [(coin_instance(), 0.5)] + [
            (draw_instance(seed, n_lo=2, n_hi=8, k_hi=4), rate)
            for seed in range(12)
            for rate in (0.3, 0.6, 0.9)
        ]
        cases = [(inst, rate, po.find_rate_bracket(inst, rate)) for inst, rate in cases]
        prices = counted_searches(monkeypatch)
        constructions = set()
        for inst, rate, br in cases:
            for delta in (1e-4, 0.5 * (br.threshold_high - br.threshold_low)):
                prices.clear()
                pair = po.select_multiplier_pair(inst, rate, br, delta)
                constructions.add(pair.construction)
                assert len(prices) == len(set(prices)) >= 1
        assert constructions == {"exact", "midpoint", "bisection"}

    def test_exact_hit_short_circuits(self):
        # the coin transmits at exactly 0.5 once the price passes the
        # blind mean, so a 0.5 target hits a grid rate dead on
        inst = coin_instance()
        br = po.find_rate_bracket(inst, 0.5)
        pair = po.select_multiplier_pair(inst, 0.5, br, 1e-3)
        assert pair.construction == "exact"
        assert pair.multiplier_low == pair.multiplier_high


class TestKinkSearch:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.05, 0.9))
    def test_matches_or_beats_the_three_stage_reference(self, seed, lam):
        inst = draw_instance(seed, n_lo=1, n_hi=10, k_hi=5)
        with pytest.MonkeyPatch.context() as mp:
            prices = counted_searches(mp)
            mix = po.solve_unsaturated(inst, lam, 0.05)
            searches = len(prices)
            prices.clear()
            try:
                ref = three_stage_unsaturated(inst, lam, 0.05)
            except po.DegenerateBound:
                ref = None
        assert abs(mix.transmit_prob - mix.effective_rate) <= 1e-12
        if ref is not None:
            assert mix.busy_slot_gain >= ref.busy_slot_gain - 1e-12
            assert searches <= len(prices)
        # both sides are optimal at the kink price
        x = mix.multiplier_low
        assert mix.multiplier_high == x
        best = po.evaluate_policy(inst, po.best_reserve_backup(inst, x))
        for gain, s in ((mix.gain_minus, mix.s_minus), (mix.gain_plus, mix.s_plus)):
            assert abs((gain - x * s) - (best.gain - x * best.transmit_prob)) <= 1e-12

    def test_cut_hitting_the_rate_is_both_sides(self):
        # the coin probed and sent when on transmits at exactly 0.5, and
        # that policy alone is optimal at the first crossing price
        lam = 0.5 / 1.05
        assert lam * 1.05 == 0.5
        mix = po.solve_unsaturated(coin_instance(), lam, 0.05)
        assert mix.construction == "exact"
        assert mix.alpha == 1.0
        assert mix.policy_minus is mix.policy_plus
        assert mix.s_minus == mix.s_plus == 0.5
        # the whole document, prices and side thresholds included, is
        # the one the end-cut search gives (the kink at exactly 0.5)
        ref = end_cut_unsaturated(coin_instance(), lam, 0.05)
        assert mix.to_dict() == ref.to_dict()
        assert mix.multiplier_low == mix.policy_minus.threshold == 0.5

    def test_cut_that_never_closes_raises(self):
        # every doctored cut sits far above the model, so the search
        # never closes and must stop at the cap rather than spin
        calls = []

        def solve(x):
            calls.append(x)
            return 10.0 * len(calls), (0.9 if len(calls) % 2 else 0.1), None

        hi = lagrange._Cut(-1.0, 1.0, 1.0, None)
        lo = lagrange._Cut(2.0, 0.0, 0.0, None)
        with pytest.raises(po.CutSearchStalled):
            lagrange._kink(solve, 0.5, hi, lo)
        assert len(calls) == lagrange.MAX_CUTS

    def test_rate_out_of_reach_raises(self):
        # both rewards sit below -1, so no price down to -1 makes a slot
        # send; the seeds and the end at -1 all transmit with probability 0
        inst = po.Instance.from_arrays(
            (-3.0, -2.0), [[0.5, 0.6], [0.5, 0.4]], (0.05, 0.0), validate=False
        )
        with pytest.raises(po.BracketNotFound) as err:
            po.solve_unsaturated(inst, 0.5, 0.05)
        assert str(err.value) == "rate 0.525 outside the achievable range [0.0, 0.0]"

    def test_solve_unsaturated_gives_up_on_a_doctored_cut(self, monkeypatch):
        inst = draw_instance(3, n_lo=3, n_hi=5, k_hi=3)
        calls = []
        gated = lagrange._gated

        def doctored(instance, price):
            calls.append(price)
            gain, transmit, policy = gated(instance, price)
            return gain + 10.0 * len(calls), transmit, policy

        monkeypatch.setattr(lagrange, "_gated", doctored)
        with pytest.raises(po.CutSearchStalled):
            po.solve_unsaturated(inst, 0.5, 0.05)
        assert len(calls) == 2 + lagrange.MAX_CUTS


# The lines ``gain - x * transmit`` a synthetic charged optimum picks
# from: it switches from always sending to 0.6 at x = 0.5, to 0.3 at
# x = 1 and to never at x = 5/3.
LINES = ((1.0, 1.0), (0.8, 0.6), (0.5, 0.3), (0.0, 0.0))


def scripted(lines=LINES):
    """A ``_search`` solve over ``lines`` that records the ``(price,
    preference)`` of every call; "prefer-silent" breaks a tie toward the
    lower transmit probability, every other preference toward the
    higher.  The payload is the line."""
    calls = []

    def solve(x, preference):
        calls.append((x, preference))
        best = max(g - x * t for g, t in lines)
        tied = [line for line in lines if line[0] - x * line[1] >= best - 1e-12]
        pick = min if preference == "prefer-silent" else max
        gain, transmit = pick(tied, key=lambda line: line[1])
        return gain, transmit, (gain, transmit)

    return solve, calls


def seed_cuts(solve, calls, x, gap=lagrange.SEED_GAP):
    """The seeds ``(up, down)`` at x -/+ gap, the calls they made cleared."""
    up, down = (lagrange._Cut(p, *solve(p, "default")) for p in (x - gap, x + gap))
    calls.clear()
    return up, down


class TestSearchOpening:
    def test_seeds_at_one_price_that_straddle_are_the_answer(self):
        solve, calls = scripted()
        up = lagrange._Cut(1.0, *solve(1.0, "prefer-transmit"))
        down = lagrange._Cut(1.0, *solve(1.0, "prefer-silent"))
        calls.clear()
        for rate in (0.6, 0.45, 0.3):  # >= on both sides
            assert lagrange._search(solve, rate, (up, down), 0.0, 2.0) == (1.0, up, down)
        assert calls == []

    def test_seeds_at_two_prices_that_straddle_go_straight_to_the_kink(self):
        solve, calls = scripted()
        up, down = seed_cuts(solve, calls, 1.0)
        assert up.transmit > 0.45 > down.transmit
        price, hi, lo = lagrange._search(solve, 0.45, (up, down), 0.0, 2.0)
        assert price == pytest.approx(1.0, abs=1e-12)
        assert (hi, lo) == (up, down)
        assert len(calls) == 1 and calls[0][1] == "default"

    def test_seeds_above_the_rate_keep_down_and_solve_only_high(self):
        solve, calls = scripted()
        up, down = seed_cuts(solve, calls, 0.7)
        assert up.transmit == down.transmit == 0.6
        price, hi, lo = lagrange._search(solve, 0.45, (up, down), 0.0, 2.0)
        assert calls[0] == (2.0, "prefer-silent")
        assert all(x != 0.0 for x, _ in calls)
        assert {p for _, p in calls[1:]} == {"default"}
        assert hi is down and lo.payload == (0.5, 0.3)
        assert price == pytest.approx(1.0, abs=1e-12)

    def test_seeds_below_the_rate_keep_up_and_solve_only_low(self):
        solve, calls = scripted()
        up, down = seed_cuts(solve, calls, 1.2)
        assert up.transmit == down.transmit == 0.3
        price, hi, lo = lagrange._search(solve, 0.45, (up, down), 0.0, 2.0)
        assert calls[0] == (0.0, "prefer-transmit")
        assert all(x != 2.0 for x, _ in calls)
        assert {p for _, p in calls[1:]} == {"default"}
        assert lo is up and hi.payload == (0.8, 0.6)
        assert price == pytest.approx(1.0, abs=1e-12)

    def test_an_end_that_does_not_pass_the_rate_is_both_sides(self):
        # only the lines sending at most 0.3: the low end cannot reach 0.45
        solve, calls = scripted(LINES[2:])
        price, hi, lo = lagrange._search(solve, 0.45, None, 0.0, 2.0)
        assert calls == [(0.0, "prefer-transmit")]
        assert price == 0.0 and hi is lo and hi.transmit == 0.3
        # only the lines sending at least 0.6: the high end stays above
        solve, calls = scripted(LINES[:2])
        price, hi, lo = lagrange._search(solve, 0.45, None, 0.0, 2.0)
        assert calls == [(0.0, "prefer-transmit"), (2.0, "prefer-silent")]
        assert price == 2.0 and hi is lo and hi.transmit == 0.6
        # an end sending exactly at the rate is both sides too
        solve, calls = scripted(LINES[2:])
        price, hi, lo = lagrange._search(solve, 0.3, None, 0.0, 2.0)
        assert calls == [(0.0, "prefer-transmit")]
        assert price == 0.0 and hi is lo and hi.transmit == 0.3

    def test_a_two_price_seed_at_the_rate_solves_both_ends(self):
        solve, calls = scripted()
        up, down = seed_cuts(solve, calls, 0.7)
        price, hi, lo = lagrange._search(solve, 0.6, (up, down), 0.0, 2.0)
        assert calls[:2] == [(0.0, "prefer-transmit"), (2.0, "prefer-silent")]
        assert {p for _, p in calls[2:]} == {"default"}
        assert 0.6 in (hi.transmit, lo.transmit)

    def test_no_seeds_solve_both_ends(self):
        solve, calls = scripted()
        price, hi, lo = lagrange._search(solve, 0.45, None, 0.0, 2.0)
        assert calls[:2] == [(0.0, "prefer-transmit"), (2.0, "prefer-silent")]
        assert {p for _, p in calls[2:]} == {"default"}
        assert price == pytest.approx(1.0, abs=1e-12)
        assert (hi.payload, lo.payload) == ((0.8, 0.6), (0.5, 0.3))


def corpus_instance(n, k, s):
    spec = po.GenSpec(
        n,
        k,
        prob_shape=po.PROB_SHAPES[s % 3],
        cost_regime=po.COST_REGIMES[s % len(po.COST_REGIMES)],
        cost_range=(0.0, 0.3),
    )
    return po.generate(spec, np.random.default_rng([s, n, k]))


# Zero-cost uniform draws whose kink sits at the top reward, 1.0.  The
# end-cut search closes 7e-14 to 6e-13 short of it, on the cut from -1,
# which also sends the lower rewards; the seeds land on the kink itself.
KINK_AT_THE_TOP = {(200, 8, s) for s in (0, 3, 6, 9, 12)}


class TestSeededSearch:
    @pytest.mark.parametrize(
        "n, k", [(500, 8), (200, 8), (30, 4), (8, 3), (2000, 16), (5, 2)]
    )
    def test_matches_the_end_cut_search(self, n, k):
        for s in range(15):
            inst = corpus_instance(n, k, s)
            for lam in (0.1, 0.3, 0.5, 0.6, 0.85):
                mix = po.solve_unsaturated(inst, lam, 0.05)
                ref = end_cut_unsaturated(inst, lam, 0.05)
                where = f"n={n} K={k} s={s} lambda={lam}"
                assert mix.construction == ref.construction, where
                for side in ("policy_minus", "policy_plus"):
                    got, want = getattr(mix, side), getattr(ref, side)
                    assert got.backup == want.backup, where
                    assert got.levels == want.levels, where
                if (n, k, s) in KINK_AT_THE_TOP:
                    # the minus sides differ by up to 7e-12 in gain and
                    # transmit probability; the mixtures agree closer
                    assert mix.multiplier_low == inst.max_reward > ref.multiplier_low
                    for name in ("multiplier_low", "busy_slot_gain", "transmit_prob"):
                        assert getattr(mix, name) == pytest.approx(
                            getattr(ref, name), abs=1e-12
                        ), where
                else:
                    for name in ("alpha", "multiplier_low", "multiplier_high",
                                 "s_minus", "s_plus", "gain_minus", "gain_plus"):
                        assert getattr(mix, name) == getattr(ref, name), where

    @pytest.mark.parametrize("s", [6, 9])
    def test_seeds_that_miss_fall_back_to_the_end_cuts(self, s, monkeypatch):
        # L* is clipped up to max mu, above the kink, so both seeds send
        # below the rate: the lower seed, at L* - 1e-9, is the plus
        # side's cut, and only the end at -1 is solved
        inst = corpus_instance(8, 3, s)
        prices = counted_searches(monkeypatch)
        mix = po.solve_unsaturated(inst, 0.85, 0.05)
        x = multi_state._kink_price(inst, mix.effective_rate)
        assert len(prices) == 5
        assert prices[:3] == [x - lagrange.SEED_GAP, x + lagrange.SEED_GAP, -1.0]
        assert mix.policy_plus.threshold == x - lagrange.SEED_GAP
        ref = end_cut_unsaturated(inst, 0.85, 0.05)
        for name in ("alpha", "multiplier_low", "multiplier_high", "s_minus",
                     "s_plus", "gain_minus", "gain_plus", "construction"):
            assert getattr(mix, name) == getattr(ref, name), name
        for side in ("policy_minus", "policy_plus"):
            got, want = getattr(mix, side), getattr(ref, side)
            assert (got.levels, got.backup) == (want.levels, want.backup)
        assert mix.policy_minus.threshold == ref.policy_minus.threshold

    @pytest.mark.parametrize("shift, solved, skipped", [(-0.2, 2.0, -1.0), (0.2, -1.0, 2.0)])
    def test_a_wrong_guess_keeps_the_seed_on_its_side(
        self, shift, solved, skipped, monkeypatch
    ):
        # both seeds send on one side of the rate: the one nearer it is
        # that side's cut, and only the end on the other side is solved
        inst = corpus_instance(30, 4, 2)
        guess = multi_state._kink_price(inst, 0.5 * 1.05) + shift
        monkeypatch.setattr(lagrange, "_kink_price", lambda instance, rate: guess)
        prices = counted_searches(monkeypatch)
        mix = po.solve_unsaturated(inst, 0.5, 0.05)
        seeds = [guess - lagrange.SEED_GAP, guess + lagrange.SEED_GAP]
        assert prices[:3] == [*seeds, solved] and skipped not in prices
        ref = end_cut_unsaturated(inst, 0.5, 0.05)
        for name in ("alpha", "multiplier_low", "s_minus", "s_plus",
                     "gain_minus", "gain_plus", "construction"):
            assert getattr(mix, name) == getattr(ref, name), name

    @pytest.mark.parametrize("seed", range(3))
    def test_three_searches_per_solve_at_scale(self, seed, monkeypatch):
        inst = po.generate(po.GenSpec(500, 8), seed)
        prices = counted_searches(monkeypatch)
        mix = po.solve_unsaturated(inst, 0.5, 0.05)
        assert len(prices) == 3
        # both seeds straddle, and each side keeps the price it was found at
        x = multi_state._kink_price(inst, mix.effective_rate)
        seeds = [x - lagrange.SEED_GAP, x + lagrange.SEED_GAP]
        assert prices[:2] == seeds
        assert [mix.policy_minus.threshold, mix.policy_plus.threshold] == seeds


class TestSolveUnsaturated:
    def test_mixture_bookkeeping(self):
        for seed in range(12):
            inst = draw_instance(seed, n_lo=2, n_hi=6, k_hi=4)
            for lam in (0.2, 0.5, 0.8):
                mix = po.solve_unsaturated(inst, lam, 0.05)
                eff = lam * 1.05
                assert mix.effective_rate == pytest.approx(eff, abs=1e-15)
                assert mix.transmit_prob == pytest.approx(eff, abs=1e-12)
                assert 0.0 <= mix.alpha <= 1.0
                assert mix.busy_fraction == pytest.approx(1 / 1.05, abs=1e-15)
                assert mix.busy_slot_gain == pytest.approx(
                    mix.alpha * mix.gain_plus + (1 - mix.alpha) * mix.gain_minus,
                    abs=1e-12,
                )
                assert mix.steady_state_gain == pytest.approx(
                    mix.busy_slot_gain * mix.busy_fraction, abs=1e-12
                )

    def test_report_matches_slow_walker(self):
        inst = draw_instance(6, n_lo=2, n_hi=4, k_hi=3)
        mix = po.solve_unsaturated(inst, 0.5, 0.05)
        rep = po.evaluate_policy(inst, mix)
        gain, tx, cost, _ = slow_report(inst, mix)
        assert rep.gain == pytest.approx(gain, abs=1e-12)
        assert rep.transmit_prob == pytest.approx(tx, abs=1e-12)
        assert rep.probe_cost == pytest.approx(cost, abs=1e-12)

    def test_busy_gain_between_guarantee_and_bound(self):
        for seed in range(8):
            inst = draw_instance(seed, n_lo=2, n_hi=5, k_lo=2, k_hi=3)
            for lam in (0.3, 0.7):
                mix = po.solve_unsaturated(inst, lam, 0.05)
                q_star = po.rate_constrained_optimum(inst, mix.effective_rate).value
                factor = 1.0 if inst.state_count == 2 else 2.0 / 3.0
                assert mix.busy_slot_gain >= factor * (1 - 0.05) * q_star - 1e-6
                assert mix.busy_slot_gain <= q_star + 1e-9

    def test_rate_domain(self):
        inst = draw_instance(2, n_lo=2, n_hi=4)
        with pytest.raises(po.RateOutOfRange):
            po.solve_unsaturated(inst, 0.0)
        with pytest.raises(po.RateOutOfRange):
            po.solve_unsaturated(inst, 0.97, 0.05)  # effective rate tops 1
        with pytest.raises(po.RateOutOfRange):
            po.solve_unsaturated(inst, 0.5, 0.0)

    def test_all_off_instance_meets_the_rate_at_price_zero(self):
        # every channel certainly off: no policy earns anything, so the
        # kink is at price 0 between always sending and never sending
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[1.0, 1.0], [0.0, 0.0]], (0.1, 0.1)
        )
        mix = po.solve_unsaturated(inst, 0.5, 0.05)
        assert mix.construction == "kink"
        assert mix.multiplier_low == mix.multiplier_high == 0.0
        assert mix.transmit_prob == pytest.approx(mix.effective_rate, abs=1e-12)
        assert po.evaluate_policy(inst, mix).transmit_prob == pytest.approx(
            mix.effective_rate, abs=1e-12
        )
        bound = po.rate_constrained_optimum(inst, mix.effective_rate).value
        assert mix.busy_slot_gain == 0.0 == bound

    def test_serialization_round_trip(self):
        inst = draw_instance(9, n_lo=2, n_hi=4, k_hi=3)
        mix = po.solve_unsaturated(inst, 0.4, 0.05)
        back = po.policy_from_dict(mix.to_dict(inst.names), inst)
        assert back.alpha == pytest.approx(mix.alpha, abs=1e-15)
        assert back.arrival_rate == mix.arrival_rate
        assert po.evaluate_policy(inst, back).gain == pytest.approx(
            po.evaluate_policy(inst, mix).gain, abs=1e-12
        )

    def test_mixing_weight_outside_unit_interval_refused(self):
        inst = draw_instance(9, n_lo=2, n_hi=4, k_hi=3)
        doc = po.solve_unsaturated(inst, 0.4, 0.05).to_dict(inst.names)
        for alpha in (float("nan"), float("inf"), 1.7, -0.2):
            with pytest.raises(po.ProbingError):
                po.policy_from_dict({**doc, "alpha": alpha}, inst)
        for alpha in (0.0, 1.0):
            assert po.policy_from_dict({**doc, "alpha": alpha}, inst).alpha == alpha
