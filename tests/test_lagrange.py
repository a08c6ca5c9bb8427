"""Price-gated mixtures for rate-limited transmission.

The chain under test: candidate price grid, bracket search on the
monotone transmission rate, close-pair selection, and the final
two-policy mix with its busy-slot guarantee.
"""

import numpy as np
import pytest

import probeopt as po
from probeopt import lagrange
from helpers import draw_instance, slow_report


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
        prices = []
        search = lagrange.best_reserve_backup

        def counted(instance, threshold=None):
            prices.append(threshold)
            return search(instance, threshold)

        monkeypatch.setattr(lagrange, "best_reserve_backup", counted)
        for seed in range(12):
            inst = draw_instance(seed, n_lo=2, n_hi=8, k_hi=4)
            for rate in (0.15, 0.55, 0.95):
                prices.clear()
                po.find_rate_bracket(inst, rate)
                assert len(prices) == len(set(prices)) >= 2


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
        prices = []
        search = lagrange.best_reserve_backup

        def counted(instance, threshold=None):
            prices.append(threshold)
            return search(instance, threshold)

        cases = [(coin_instance(), 0.5)] + [
            (draw_instance(seed, n_lo=2, n_hi=8, k_hi=4), rate)
            for seed in range(12)
            for rate in (0.3, 0.6, 0.9)
        ]
        cases = [(inst, rate, po.find_rate_bracket(inst, rate)) for inst, rate in cases]
        monkeypatch.setattr(lagrange, "best_reserve_backup", counted)
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

    def test_degenerate_instance_refused(self):
        # every channel certainly off: no policy earns anything
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[1.0, 1.0], [0.0, 0.0]], (0.1, 0.1)
        )
        with pytest.raises(po.DegenerateBound):
            po.solve_unsaturated(inst, 0.5, 0.05)

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
