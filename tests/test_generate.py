"""Instance generator: knob validation, determinism, and the shape
promises each regime makes."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from helpers import reference_generate

gen = importlib.import_module("probeopt.generate")


class TestGenSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 3, "state_count": 1},
            {"n": 3, "prob_shape": "bimodal"},
            {"n": 3, "cost_regime": "free"},
            {"n": 3, "cost_range": (0.2, 0.1)},
            {"n": 3, "cost_range": (0.0, 1.0)},
            {"n": 3, "cost_range": (-0.1, 0.2)},
        ],
    )
    def test_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            po.GenSpec(**kwargs)

    def test_knob_tables_exported(self):
        assert "two-point" in po.PROB_SHAPES
        assert "equal" in po.COST_REGIMES


class TestGenerate:
    def test_deterministic_given_seed(self):
        spec = po.GenSpec(n=5, state_count=3)
        a = po.generate(spec, 7)
        b = po.generate(spec, 7)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.costs, b.costs)

    def test_generator_object_matches_int_seed(self):
        spec = po.GenSpec(n=4, state_count=4)
        a = po.generate(spec, 11)
        b = po.generate(spec, np.random.default_rng(11))
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_every_regime_yields_valid_instances(self):
        for shape in po.PROB_SHAPES:
            for regime in po.COST_REGIMES:
                for seed in range(5):
                    spec = po.GenSpec(
                        n=4, state_count=3, prob_shape=shape, cost_regime=regime
                    )
                    inst = po.generate(spec, seed)
                    po.validate_instance(inst)
                    assert inst.n == 4 and inst.state_count == 3

    def test_cost_regimes(self):
        zero = po.generate(po.GenSpec(n=6, cost_regime="zero"), 1)
        assert np.all(zero.costs == 0.0)
        eq = po.generate(
            po.GenSpec(n=6, cost_regime="equal", cost_range=(0.1, 0.2)), 1
        )
        assert np.all(eq.costs == eq.costs[0])
        assert 0.1 <= eq.costs[0] < 0.2
        het = po.generate(
            po.GenSpec(n=6, cost_regime="heterogeneous", cost_range=(0.1, 0.2)), 1
        )
        assert np.all((het.costs >= 0.1) & (het.costs < 0.2))
        assert len(set(het.costs)) > 1

    def test_top_reward_pin(self):
        pinned = po.generate(po.GenSpec(n=3, state_count=4), 5)
        assert pinned.rewards[-1] == 1.0
        loose = po.generate(po.GenSpec(n=3, state_count=4, top_reward_one=False), 5)
        assert loose.rewards[-1] <= 1.0

    def test_two_point_mass_pattern(self):
        spec = po.GenSpec(n=8, state_count=4, prob_shape="two-point")
        inst = po.generate(spec, 3)
        for j in range(inst.n):
            col = inst.probs[:, j]
            assert np.count_nonzero(col) == 2
            assert col[0] > 0.0  # base state always carries mass

    def test_spiky_top_concentrates_mass(self):
        spec = po.GenSpec(n=8, state_count=4, prob_shape="spiky-top")
        inst = po.generate(spec, 4)
        top = inst.probs[-1]
        assert np.all((top >= 0.5) & (top < 0.95))


def _same_instance(a, b):
    """Byte-equal arrays and equal names."""
    for field in ("rewards", "probs", "costs"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), field
    assert a.names == b.names


class _SureTopRows(np.random.Generator):
    """A generator whose Dirichlet rows at the given positions (counted
    over every row drawn, batched or not) come back with all mass on the
    top state; the stream underneath is consumed as usual."""

    def __init__(self, seed, sure):
        super().__init__(np.random.PCG64(seed))
        self.sure, self.rows = set(sure), 0

    def dirichlet(self, alpha, size=None):
        out = super().dirichlet(alpha, size)
        for row in out.reshape(-1, len(alpha)):
            if self.rows in self.sure:
                row[:] = 0.0
                row[-1] = 1.0
            self.rows += 1
        return out


class TestStreamContract:
    """The batched draw against the per-channel loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.integers(2, 10),
        st.sampled_from(po.PROB_SHAPES),
        st.sampled_from(po.COST_REGIMES),
        st.sampled_from([(0.0, 0.3), (0.1, 0.1), (0.15, 0.9)]),
        st.booleans(),
    )
    def test_matches_the_per_channel_loop(
        self, seed, n, k, shape, regime, cost_range, top_one
    ):
        spec = po.GenSpec(
            n=n,
            state_count=k,
            prob_shape=shape,
            cost_regime=regime,
            cost_range=cost_range,
            top_reward_one=top_one,
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _same_instance(po.generate(spec, rng), reference_generate(spec, ref_rng))
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "n, sure",
        [(1, {0}), (5, {1}), (5, {1, 5}), (5, {0, 4, 5, 6, 8}), (6, {5, 6, 7})],
    )
    def test_rejected_rows_are_skipped_in_the_batch_and_the_top_up(self, n, sure):
        # rows n, n+1, ... are top-up rows; {1, 5} at n=5 rejects one
        # row of the first batch and the single row drawn to replace it
        spec = po.GenSpec(n=n, state_count=4, cost_regime="heterogeneous")
        rng, ref_rng = _SureTopRows(3, sure), _SureTopRows(3, sure)
        inst = po.generate(spec, rng)
        _same_instance(inst, reference_generate(spec, ref_rng))
        assert rng.rows == ref_rng.rows == n + len(sure)
        assert rng.random() == ref_rng.random()
        assert np.all(inst.probs[-1] < 1.0)

    @pytest.mark.parametrize("shape", ["spiky-top", "two-point"])
    def test_rejected_rows_are_skipped_one_row_at_a_time(self, shape, monkeypatch):
        # these shapes draw a row at a time; certain-top rows at calls 0,
        # 3 and 4 (4 is the first redraw) must be skipped as the loop did
        draw = gen._one_distribution
        calls = {"n": 0}

        def sure_top_at(spec, rng):
            p = draw(spec, rng)
            if calls["n"] in (0, 3, 4):
                p = np.zeros_like(p)
                p[-1] = 1.0
            calls["n"] += 1
            return p

        monkeypatch.setattr(gen, "_one_distribution", sure_top_at)
        spec = po.GenSpec(n=4, state_count=3, prob_shape=shape)
        rng = np.random.default_rng(8)
        inst = po.generate(spec, rng)
        used = calls["n"]
        calls["n"] = 0
        ref_rng = np.random.default_rng(8)
        _same_instance(inst, reference_generate(spec, ref_rng))
        assert used == calls["n"] == 7
        assert rng.random() == ref_rng.random()


class TestCounterexample:
    def test_frozen_arrays(self):
        inst = po.counterexample_instance(0.1)
        np.testing.assert_allclose(inst.rewards, [0.0, 0.1, 1.0])
        np.testing.assert_allclose(inst.probs[:, 2], [0.50, 0.40, 0.10])
        np.testing.assert_allclose(inst.costs, [0.005885, 0.006, 0.005])

    def test_valid_across_the_stated_range(self):
        for delta in (0.01, 0.05, 0.1, 0.149):
            po.validate_instance(po.counterexample_instance(delta))

    @pytest.mark.parametrize("delta", [0.0, 0.15, -0.1, 0.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            po.counterexample_instance(delta)
