"""Equal-cost additive-error scheme: the cheap-probe shortcut, the
reward-bucketed backbone search, and the executable policies it emits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from helpers import (
    cut_escape_subtree,
    draw_instance,
    permutation_prefix_policy,
    prefix_class_optimum,
    reference_escape_subtree,
    slow_report,
)
from probeopt.additive import _Escape


def equal_cost_instance(seed, n_lo=2, n_hi=5, k_hi=4, cost_range=(0.05, 0.3)):
    return draw_instance(
        seed, n_lo=n_lo, n_hi=n_hi, k_hi=k_hi,
        cost_regime="equal", cost_range=cost_range,
    )


def probed_set_bound(n, cert):
    """The budget's count: n * cells * sum of C(n - 1, t), t <= min(h, n - 1)."""
    cap = min(cert.path_bound, n - 1)
    return n * cert.cell_count * sum(math.comb(n - 1, t) for t in range(cap + 1))


class TestInputChecks:
    def test_epsilon_domain(self):
        inst = equal_cost_instance(0)
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(po.EpsilonOutOfRange):
                po.additive_approx(inst, eps)

    def test_unequal_costs_rejected(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[0.5, 0.5], [0.5, 0.5]], (0.1, 0.2)
        )
        with pytest.raises(po.UnequalCosts):
            po.additive_approx(inst, 0.2)

    def test_candidate_budget(self):
        inst = equal_cost_instance(3, n_lo=5, n_hi=5, cost_range=(0.25, 0.3))
        with pytest.raises(po.CandidateBudgetExceeded):
            po.additive_approx(inst, 0.25, max_candidates=1)

    @pytest.mark.parametrize("cap", [0, -5])
    @pytest.mark.parametrize("eps, branch", [(0.25, "coarsened"), (1.0, "cheap-probes")])
    def test_nonpositive_budget_is_an_input_error(self, cap, eps, branch):
        # refused in both branches, and not as a budget give-up
        inst = equal_cost_instance(3, n_lo=5, n_hi=5, cost_range=(0.25, 0.3))
        assert po.additive_approx(inst, eps).certificate.branch == branch
        with pytest.raises(po.ProbingError, match="max_candidates") as caught:
            po.additive_approx(inst, eps, max_candidates=cap)
        assert not isinstance(caught.value, po.CandidateBudgetExceeded)

    def test_candidate_budget_counts_probed_sets(self):
        inst = equal_cost_instance(3, n_lo=5, n_hi=5, cost_range=(0.25, 0.3))
        cert = po.additive_approx(inst, 0.25).certificate
        assert cert.branch == "coarsened"
        sets = probed_set_bound(inst.n, cert)
        at_budget = po.additive_approx(inst, 0.25, max_candidates=sets)
        assert at_budget.certificate.candidates == cert.candidates
        with pytest.raises(po.CandidateBudgetExceeded):
            po.additive_approx(inst, 0.25, max_candidates=sets - 1)


class TestShiftedRewards:
    def test_margins(self):
        out = po.shifted_rewards((0.0, 0.2, 0.5, 1.0), 1)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.3, 0.8])

    def test_top_state_leaves_nothing(self):
        out = po.shifted_rewards((0.0, 0.4, 1.0), 2)
        np.testing.assert_allclose(out, 0.0)

    def test_range_check(self):
        with pytest.raises(IndexError):
            po.shifted_rewards((0.0, 1.0), 2)


class TestCheapBranch:
    def test_free_probes_equal_the_full_optimum(self):
        for seed in range(15):
            inst = draw_instance(seed, n_lo=1, n_hi=6, k_hi=4, cost_regime="zero")
            res = po.additive_approx(inst, 0.2)
            assert res.certificate.branch == "cheap-probes"
            assert res.policy.backup is None
            assert res.report.gain == pytest.approx(
                po.exact_dp(inst).value, abs=1e-9
            )

    def test_triggers_exactly_on_the_cost_bar(self):
        inst = equal_cost_instance(1, cost_range=(0.1, 0.100001))
        c = float(inst.costs[0])
        assert po.additive_approx(inst, c / inst.max_reward).certificate.branch == (
            "cheap-probes"
        )
        below = po.additive_approx(inst, c / inst.max_reward - 1e-6)
        assert below.certificate.branch == "coarsened"


class TestCoarsenedBranch:
    def test_certificate_bookkeeping(self):
        inst = equal_cost_instance(5, cost_range=(0.25, 0.3))
        eps = 0.2  # probe cost strictly above eps * top reward
        res = po.additive_approx(inst, eps)
        cert = res.certificate
        assert cert.branch == "coarsened"
        assert cert.epsilon == eps
        assert cert.probe_cost == float(inst.costs[0])
        half = eps / 2
        assert cert.path_bound == 1 + math.ceil(math.log(half) / math.log(1 - half))
        assert cert.cell_count <= math.ceil(2 / eps) + 1
        assert 0 < cert.candidates <= cert.budget
        assert cert.candidates <= probed_set_bound(inst.n, cert)
        assert 0 <= cert.backup < inst.n

    def test_additive_guarantee_small_sweep(self):
        for seed in range(12):
            inst = equal_cost_instance(seed, n_hi=5, cost_range=(0.2, 0.35))
            opt = po.exact_dp(inst).value
            for eps in (0.2, 0.3):
                res = po.additive_approx(inst, eps)
                assert res.report.gain >= opt - eps * inst.max_reward - 1e-9, (
                    f"seed {seed}, epsilon {eps}"
                )

    def test_winner_report_is_its_own_evaluation(self):
        inst = equal_cost_instance(7, cost_range=(0.25, 0.3))
        res = po.additive_approx(inst, 0.25)
        again = po.evaluate_policy(inst, res.policy)
        assert res.report.gain == pytest.approx(again.gain, abs=1e-15)

    def test_lift_never_loses_against_the_coarse_value(self):
        for seed in range(8):
            inst = equal_cost_instance(seed, n_hi=5, cost_range=(0.22, 0.35))
            res = po.additive_approx(inst, 0.3)
            if res.certificate.branch == "coarsened":
                assert res.report.gain >= res.certificate.coarse_gain - 1e-9


class TestPrefixTreeExecution:
    def test_act_matches_analytic_report(self):
        for seed in range(10):
            inst = equal_cost_instance(seed, n_hi=4, cost_range=(0.25, 0.35))
            res = po.additive_approx(inst, 0.3)
            if not isinstance(res.policy, po.PrefixTreePolicy):
                continue
            rep = po.evaluate_policy(inst, res.policy)
            gain, tx, cost, mass = slow_report(inst, res.policy)
            assert rep.gain == pytest.approx(gain, abs=1e-12)
            assert rep.transmit_prob == pytest.approx(tx, abs=1e-12)
            np.testing.assert_allclose(rep.state_mass, mass, atol=1e-12)

    def test_escape_entries_must_follow_their_states(self):
        # n=4 K=4, backbone channel 1, escapes at states 2 and 3: swapping
        # the two entries would run each escape on the other's subtree
        inst = draw_instance(
            4, n_lo=4, n_hi=4, k_lo=4, k_hi=4, cost_regime="equal"
        )
        policy = po.PrefixTreePolicy(
            backup=0,
            escape_min=2,
            backbone=(1,),
            subtrees=(((3, ((3, (2, 3)),)), (4, ())),),
        )
        doc = policy.to_dict(inst.names)
        back = po.policy_from_dict(doc, inst)
        assert back.subtrees == policy.subtrees
        doc["subtrees"][0].reverse()
        swapped = po.PrefixTreePolicy(
            backup=0, escape_min=2, backbone=(1,),
            subtrees=(policy.subtrees[0][::-1],),
        )
        assert po.evaluate_policy(inst, swapped).gain != po.evaluate_policy(
            inst, policy
        ).gain
        with pytest.raises(po.PolicyStructureError, match="state"):
            po.policy_from_dict(doc, inst)

    def test_serialization_round_trip(self):
        found = False
        for seed in range(12):
            inst = equal_cost_instance(seed, n_hi=4, cost_range=(0.25, 0.35))
            res = po.additive_approx(inst, 0.3)
            if not isinstance(res.policy, po.PrefixTreePolicy):
                continue
            found = True
            back = po.policy_from_dict(res.policy.to_dict(inst.names), inst)
            assert back.backbone == res.policy.backbone
            assert back.subtrees == res.policy.subtrees
            assert po.evaluate_policy(inst, back).gain == pytest.approx(
                res.report.gain, abs=1e-15
            )
        assert found, "no seed produced a backbone winner; widen the sweep"


# n=4 K=4 lists over channels 2 and 3, each breaking one level-list rule
BAD_LEVELS = {
    "ascending": (((1, (2,)), (2, (3,))), po.PolicyStructureError),
    "empty-list": (((2, ()),), po.PolicyStructureError),
    "level-out-of-range": (((4, (2,)),), po.LevelOutOfRange),
    "unknown-channel": (((2, (4,)),), po.UnknownChannel),
    "repeated-channel": (((3, (2,)), (2, (2,))), po.RepeatedProbe),
}


def _subtree_policy(levels):
    """Backbone channel 1, fallback 0, one escape at the top state whose
    subtree runs ``levels``."""
    return po.PrefixTreePolicy(
        backup=0, escape_min=3, backbone=(1,), subtrees=(((4, levels),),)
    )


class TestLevelListRules:
    """Threshold lists and escape subtrees obey one set of rules."""

    inst = po.generate(po.GenSpec(n=4, state_count=4), 0)

    @pytest.mark.parametrize("case", sorted(BAD_LEVELS))
    def test_both_kinds_refuse_alike(self, case):
        levels, err = BAD_LEVELS[case]
        with pytest.raises(err) as flat:
            flat_policy = po.ThresholdPolicy(None, None, levels)
            po.check_policy_invariants(flat_policy, self.inst)
        with pytest.raises(err) as nested:
            _subtree_policy(levels).validate(self.inst)
        assert type(flat.value) is type(nested.value) is err

    @pytest.mark.parametrize("channel", [-1, 4, 9])
    def test_backbone_channels_in_range(self, channel):
        # -1 used to read as the last channel, 9 to die in numpy
        policy = po.PrefixTreePolicy(
            backup=0, escape_min=4, backbone=(channel,), subtrees=()
        )
        with pytest.raises(po.UnknownChannel):
            policy.validate(self.inst)
        with pytest.raises(po.UnknownChannel):
            po.evaluate_policy(self.inst, policy)

    def test_subtree_counts_the_backbone_prefix(self):
        _subtree_policy(((2, (2, 3)),)).validate(self.inst)
        with pytest.raises(po.RepeatedProbe):
            _subtree_policy(((2, (1,)),)).validate(self.inst)


class TestPrefixSearch:
    def test_matches_brute_force_class_optimum(self):
        # n kept tiny: the reference enumerates every backbone ordering
        for seed in (0, 1, 4, 6):
            inst = equal_cost_instance(seed, n_lo=3, n_hi=4, k_hi=3)
            for backup in range(inst.n):
                for i in range(inst.state_count):
                    pol, val = po.best_prefix_policy(inst, backup, i)
                    want = prefix_class_optimum(inst, backup, i)
                    assert val == pytest.approx(want, abs=1e-9), (
                        f"seed {seed}, fallback {backup}, floor {i}"
                    )
                    assert po.evaluate_policy(inst, pol).gain == pytest.approx(
                        val, abs=1e-9
                    )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 7),
        st.integers(2, 4),
        st.sampled_from(po.PROB_SHAPES),
        st.sampled_from([None, 1, 2]),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=2),
        st.booleans(),
    )
    def test_matches_the_permutation_search(
        self, seed, n, k, shape, max_length, copies, sure_top
    ):
        # copied columns tie backbones exactly; a channel sure to read
        # the top state passes nothing, so no backbone steps past it
        # (coarsening can merge a channel's mass into the top cell, so
        # the scheme's instances skip validation too)
        base = draw_instance(
            seed, n_lo=n, n_hi=n, k_lo=k, k_hi=k, prob_shape=shape,
            cost_regime="equal",
        )
        probs = base.probs.copy()
        for dst, src in copies:
            probs[:, dst % n] = probs[:, src % n]
        if sure_top:
            probs[:, seed % n] = np.eye(k)[-1]
        inst = po.Instance.from_arrays(
            base.rewards, probs, base.costs, validate=False
        )
        # the reference keeps its own subtree cache, so a wrong subtree
        # in the package cannot price the reference's escapes too
        ref_cache: dict = {}
        for backup in range(n):
            for i in range(k):
                pol, val = po.best_prefix_policy(inst, backup, i, max_length)
                ref, want = permutation_prefix_policy(
                    inst, backup, i, max_length, ref_cache
                )
                where = f"fallback {backup}, floor {i}"
                assert pol.backbone == ref.backbone, where
                assert pol.to_dict() == ref.to_dict(), where
                assert val == pytest.approx(want, abs=1e-12), where
                assert po.evaluate_policy(inst, pol).gain == pytest.approx(
                    val, abs=1e-9
                ), where

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 7),
        st.integers(2, 5),
        st.sampled_from(po.PROB_SHAPES),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=2),
        st.booleans(),
        st.lists(st.integers(1, 4), max_size=2),
    )
    def test_subtrees_match_the_per_set_reference(
        self, seed, n, k, shape, copies, sure_top, emptied
    ):
        # copied columns tie exactly; a sure-top column passes nothing;
        # emptied states hold no mass on any channel, as coarsening
        # can leave them, so the instance skips validation
        base = draw_instance(
            seed, n_lo=n, n_hi=n, k_lo=k, k_hi=k, prob_shape=shape,
            cost_regime="equal",
        )
        probs = base.probs.copy()
        for dst, src in copies:
            probs[:, dst % n] = probs[:, src % n]
        for v in emptied:
            if v < k - 1:
                probs[0] += probs[v]
                probs[v] = 0.0
        if sure_top:
            probs[:, seed % n] = np.eye(k)[-1]
        inst = po.Instance.from_arrays(
            base.rewards, probs, base.costs, validate=False
        )
        # the cut priced by its stop profile must equal the per-set
        # reference exactly, and so must the package's cut; its closed
        # form sums in another order, so its price gets a tolerance
        memo: dict = {}
        escapes = [_Escape(inst, s) for s in range(k)]
        for size in range(1, n + 1):
            for remaining in map(frozenset, itertools.combinations(range(n), size)):
                mask = sum(1 << j for j in remaining)
                for s, esc in enumerate(escapes):
                    val, levels = cut_escape_subtree(inst, remaining, s, memo)
                    want, reference = reference_escape_subtree(
                        inst, remaining, s
                    )
                    host = (s + 1, tuple((s + u, mem) for u, mem in levels))
                    where = f"remaining {sorted(remaining)}, escape state {s}"
                    assert host == reference, where
                    assert val == want, where
                    assert esc.subtree(mask) == reference, where
                    assert abs(esc.worth(mask) - want) <= 1e-15, where

    def test_top_escape_floor_degenerates_to_blind(self):
        inst = equal_cost_instance(2, n_lo=3, n_hi=4)
        top = inst.state_count - 1
        pol, val = po.best_prefix_policy(inst, 0, top)
        assert pol.backbone == ()
        assert val == pytest.approx(float(inst.blind_rewards[0]), abs=1e-12)

    def test_backbone_length_cap_respected(self):
        inst = equal_cost_instance(9, n_lo=5, n_hi=5)
        pol, _ = po.best_prefix_policy(inst, 0, 0, max_length=1)
        assert len(pol.backbone) <= 1

    def test_argument_checks(self):
        inst = equal_cost_instance(0, n_lo=2, n_hi=3)
        with pytest.raises(po.UnknownChannel):
            po.best_prefix_policy(inst, inst.n, 0)
        with pytest.raises(IndexError):
            po.best_prefix_policy(inst, 0, inst.state_count)
        with pytest.raises(ValueError):
            po.best_prefix_policy(inst, 0, 0, max_length=-1)
