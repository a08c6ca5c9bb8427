"""Model container, validation, tail algebra, and serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeopt as po
from helpers import draw_instance, reference_validate


def small_instance():
    return po.Instance.from_arrays(
        (0.0, 0.5, 1.0),
        [[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]],
        (0.05, 0.1),
        names=("left", "right"),
    )


class TestInstance:
    def test_shapes_and_cache(self):
        inst = small_instance()
        assert inst.n == 2
        assert inst.state_count == 3
        assert inst.probs.shape == (3, 2)
        assert inst.max_reward == 1.0
        np.testing.assert_allclose(inst.probs.sum(axis=0), 1.0)

    def test_blind_rewards(self):
        inst = small_instance()
        np.testing.assert_allclose(
            inst.blind_rewards, [0.3 * 0.5 + 0.2, 0.3 * 0.5 + 0.5]
        )

    def test_default_names_are_one_based(self):
        inst = po.Instance.from_arrays((0.0, 1.0), [[0.5, 0.5], [0.5, 0.5]], (0, 0))
        assert inst.names == ("1", "2")

    def test_index_of(self):
        inst = small_instance()
        assert inst.index_of("right") == 1
        with pytest.raises(po.UnknownChannel):
            inst.index_of("middle")

    def test_index_of_takes_the_first_of_repeated_names(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0),
            [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]],
            (0.0, 0.0, 0.0),
            names=("a", "b", "a"),
            validate=False,
        )
        assert inst.index_of("a") == inst.names.index("a") == 0
        assert inst.index_of("b") == 1
        for name in ("c", 1, None, ["a"], {"a": 0}):
            with pytest.raises(po.UnknownChannel):
                inst.index_of(name)

    @pytest.mark.parametrize("n, k", [(1, 2), (7, 3), (300, 16)])
    def test_probs_stack_like_column_stack(self, n, k):
        inst = po.generate(po.GenSpec(n=n, state_count=k), n)
        probs = po.Instance(rewards=inst.rewards, channels=inst.channels).probs
        want = np.column_stack([ch.probs for ch in inst.channels])
        assert probs.shape == want.shape and np.array_equal(probs, want)
        assert probs.flags.c_contiguous and not probs.flags.writeable

    @pytest.mark.parametrize("names", [["a"], ["a", "b"], ["a", "b", "c", "d"]])
    def test_from_arrays_refuses_a_names_count_other_than_n(self, names):
        with pytest.raises(po.InstanceValidationError) as err:
            po.Instance.from_arrays(
                (0.0, 1.0), [[0.5] * 3, [0.5] * 3], (0.0,) * 3, names=names
            )
        (v,) = err.value.violations
        assert (v.code, v.channel) == ("bad-prob-shape", None)
        assert "names" in v.detail

    @pytest.mark.parametrize(
        "rewards", [[[0.0], [0.5], [1.0]], 0.0, None], ids=["column", "scalar", "null"]
    )
    def test_rewards_must_be_a_vector(self, rewards):
        channel = po.ChannelStats(name="a", cost=0.1, probs=(0.5, 0.3, 0.2))
        for build in (
            lambda: po.Instance(rewards=rewards, channels=[channel]),
            lambda: po.Instance.from_arrays(rewards, [[0.5], [0.3], [0.2]], (0.1,)),
        ):
            with pytest.raises(po.InstanceValidationError) as err:
                build()
            (v,) = err.value.violations
            assert (v.code, v.channel, v.detail) == (
                "bad-prob-shape", None, "rewards must be a 1-d vector"
            )

    def test_channels_are_kept_and_stacked_at_once(self):
        channels = [
            po.ChannelStats(name="a", cost=0.1, probs=(0.5, 0.3, 0.2)),
            po.ChannelStats(name="b", cost=0.2, probs=(0.1, 0.1, 0.8)),
        ]
        inst = po.Instance(rewards=(0.0, 0.5, 1.0), channels=channels)
        assert inst.channels == tuple(channels) and "probs" in inst.__dict__
        assert [f.name for f in dataclasses.fields(inst)] == [
            "rewards", "probs", "costs", "names"
        ]
        assert po.instance_to_dict(inst) == po.instance_to_dict(
            po.Instance.from_arrays(inst.rewards, inst.probs, inst.costs, inst.names)
        )

    def test_from_arrays_keeps_frozen_copies(self):
        rewards, probs, costs = np.array([0.0, 1.0]), np.full((2, 3), 0.5), np.zeros(3)
        inst = po.Instance.from_arrays(rewards, probs, costs)
        rewards[1], probs[0, 0], costs[0] = 0.5, 0.0, 1.0
        assert inst.rewards.tolist() == [0.0, 1.0] and inst.costs.tolist() == [0.0] * 3
        assert inst.probs.tolist() == [[0.5] * 3] * 2
        for a in (inst.rewards, inst.probs, inst.costs):
            assert not a.flags.writeable and a.flags.c_contiguous
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.channels = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.probs = probs
        assert inst != po.Instance.from_arrays(rewards, probs, costs, validate=False)
        with pytest.raises(AttributeError):
            inst.no_such_field
        with pytest.raises(AttributeError):  # not a recursion through names
            po.Instance.__new__(po.Instance).channels

    def test_solve_and_save_make_no_channels(self, tmp_path):
        inst = po.generate(po.GenSpec(n=8, state_count=4), 3)
        po.validate_instance(inst)
        po.evaluate_policy(inst, po.best_reserve_backup(inst))
        po.evaluate_policy(inst, po.exact_dp(inst).tree)
        po.save_instance(inst, tmp_path / "inst.json")
        assert "channels" not in inst.__dict__
        channels = inst.channels
        assert inst.channels is channels and len(channels) == inst.n
        for j, ch in enumerate(channels):
            assert ch.probs.tobytes() == inst.probs[:, j].tobytes()
            assert not ch.probs.flags.writeable
            assert (ch.name, ch.cost) == (inst.names[j], inst.costs[j])


class TestValidation:
    def test_clean_instance_passes(self):
        po.validate_instance(small_instance())

    @pytest.mark.parametrize(
        "rewards,probs,costs,code",
        [
            ((0.1, 1.0), [[0.5, 0.5]] * 2, (0.0,), "nonzero-base-reward"),
            ((0.0, 0.5, 0.4), [[0.3, 0.3, 0.4]] * 1, (0.0,), "non-increasing-rewards"),
            ((0.0, 1.5), [[0.5, 0.5]] * 2, (0.0,), "reward-out-of-range"),
            ((0.0, 1.0), [[0.5, 0.5]] * 2, (-0.1,), "negative-cost"),
            ((0.0, 1.0), [[0.4, 0.4]] * 2, (0.0,), "probs-not-normalized"),
            ((0.0, 1.0), [[1.2, -0.2]] * 2, (0.0,), "prob-out-of-range"),
            ((0.0, 1.0), [[0.0, 1.0]] * 2, (0.0,), "certain-top-state"),
        ],
    )
    def test_violation_codes(self, rewards, probs, costs, code):
        cols = np.array(probs, dtype=float).T
        if cols.shape[1] != len(costs):
            cols = cols[:, : len(costs)]
        inst = po.Instance.from_arrays(rewards, cols, costs, validate=False)
        with pytest.raises(po.InstanceValidationError) as err:
            po.validate_instance(inst)
        assert code in err.value.codes()

    def test_duplicate_name(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0),
            [[0.5, 0.5], [0.5, 0.5]],
            (0.0, 0.0),
            names=("a", "a"),
            validate=False,
        )
        with pytest.raises(po.InstanceValidationError) as err:
            po.validate_instance(inst)
        assert "duplicate-name" in err.value.codes()

    def test_multiple_violations_reported_together(self):
        inst = po.Instance.from_arrays(
            (0.2, 0.1), [[0.4, 0.4], [0.4, 0.4]], (-1.0, 0.0), validate=False
        )
        with pytest.raises(po.InstanceValidationError) as err:
            po.validate_instance(inst)
        codes = err.value.codes()
        for expected in (
            "nonzero-base-reward",
            "non-increasing-rewards",
            "negative-cost",
            "probs-not-normalized",
        ):
            assert expected in codes

    @pytest.mark.parametrize("rewards", [(0.0, 0.5, 1.0), (0.0, 0.2, 0.5, 1.0)])
    def test_reward_count_other_than_prob_rows(self, rewards):
        # every channel's distribution has the wrong length, in channel order
        with pytest.raises(po.InstanceValidationError) as err:
            po.Instance.from_arrays(
                rewards, [[0.5, 0.4, 0.3], [0.5, 0.6, 0.7]], (0.0, 0.1, 0.2), validate=False
            )
        assert [(v.code, v.channel, v.detail) for v in err.value.violations] == [
            (
                "bad-prob-shape",
                name,
                f"expected {len(rewards)} state probabilities, got shape (2,)",
            )
            for name in ("1", "2", "3")
        ]

    def test_renormalize_repairs_mass(self):
        inst = po.Instance.from_arrays(
            (0.0, 1.0), [[0.4, 0.4], [0.4, 0.4]], (0.0, 0.0), validate=False
        )
        fixed = po.validate_instance(inst, renormalize=True)
        np.testing.assert_allclose(fixed.probs.sum(axis=0), 1.0)

    def test_from_arrays_validates_by_default(self):
        with pytest.raises(po.InstanceValidationError):
            po.Instance.from_arrays((0.0, 1.0), [[0.2, 0.2], [0.2, 0.2]], (0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.sampled_from(["reward", "prob", "cost"]),
        st.integers(0, 1_000),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_any_non_finite_entry_is_refused(self, seed, field, pick, bad):
        doc = po.instance_to_dict(draw_instance(seed, n_hi=5))
        channel = doc["channels"][pick % len(doc["channels"])]
        if field == "reward":
            doc["rewards"][pick % len(doc["rewards"])] = bad
        elif field == "prob":
            channel["probs"][pick % len(channel["probs"])] = bad
        else:
            channel["cost"] = bad
        with pytest.raises(po.InstanceValidationError) as err:
            po.instance_from_dict(doc)
        assert "non-finite" in err.value.codes()


# what a corruption does to one channel's (name, cost, probs)
CORRUPTIONS = {
    "cost-nan": lambda name, cost, p, x: (name, math.nan, p),
    "cost-inf": lambda name, cost, p, x: (name, math.inf, p),
    "cost-neg-inf": lambda name, cost, p, x: (name, -math.inf, p),
    "cost-negative": lambda name, cost, p, x: (name, -x, p),
    "prob-nan": lambda name, cost, p, x: (name, cost, _put(p, x, math.nan)),
    "prob-inf": lambda name, cost, p, x: (name, cost, _put(p, x, math.inf)),
    "prob-neg-inf": lambda name, cost, p, x: (name, cost, _put(p, x, -math.inf)),
    "prob-negative": lambda name, cost, p, x: (name, cost, _put(p, x, -x)),
    "prob-over-one": lambda name, cost, p, x: (name, cost, _put(p, x, 1.0 + x)),
    "nudge": lambda name, cost, p, x: (name, cost, p * (1.0 + x * 1e-11)),
    "scaled": lambda name, cost, p, x: (name, cost, p * (0.2 + 2.0 * x)),
    "shifted": lambda name, cost, p, x: (name, cost, _shift(p, 1.0 + x)),
    "zero-mass": lambda name, cost, p, x: (name, cost, p * 0.0),
    "sure-top": lambda name, cost, p, x: (name, cost, _put(p * 0.0, -1, 1.0)),
    "near-sure-top": lambda name, cost, p, x: (
        name, cost, _put(_put(p * 0.0, -1, 1.0 - x * 1e-11), 0, x * 1e-11)
    ),
    "short": lambda name, cost, p, x: (name, cost, p.ravel()[:-1]),
    "long": lambda name, cost, p, x: (name, cost, np.append(p, 0.0)),
    "matrix": lambda name, cost, p, x: (name, cost, p.reshape(1, -1)),
    "scalar": lambda name, cost, p, x: (name, cost, np.float64(x)),
}


def _put(p, x, value):
    """A copy of ``p`` with one entry (picked by ``x``) set to ``value``."""
    p = np.array(p, dtype=float)
    if p.size:
        p.flat[x if isinstance(x, int) else int(x * p.size) % p.size] = value
    return p


def _shift(p, d):
    """``d`` of mass moved from the last entry to the first: the same
    sum, up to rounding, with entries outside [0, 1]."""
    p = np.array(p, dtype=float)
    if p.size:
        p.flat[0] += d
        p.flat[-1] -= d
    return p


@st.composite
def corrupted_channels(draw):
    """Rewards and channels, some corrupted; the channels may not stack."""
    k = draw(st.integers(2, 17))
    inst = po.generate(
        po.GenSpec(
            n=draw(st.integers(1, 12)),
            state_count=k,
            prob_shape=draw(st.sampled_from(po.PROB_SHAPES)),
        ),
        draw(st.integers(0, 2**32 - 1)),
    )
    channels = list(inst.channels)
    hits = st.tuples(
        st.integers(0, inst.n - 1),
        st.sampled_from(sorted(CORRUPTIONS) + ["duplicate"]),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    for j, what, x in draw(st.lists(hits, max_size=8)):
        ch = channels[j]
        if what == "duplicate":
            name, cost, p = channels[int(x * inst.n)].name, ch.cost, ch.probs
        else:
            with np.errstate(invalid="ignore"):  # inf * 0 zeroing a corrupted row
                name, cost, p = CORRUPTIONS[what](ch.name, ch.cost, ch.probs, x)
        channels[j] = po.ChannelStats(name=name, cost=cost, probs=p)
    rewards = draw(
        st.sampled_from(
            [inst.rewards, np.linspace(0.1, 1.0, k), np.append(inst.rewards[:-1], np.nan)]
        )
    )
    return rewards, channels


def _validated(check, inst, **options):
    try:
        out = check(inst, **options)
    except po.InstanceValidationError as err:
        return str(err), [(v.code, v.channel, v.detail) for v in err.violations]
    return out, None


class TestArrayValidation:
    """The array checks against the per-channel loop they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(corrupted_channels(), st.booleans(), st.booleans())
    def test_matches_the_per_channel_loop(self, drawn, renormalize, allow_base):
        rewards, channels = drawn
        k = len(rewards)
        misshapen = [
            (
                "bad-prob-shape",
                ch.name,
                f"expected {k} state probabilities, got shape {ch.probs.shape}",
            )
            for ch in channels
            if ch.probs.shape != (k,)
        ]
        if misshapen:
            # the constructor lists exactly the misshapen channels, in order
            with pytest.raises(po.InstanceValidationError) as err:
                po.Instance(rewards=rewards, channels=channels)
            assert [(v.code, v.channel, v.detail) for v in err.value.violations] == misshapen
            return
        inst = po.Instance(rewards=rewards, channels=channels)
        options = dict(renormalize=renormalize, allow_positive_base_reward=allow_base)
        self.check_same_as_reference(inst, options)
        # the same channels as arrays
        self.check_same_as_reference(
            po.Instance.from_arrays(
                inst.rewards,
                np.column_stack([ch.probs for ch in inst.channels]),
                inst.costs,
                inst.names,
                validate=False,
            ),
            options,
        )

    @staticmethod
    def check_same_as_reference(inst, options):
        got, found = _validated(po.validate_instance, inst, **options)
        want, expected = _validated(reference_validate, inst, **options)
        assert found == expected
        if expected is not None:
            assert got == want  # the error text
            return
        assert (got is inst) == (want is inst)
        assert got.rewards.tobytes() == want.rewards.tobytes()
        assert got.names == want.names
        assert got.probs.tobytes() == want.probs.tobytes()
        for a, b in zip(got.channels, want.channels, strict=True):
            assert a.cost == b.cost
            assert a.probs.shape == b.probs.shape
            assert a.probs.tobytes() == b.probs.tobytes()

    @pytest.mark.parametrize("k", [8, 9, 16, 17, 33])
    def test_mass_is_summed_row_by_row(self, k):
        # from K = 8 on, column sums of a (K, n) stack differ from each
        # channel's own sum, in the reported mass and the repaired rows
        rng = np.random.default_rng(k)
        probs = rng.dirichlet(np.ones(k), size=40).T * rng.uniform(0.5, 1.5, 40)
        inst = po.Instance.from_arrays(
            np.linspace(0.0, 1.0, k), probs, np.zeros(40), validate=False
        )
        found = _validated(po.validate_instance, inst)[1]
        assert found == _validated(reference_validate, inst)[1]
        assert {code for code, _, _ in found} == {"probs-not-normalized"}
        got = po.validate_instance(inst, renormalize=True)
        want = reference_validate(inst, renormalize=True)
        assert got.probs.tobytes() == want.probs.tobytes()


class TestTailAlgebra:
    def test_blind_backup_reward(self):
        inst = small_instance()
        assert po.blind_backup_reward(inst, None) == -1.0
        assert po.blind_backup_reward(inst, 1) == pytest.approx(0.65)
        with pytest.raises(po.UnknownChannel):
            po.blind_backup_reward(inst, 5)


class TestGainReport:
    def test_assemble_arithmetic(self):
        inst = small_instance()
        mass = np.array([0.1, 0.2, 0.3])
        rep = po.GainReport.assemble(inst, mass, probe_cost=0.04)
        assert rep.transmit_prob == pytest.approx(0.6)
        assert rep.success_prob == pytest.approx(0.1 * 0 + 0.2 * 0.5 + 0.3 * 1.0)
        assert rep.gain == pytest.approx(rep.success_prob - 0.04)

    def test_transmission_charge(self):
        inst = small_instance()
        mass = np.array([0.1, 0.2, 0.3])
        plain = po.GainReport.assemble(inst, mass, 0.04)
        charged = po.GainReport.assemble(inst, mass, 0.04, altered_threshold=0.25)
        assert charged.gain == pytest.approx(plain.gain - 0.25 * 0.6)
        assert charged.altered_threshold == 0.25

    def test_as_dict_round_trips_through_json(self):
        inst = small_instance()
        rep = po.GainReport.assemble(inst, np.array([0.0, 0.5, 0.5]), 0.01)
        blob = json.loads(json.dumps(po.round_floats(rep.as_dict())))
        assert blob["transmit_prob"] == pytest.approx(1.0)

    def test_evaluate_rejects_non_policies(self):
        with pytest.raises(TypeError):
            po.evaluate_policy(small_instance(), object())


class TestSerialization:
    def test_round_trip(self):
        inst = small_instance()
        back = po.instance_from_dict(po.instance_to_dict(inst))
        np.testing.assert_allclose(back.probs, inst.probs)
        np.testing.assert_allclose(back.costs, inst.costs)
        np.testing.assert_allclose(back.rewards, inst.rewards)
        assert back.names == inst.names

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        inst = small_instance()
        po.save_instance(inst, path)
        back = po.load_instance(path)
        np.testing.assert_allclose(back.probs, inst.probs)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_load_refuses_non_finite_tokens(self, tmp_path, token):
        path = tmp_path / "inst.json"
        po.save_instance(small_instance(), path)
        path.write_text(path.read_text().replace("0.05", token, 1))
        for validate in (True, False):
            with pytest.raises(po.InstanceValidationError) as err:
                po.load_instance(path, validate=validate)
            assert err.value.codes() == ("non-finite",)

    def test_malformed_document(self):
        with pytest.raises(po.InstanceValidationError) as err:
            po.instance_from_dict({"rewards": [0, 1]})
        assert "bad-document" in err.value.codes()

    def test_bools_strings_and_unnamed_channels_refused(self):
        # every one of these used to be coerced: float("0.1"), str(7),
        # and True read as 1.0
        doc = {
            "rewards": [0, True],
            "channels": [
                {"name": 7, "cost": "0.1", "probs": [True, False]},
                {"name": "b", "cost": "1e-1", "probs": [0.5, 0.5]},
            ],
        }
        for validate in (True, False):
            with pytest.raises(po.InstanceValidationError) as err:
                po.instance_from_dict(doc, validate=validate)
            assert [(v.code, v.channel, v.detail) for v in err.value.violations] == [
                ("bad-document", None, "rewards must be numbers, got [0, True]"),
                ("bad-document", "1", "name must be a string, got 7"),
                ("bad-document", "1", "cost must be a number, got '0.1'"),
                ("bad-document", "1", "probs must be numbers, got [True, False]"),
                ("bad-document", "b", "cost must be a number, got '1e-1'"),
            ]

    @pytest.mark.parametrize("value", [True, "0.5", None, {"x": 1}])
    @pytest.mark.parametrize("field", ["reward", "cost", "prob"])
    def test_one_violation_per_mistyped_number(self, field, value):
        doc = po.instance_to_dict(small_instance())
        channel = doc["channels"][1]
        if field == "reward":
            doc["rewards"][1] = value
        elif field == "cost":
            channel["cost"] = value
        else:
            channel["probs"][0] = value
        with pytest.raises(po.InstanceValidationError) as err:
            po.instance_from_dict(doc, validate=False)
        (v,) = err.value.violations
        assert v.code == "bad-document"
        assert v.channel == (None if field == "reward" else channel["name"])

    def test_from_dict_validates_by_default(self):
        doc = {
            "rewards": [0.0, 1.0],
            "channels": [{"name": "1", "cost": -1.0, "probs": [0.5, 0.5]}],
        }
        with pytest.raises(po.InstanceValidationError):
            po.instance_from_dict(doc)
        assert po.instance_from_dict(doc, validate=False).costs[0] == -1.0


class TestRoundFloats:
    def test_significant_digits(self):
        assert po.round_floats(0.123456789012345) == 0.123456789012
        assert po.round_floats(1234.56789012345e7) == 1.23456789012e10

    def test_structure_preserved(self):
        obj = {"a": [1, 2.5, None, "x"], "b": {"c": True, "d": 0.0}}
        out = po.round_floats(obj)
        assert out == {"a": [1, 2.5, None, "x"], "b": {"c": True, "d": 0.0}}

    def test_non_finite_passthrough(self):
        assert math.isinf(po.round_floats(float("inf")))
