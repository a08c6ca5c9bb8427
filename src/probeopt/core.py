"""Shared model types for multichannel probe-and-transmit optimization.

The setting: a sender holds one packet per slot and owns ``n`` channels.
Channel ``j`` is in a random state drawn fresh each slot from a known
distribution over ``K`` ordered states; state ``u`` carries reward
``rewards[u]`` (throughput if the packet is sent on a channel in that
state), with ``rewards[0] == 0`` and rewards strictly increasing.  Paying
``cost_j`` reveals channel ``j``'s current state.  After any number of
probes the sender transmits on one channel, either a probed one (reward
known) or an unprobed backup (reward is the channel's mean), or stays
silent.  A policy's gain is expected reward minus expected probing cost.

This module holds the instance container, validation, the blind-send
reward, the gain report produced by every evaluator, and JSON
serialization.
Solvers live in :mod:`probeopt.multi_state` (the one-fallback search,
exact at two states, which :mod:`probeopt.two_state` wraps after a
check that K = 2; near-ties go to no fallback, then the lowest index),
:mod:`probeopt.additive` and :mod:`probeopt.lagrange`; the brute-force
reference in :mod:`probeopt.oracle`.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "PROB_TOL",
    "ProbingError",
    "Violation",
    "InstanceValidationError",
    "LevelOutOfRange",
    "PolicyStructureError",
    "RepeatedProbe",
    "UnknownChannel",
    "BackupProbed",
    "InconsistentLeaf",
    "ChannelStats",
    "Instance",
    "validate_instance",
    "blind_backup_reward",
    "GainReport",
    "evaluate_policy",
    "load_instance",
    "save_instance",
]

# Absolute slack for probability mass checks.
PROB_TOL = 1e-12


class ProbingError(Exception):
    """Base class for every error raised by this package."""


@dataclass(frozen=True)
class Violation:
    """One validation finding: a stable code, the offending channel (or
    None for instance-wide problems), and a human-readable detail."""

    code: str
    channel: str | None
    detail: str

    def __str__(self) -> str:
        where = f" [channel {self.channel}]" if self.channel is not None else ""
        return f"{self.code}{where}: {self.detail}"


class InstanceValidationError(ProbingError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


class LevelOutOfRange(ProbingError, IndexError):
    """State index outside ``0..K-1``."""


class PolicyStructureError(ProbingError):
    """A policy object violates the rules of the probing game."""


class RepeatedProbe(PolicyStructureError):
    pass


class UnknownChannel(PolicyStructureError):
    pass


class BackupProbed(PolicyStructureError):
    pass


class InconsistentLeaf(PolicyStructureError):
    pass


@dataclass(frozen=True, eq=False)
class ChannelStats:
    """One channel: a name, a probing cost, and a state distribution.

    ``probs[u]`` is the per-slot probability of state ``u``.  The array is
    copied and frozen on construction.  Channels are an input to
    ``Instance`` and a view of its arrays; no solver reads them.
    """

    name: str
    cost: float
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float, copy=True)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "cost", float(self.cost))
        object.__setattr__(self, "name", str(self.name))

    def __repr__(self) -> str:
        return (
            f"ChannelStats(name={self.name!r}, cost={self.cost!r}, "
            f"probs={self.probs.tolist()!r})"
        )


@dataclass(frozen=True, eq=False, init=False)
class Instance:
    """A probing problem: state rewards, a ``(K, n)`` matrix of state
    distributions (one column per channel), costs and names.  These
    arrays are the instance and all the solvers read; ``channels`` is a
    view of :class:`ChannelStats` made on first read.  Frozen and
    identity-hashed, so solver caches can key on it.

    ``Instance(rewards=..., channels=...)`` stacks the channels at once
    and keeps them as ``channels``.  It and :meth:`from_arrays` refuse
    misshapen arrays with "bad-prob-shape" violations: rewards that are
    not a 1-d vector, and, in channel order, each distribution without
    K entries.  Use :func:`validate_instance` to check model
    assumptions; constructors in this package validate by default and
    internal transforms opt out.
    """

    rewards: np.ndarray
    probs: np.ndarray
    costs: np.ndarray
    names: tuple[str, ...]

    def __init__(self, rewards, channels: Sequence[ChannelStats]) -> None:
        channels = tuple(channels)
        self._fill(*_stacked(rewards, [(ch.name, ch.cost, ch.probs) for ch in channels]))
        self.__dict__["channels"] = channels

    def _fill(self, rewards, probs, costs, names) -> None:
        for a in (rewards, probs, costs):
            a.setflags(write=False)
        self.__dict__.update(rewards=rewards, probs=probs, costs=costs, names=names)

    # -- shapes ---------------------------------------------------------

    @property
    def state_count(self) -> int:
        return len(self.rewards)

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def max_reward(self) -> float:
        return float(self.rewards[-1])

    # -- derived views (cached; instances are immutable) ----------------

    @cached_property
    def channels(self) -> tuple[ChannelStats, ...]:
        probs = self.probs
        return tuple(
            ChannelStats(name=nm, cost=c, probs=probs[:, j])
            for j, (nm, c) in enumerate(zip(self.names, self.costs.tolist()))
        )

    @cached_property
    def blind_rewards(self) -> np.ndarray:
        """Expected reward of an unprobed transmission, per channel."""
        out = self.rewards @ self.probs
        out.setflags(write=False)
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        rewards: Sequence[float] | np.ndarray,
        probs: Sequence[Sequence[float]] | np.ndarray,
        costs: Sequence[float] | np.ndarray,
        names: Sequence[str] | None = None,
        *,
        validate: bool = True,
    ) -> "Instance":
        """Build an instance from a ``(K, n)`` probability matrix.

        Column ``j`` of ``probs`` is channel ``j``'s distribution.  Names
        default to "1".."n".  The instance keeps frozen copies of the
        arrays and makes no :class:`ChannelStats` until ``channels`` is
        read.
        """
        r = _reward_vector(rewards)
        p = np.asarray(probs, dtype=float)
        if p.ndim != 2:
            raise _misshapen("probs must be a 2-d matrix")
        k, n = p.shape
        c = np.asarray(costs, dtype=float)
        if c.shape != (n,):
            raise _misshapen("costs length must match columns")
        if names is None:
            names = range(1, n + 1)
        elif len(names) != n:
            raise _misshapen("names length must match columns")
        names = tuple(map(str, names))
        if k != len(r):  # every channel is misshapen
            _refuse_misshapen(len(r), names, [(k,)] * n)
            p = p.reshape(len(r), 0)  # no channel to refuse
        inst = cls.__new__(cls)
        inst._fill(r, np.array(p, order="C"), np.array(c), names)
        if validate:
            validate_instance(inst)
        return inst

    def index_of(self, name: str) -> int:
        """The index of the first channel called ``name``."""
        index = self.__dict__.get("_name_index")
        if index is None:
            index = {}
            for j, nm in enumerate(self.names):
                index.setdefault(nm, j)
            self.__dict__["_name_index"] = index
        try:
            return index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnknownChannel(f"no channel named {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"Instance(K={self.state_count}, n={self.n}, "
            f"rewards={self.rewards.tolist()!r})"
        )


def _misshapen(detail: str) -> InstanceValidationError:
    return InstanceValidationError([Violation("bad-prob-shape", None, detail)])


def _reward_vector(rewards) -> np.ndarray:
    """A float copy of ``rewards``, refused unless it is a 1-d vector."""
    r = np.array(rewards, dtype=float)
    if r.ndim != 1:
        raise _misshapen("rewards must be a 1-d vector")
    return r


def _stacked(rewards, channels):
    """Rewards, ``(K, n)`` matrix, costs and names of (name, cost, probs)
    triples; misshapen rewards, then distributions, are refused."""
    rows = [np.asarray(p, dtype=float) for _, _, p in channels]
    r = _reward_vector(rewards)
    names = tuple(name for name, _, _ in channels)
    _refuse_misshapen(len(r), names, [p.shape for p in rows])
    # stacked by rows and copied, so the matrix is C-contiguous, as
    # np.column_stack would give it
    probs = np.array(rows).reshape(len(rows), len(r)).T.copy()
    return r, probs, np.array([c for _, c, _ in channels], dtype=float), names


def _refuse_misshapen(k: int, names: Sequence[str], shapes) -> None:
    """Refuse the channels whose distribution shape is not ``(k,)``,
    one violation each, in channel order."""
    bad = [
        Violation(
            "bad-prob-shape", name, f"expected {k} state probabilities, got shape {shape}"
        )
        for name, shape in zip(names, shapes)
        if shape != (k,)
    ]
    if bad:
        raise InstanceValidationError(bad)


# non-finite values are what it looks for: inf - inf and inf / inf make NaN
@np.errstate(invalid="ignore")
def validate_instance(
    instance: Instance,
    *,
    allow_positive_base_reward: bool = False,
    renormalize: bool = False,
) -> Instance:
    """Check model assumptions; raise :class:`InstanceValidationError`
    listing every violation found, or return a clean instance.

    With ``renormalize=True``, state distributions with positive mass are
    rescaled to sum to one (and not flagged); the repaired instance is
    returned.  Checks, with their violation codes:

    * "too-few-states", "no-channels": shape floor (K >= 2, n >= 1).
    * "non-finite": a NaN or infinite reward, probability or cost.
    * "nonzero-base-reward": ``rewards[0] != 0`` unless allowed.
    * "non-increasing-rewards": rewards must be strictly increasing.
    * "reward-out-of-range": rewards outside ``[0, 1]``.
    * "negative-cost".
    * "prob-out-of-range": an entry outside ``[0, 1]``.
    * "probs-not-normalized": mass differs from 1 beyond ``PROB_TOL``.
    * "certain-top-state": all mass on the top state, so probing that
      channel can never reveal anything and the tail recursions divide
      by zero one level down.
    * "duplicate-name".

    Violations are listed in this order: the instance-wide ones, as
    above, then each channel's in channel order.  A channel lists
    "duplicate-name", "non-finite" cost, "negative-cost", then
    "non-finite" probabilities, "prob-out-of-range",
    "probs-not-normalized" and "certain-top-state" (judged after any
    rescaling).  Array shapes are the constructors' check (see
    :class:`Instance`).
    """
    violations: list[Violation] = []
    r = instance.rewards
    k = instance.state_count

    if k < 2:
        violations.append(
            Violation("too-few-states", None, f"need at least 2 states, got {k}")
        )
    if instance.n < 1:
        violations.append(Violation("no-channels", None, "need at least one channel"))
    if not np.all(np.isfinite(r)):
        violations.append(Violation("non-finite", None, f"rewards = {r.tolist()!r}"))
    if k >= 1:
        if not allow_positive_base_reward and r[0] != 0.0:
            violations.append(
                Violation("nonzero-base-reward", None, f"rewards[0] = {r[0]!r}")
            )
        if np.any(np.diff(r) <= 0):
            violations.append(
                Violation(
                    "non-increasing-rewards",
                    None,
                    f"rewards must be strictly increasing, got {r.tolist()!r}",
                )
            )
        if np.any(r < 0.0) or np.any(r > 1.0 + PROB_TOL):
            violations.append(
                Violation(
                    "reward-out-of-range", None, f"rewards outside [0, 1]: {r.tolist()!r}"
                )
            )

    # the per-channel checks, loosened to flags and taken at once over
    # the (n, K) stack of the distributions; only the flagged channels
    # walk the checks themselves, in channel order
    n = instance.n
    names, cost = instance.names, instance.costs
    # contiguous rows, so each sums in ch.probs.sum()'s order
    rows = np.ascontiguousarray(instance.probs.T)
    # a non-finite entry makes a non-finite sum
    flagged = ~(np.abs(rows.sum(axis=1) - 1.0) <= PROB_TOL)
    flagged |= ((rows < -PROB_TOL) | (rows > 1.0 + PROB_TOL)).any(axis=1)
    if k >= 2:  # a rescaled row is flagged already
        flagged |= rows[:, -1] >= 1.0 - PROB_TOL
    flagged |= ~((cost >= 0.0) & (cost < math.inf))
    first: dict[str, int] = {}  # each name's first channel, once one repeats
    if len(set(names)) < n:
        for j, name in enumerate(names):
            if first.setdefault(name, j) != j:
                flagged[j] = True

    repaired: dict[int, np.ndarray] = {}
    for j in np.flatnonzero(flagged).tolist():
        name, c, p = names[j], float(cost[j]), rows[j]
        if first.get(name, j) != j:
            violations.append(Violation("duplicate-name", name, "name reused"))
        if not math.isfinite(c):
            violations.append(Violation("non-finite", name, f"cost = {c!r}"))
        if c < 0.0:
            violations.append(Violation("negative-cost", name, f"cost = {c!r}"))
        total = float(p.sum())
        # only a non-finite sum can hide a non-finite entry
        if not math.isfinite(total) and not np.all(np.isfinite(p)):
            violations.append(
                Violation("non-finite", name, f"probs = {p.tolist()!r}")
            )
        if np.any(p < -PROB_TOL) or np.any(p > 1.0 + PROB_TOL):
            violations.append(
                Violation("prob-out-of-range", name, f"probs = {p.tolist()!r}")
            )
        if abs(total - 1.0) > PROB_TOL:
            if renormalize and total > PROB_TOL:
                p = repaired[j] = p / total
            else:
                violations.append(
                    Violation(
                        "probs-not-normalized", name, f"mass sums to {total!r}"
                    )
                )
        if k >= 2 and float(p[-1]) >= 1.0 - PROB_TOL:
            violations.append(
                Violation(
                    "certain-top-state", name, "top state must have probability < 1"
                )
            )

    if violations:
        raise InstanceValidationError(violations)
    if repaired:
        rows = rows.copy()
        for j, p in repaired.items():
            rows[j] = p
        return Instance.from_arrays(
            instance.rewards, rows.T, cost, names, validate=False
        )
    return instance


def blind_backup_reward(instance: Instance, channel: int | None) -> float:
    """Expected reward of transmitting on ``channel`` without probing it.

    ``None`` means "no backup designated" and maps to the sentinel -1.0,
    strictly worse than any real transmission (rewards live in [0, 1]),
    so comparisons against it never tie.
    """
    if channel is None:
        return -1.0
    if not 0 <= channel < instance.n:
        raise UnknownChannel(f"channel index {channel} out of range 0..{instance.n - 1}")
    return float(instance.blind_rewards[channel])


@dataclass(frozen=True, eq=False)
class GainReport:
    """Evaluation of one policy on one instance.

    ``state_mass[u]`` is the probability that the slot ends with a
    transmission on a channel whose true state is ``u`` (blind backups
    contribute their state distribution).  ``transmit_prob`` is the total
    mass, ``success_prob`` the expected reward, ``probe_cost`` the
    expected probing spend.  ``gain`` is reward minus cost, and when
    ``altered_threshold`` is set, additionally minus
    ``altered_threshold * transmit_prob`` (a per-transmission charge used
    by the rate-constrained machinery).
    """

    gain: float
    transmit_prob: float
    probe_cost: float
    success_prob: float
    state_mass: np.ndarray
    altered_threshold: float | None = None

    def __post_init__(self) -> None:
        m = np.array(self.state_mass, dtype=float, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "state_mass", m)

    @classmethod
    def assemble(
        cls,
        instance: Instance,
        state_mass: np.ndarray,
        probe_cost: float,
        altered_threshold: float | None = None,
    ) -> "GainReport":
        mass = np.asarray(state_mass, dtype=float)
        transmit = float(mass.sum())
        success = float(mass @ instance.rewards)
        gain = success - float(probe_cost)
        if altered_threshold is not None:
            gain -= float(altered_threshold) * transmit
        return cls(
            gain=gain,
            transmit_prob=transmit,
            probe_cost=float(probe_cost),
            success_prob=success,
            state_mass=mass,
            altered_threshold=None if altered_threshold is None else float(altered_threshold),
        )

    def as_dict(self) -> dict:
        return {
            "gain": self.gain,
            "transmit_prob": self.transmit_prob,
            "probe_cost": self.probe_cost,
            "success_prob": self.success_prob,
            "state_mass": self.state_mass.tolist(),
            "altered_threshold": self.altered_threshold,
        }


def evaluate_policy(
    instance: Instance,
    policy,
    *,
    altered_threshold: float | None = None,
) -> GainReport:
    """Exact analytic evaluation of ``policy`` on ``instance``.

    Dispatches to the policy's ``_gain_report`` hook; every policy class
    in this package provides one.  ``altered_threshold`` charges each
    transmission that amount (see :class:`GainReport`).
    """
    hook = getattr(policy, "_gain_report", None)
    if hook is None:
        raise TypeError(f"{type(policy).__name__} cannot be evaluated")
    return hook(instance, altered_threshold)


# -- serialization ------------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    return {
        "rewards": instance.rewards.tolist(),
        "channels": [
            {"name": name, "cost": cost, "probs": p}
            for name, cost, p in zip(
                instance.names, instance.costs.tolist(), instance.probs.T.tolist()
            )
        ],
    }


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _numbers(value) -> bool:
    """Whether a vector field holds numbers only (plain floats are
    passed at once); its shape, a bare number or null included, is the
    constructors' check."""
    if isinstance(value, (list, tuple)):
        return all(type(v) is float or (v is not None and _numbers(v)) for v in value)
    return value is None or _is_number(value)


def _mistyped(rewards, channels) -> list[Violation]:
    """One "bad-document" violation per field of the wrong type, in
    document order.  A channel whose name is not a string is named by
    its position, as :meth:`Instance.from_arrays` names channels."""
    fields = [(None, "rewards", _numbers(rewards), "numbers", rewards)]
    for j, (name, cost, probs) in enumerate(channels):
        label = name if isinstance(name, str) else str(j + 1)
        fields += [
            (label, "name", isinstance(name, str), "a string", name),
            (label, "cost", _is_number(cost), "a number", cost),
            (label, "probs", _numbers(probs), "numbers", probs),
        ]
    return [
        Violation("bad-document", label, f"{field} must be {what}, got {value!r}")
        for label, field, ok, what, value in fields
        if not ok
    ]


def instance_from_dict(data: dict, *, validate: bool = True) -> Instance:
    """Decode an instance document (see README): fields of the wrong
    type are refused, then misshapen arrays as :class:`Instance` does."""
    try:
        rewards = data["rewards"]
        channels = [(c["name"], c["cost"], c["probs"]) for c in data["channels"]]
        bad = _mistyped(rewards, channels)
        if bad:
            raise InstanceValidationError(bad)
        stacked = _stacked(rewards, channels)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceValidationError(
            [Violation("bad-document", None, f"malformed instance document: {exc}")]
        ) from exc
    return Instance.from_arrays(*stacked, validate=validate)


def _refuse_constant(token: str):
    raise InstanceValidationError(
        [Violation("non-finite", None, f"{token} is not a finite number")]
    )


def load_instance(path, *, validate: bool = True) -> Instance:
    """Read an instance from a JSON document (see README for the layout).

    The non-standard ``NaN`` and ``Infinity`` tokens are refused with a
    "non-finite" violation, whatever ``validate`` says.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, parse_constant=_refuse_constant)
    return instance_from_dict(data, validate=validate)


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def round_floats(obj, sig: int = 12):
    """Round every float in a JSON-ish structure to ``sig`` significant
    digits.  Keeps reports diffable across platforms."""
    if isinstance(obj, float):
        if obj == 0.0 or not math.isfinite(obj):
            return obj
        return round(obj, sig - 1 - int(math.floor(math.log10(abs(obj)))))
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj
