"""Level-list probing policies for many-state channels.

A policy here is built around one designated fallback channel (or none)
and an optional decision bar.  Construction walks state levels from the
top down: at level u it admits every still-unassigned channel whose
upper tail at u, discounted by its probing cost, beats both the
fallback and the reward one level down.  Execution probes those lists
top level first, best candidate first, and stops as soon as an
observation reaches the level being worked; the slot then closes by
sending the best probed channel, the fallback blind, or nothing,
whichever the decision rule picks.  Searching the one-fallback family
costs n + 1 evaluations and lands within a constant factor of the
unrestricted optimum; the evaluators here are exact and O(n K) per
policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BackupProbed,
    GainReport,
    Instance,
    LevelOutOfRange,
    PolicyStructureError,
    RepeatedProbe,
    UnknownChannel,
    blind_backup_reward,
)

__all__ = [
    "ThresholdPolicy",
    "probe_floor",
    "probe_levels",
    "reserve_backup_policy",
    "best_reserve_backup",
    "check_policy_invariants",
]


# -- per-instance scratch (tails, scores, sort orders) ------------------


class _Workspace:
    """Arrays shared by every policy built on one instance.

    ``tail[v, j]`` is channel j's probability of sitting at state v or
    higher (row K is zero); ``tail_mean[v, j]`` the expected reward
    conditioned on that.  ``score[v, j]`` is the tail mean net of the
    amortized probing cost, the quantity level membership and probing
    order are decided on; minus infinity where the tail is empty.
    Holds no reference to the instance itself, so storing it on the
    instance makes no reference cycle.
    """

    def __init__(self, instance: Instance):
        probs = instance.probs
        k, n = probs.shape
        rewards = instance.rewards

        tail = np.vstack(
            [np.cumsum(probs[::-1], axis=0)[::-1], np.zeros((1, n))]
        )
        num = np.cumsum((probs * rewards[:, None])[::-1], axis=0)[::-1]
        body = tail[:k]
        safe = np.where(body > 0.0, body, 1.0)
        tail_mean = np.where(body > 0.0, num / safe, 0.0)
        score = np.where(
            body > 0.0, tail_mean - instance.costs[None, :] / safe, -np.inf
        )

        self.probs = probs
        self.costs = instance.costs
        self.tail = tail
        self.tail_mean = tail_mean
        self.score = score
        # per level: candidates by descending score, ties by index
        self.order = np.argsort(-score, axis=1, kind="stable")
        # membership gate floor per level before any fallback enters:
        # the reward one level down (sentinel below the bottom)
        self.reward_below = np.concatenate([[-1.0], rewards[:-1]])


def _workspace(instance: Instance) -> _Workspace:
    """The instance's workspace, built on first use and kept in the
    instance's own attribute dict (as its cached properties are), so it
    lives exactly as long as the instance."""
    ws = instance.__dict__.get("_workspace")
    if ws is None:
        ws = instance.__dict__["_workspace"] = _Workspace(instance)
    return ws


# -- construction -------------------------------------------------------


def _bar(instance: Instance, backup: int | None, threshold: float | None) -> float:
    b = blind_backup_reward(instance, backup)
    if backup is None:
        # an empty-handed close is silence, worth 0, not the -1 sentinel;
        # probing only pays if it can beat that
        b = 0.0
    return b if threshold is None else max(b, float(threshold))


def probe_floor(
    instance: Instance, backup: int | None, threshold: float | None = None
) -> int:
    """Lowest level worth probing for: the first state whose reward
    strictly beats both the fallback's mean and the decision bar.
    Equals K when nothing does (the policy then never probes)."""
    bar = _bar(instance, backup, threshold)
    return int(np.searchsorted(instance.rewards, bar, side="right"))


def _level_assignment(
    inst: Instance, ws: _Workspace, backup: int | None, threshold: float | None
) -> np.ndarray:
    """Per channel, the level it probes at (-1 if it never probes).

    A channel lands on the highest level where its score clears that
    level's gate: the fallback mean, the decision bar, and the reward
    one level down, whichever is largest.
    """
    bar = _bar(inst, backup, threshold)
    k = inst.state_count
    floor = int(np.searchsorted(inst.rewards, bar, side="right"))
    if floor >= k:
        return np.full(inst.n, -1, dtype=int)
    gates = np.maximum(ws.reward_below, bar)
    member = ws.score > gates[:, None]
    member[:floor] = False
    if backup is not None:
        member[:, backup] = False
    any_level = member.any(axis=0)
    top_level = (k - 1) - np.argmax(member[::-1], axis=0)
    return np.where(any_level, top_level, -1)


def _ordered_levels(
    ws: _Workspace, assignment: np.ndarray
) -> list[tuple[int, np.ndarray]]:
    """Nonempty levels, top first, members by descending score."""
    present = np.bincount(
        assignment[assignment >= 0], minlength=ws.order.shape[0]
    )
    out = []
    for u in np.flatnonzero(present)[::-1]:
        cand = ws.order[u]
        out.append((int(u), cand[assignment[cand] == u]))
    return out


def probe_levels(
    instance: Instance, backup: int | None, threshold: float | None = None
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The nonempty probe lists, top level first, in probing order."""
    ws = _workspace(instance)
    assignment = _level_assignment(instance, ws, backup, threshold)
    return tuple(
        (u, tuple(int(j) for j in mem))
        for u, mem in _ordered_levels(ws, assignment)
    )


def reserve_backup_policy(
    instance: Instance, backup: int | None, threshold: float | None = None
) -> "ThresholdPolicy":
    """The level-list policy that reserves ``backup`` (None for no
    fallback) under decision bar ``threshold`` (None for always-send)."""
    if backup is not None and not 0 <= backup < instance.n:
        raise UnknownChannel(f"backup index {backup} out of range")
    return ThresholdPolicy(
        backup=backup,
        threshold=None if threshold is None else float(threshold),
        levels=probe_levels(instance, backup, threshold),
    )


# -- exact evaluation ---------------------------------------------------


def _stop_profile(
    ws: _Workspace, levels: list[tuple[int, np.ndarray]]
) -> tuple[float, np.ndarray, float]:
    """Integrate a level-list probe schedule over all state draws.

    Returns (expected probing cost, stopped, none) where ``stopped[v]``
    is the probability the probing phase ends with best observation
    exactly v, and ``none`` the probability nothing was probed at all.
    The closing decision is NOT applied here; callers fold ``stopped``
    against whatever end rule their policy uses.
    """
    tail = ws.tail
    probs = ws.probs
    k = probs.shape[0]

    stopped = np.zeros(k)
    cost = 0.0
    above = np.empty(0, dtype=int)
    prev_u = k
    for u, mem in levels:
        # entering this level kills the run if anything already seen
        # reaches u; split that event by the exact best observation
        prods = np.prod(1.0 - tail[u : prev_u + 1][:, above], axis=1)
        stopped[u:prev_u] += prods[1:] - prods[:-1]
        # probes inside the level; each is reached only while all
        # observations so far sit strictly below u
        reach = prods[0] * np.concatenate(
            [[1.0], np.cumprod(1.0 - tail[u, mem])[:-1]]
        )
        cost += float(reach @ ws.costs[mem])
        stopped[u:] += probs[u:, mem] @ reach
        above = np.concatenate([above, mem])
        prev_u = u
    # no level stopped the run: settle on the best observation overall
    prods = np.prod(1.0 - tail[0 : prev_u + 1][:, above], axis=1)
    stopped[0:prev_u] += prods[1:] - prods[:-1]
    return cost, stopped, float(prods[0])


def _selection_masks(instance: Instance, backup: int | None, threshold):
    """For each possible best observation (and for none at all), which
    closing action the decision rule takes.  Returns boolean arrays
    over states (send-probed, send-fallback) and the no-observation
    action."""
    blind = blind_backup_reward(instance, backup)
    r = instance.rewards
    if threshold is None:
        gate = np.ones(instance.state_count, dtype=bool)
        gate_none = True
    else:
        gate = np.maximum(r, blind) >= threshold
        gate_none = blind >= threshold
    send_probed = gate & (r >= blind)
    send_blind = gate & (r < blind)
    if backup is None:
        none_action = "silent"
    else:
        none_action = "blind" if gate_none else "silent"
    return send_probed, send_blind, none_action


def _close_out(
    instance: Instance,
    backup: int | None,
    threshold: float | None,
    cost: float,
    stopped: np.ndarray,
    none: float,
    altered_threshold,
) -> GainReport:
    """Fold a stop profile against the closing decision rule."""
    send_probed, send_blind, none_action = _selection_masks(
        instance, backup, threshold
    )
    mass = np.where(send_probed, stopped, 0.0)
    blind_weight = float(stopped[send_blind].sum())
    if none_action == "blind":
        blind_weight += none
    if blind_weight > 0.0 and backup is not None:
        mass = mass + blind_weight * instance.probs[:, backup]
    return GainReport.assemble(instance, mass, cost, altered_threshold)


# -- the policy object --------------------------------------------------


@dataclass(frozen=True, eq=False)
class ThresholdPolicy:
    """Executable level-list policy.

    ``levels`` holds (level, channels-in-probing-order) pairs, highest
    level first, empty lists omitted.  ``threshold`` is the decision
    bar: when set, the slot stays silent unless the best option at the
    end (probed observation or fallback mean) reaches it.  The stored
    lists are taken at face value by the evaluator and the simulator,
    so converted or hand-built policies run exactly as written.
    """

    backup: int | None
    threshold: float | None
    levels: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "levels",
            tuple(
                (int(u), tuple(int(j) for j in mem)) for u, mem in self.levels
            ),
        )

    @property
    def floor(self) -> int | None:
        return self.levels[-1][0] if self.levels else None

    def probe_sequence(self) -> tuple[int, ...]:
        return tuple(j for _, mem in self.levels for j in mem)

    def _gain_report(self, instance: Instance, altered_threshold=None) -> GainReport:
        check_policy_invariants(self, instance)
        ws = _workspace(instance)
        arrays = [(u, np.array(mem, dtype=int)) for u, mem in self.levels]
        cost, stopped, none = _stop_profile(ws, arrays)
        return _close_out(
            instance, self.backup, self.threshold, cost, stopped, none,
            altered_threshold,
        )

    # -- serialization --------------------------------------------------

    def to_dict(self, names: tuple[str, ...] | None = None) -> dict:
        nm = (lambda j: names[j]) if names else (lambda j: str(j + 1))
        return {
            "kind": "threshold",
            "backup": None if self.backup is None else nm(self.backup),
            "threshold": self.threshold,
            "floor": self.floor,
            "levels": [
                {"level": u, "channels": [nm(j) for j in mem]}
                for u, mem in self.levels
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, instance: Instance | None = None) -> "ThresholdPolicy":
        if instance is not None:
            idx = instance.index_of
        else:
            idx = lambda name: int(name) - 1
        backup = data.get("backup")
        return cls(
            backup=None if backup is None else idx(backup),
            threshold=data.get("threshold"),
            levels=tuple(
                (int(lv["level"]), tuple(idx(c) for c in lv["channels"]))
                for lv in data.get("levels", ())
            ),
        )


def check_policy_invariants(
    policy: ThresholdPolicy, instance: Instance | None = None
) -> None:
    """Structural rules every level-list policy must satisfy: levels
    strictly descending and nonempty, no channel probed twice, the
    fallback never probed, indices in range when an instance is given."""
    seen: set[int] = set()
    last_u = None
    for u, mem in policy.levels:
        if last_u is not None and u >= last_u:
            raise PolicyStructureError(
                f"levels must strictly descend, got {u} after {last_u}"
            )
        last_u = u
        if not mem:
            raise PolicyStructureError(f"level {u} has an empty probe list")
        if instance is not None and not 0 <= u < instance.state_count:
            raise LevelOutOfRange(
                f"level {u} outside 0..{instance.state_count - 1}"
            )
        for j in mem:
            if j < 0 or (instance is not None and j >= instance.n):
                raise UnknownChannel(f"probe index {j} out of range")
            if j in seen:
                raise RepeatedProbe(f"channel {j} appears twice in the levels")
            seen.add(j)
    if policy.backup is not None:
        if policy.backup < 0 or (
            instance is not None and policy.backup >= instance.n
        ):
            raise UnknownChannel(f"backup index {policy.backup} out of range")
        if policy.backup in seen:
            raise BackupProbed(
                f"channel {policy.backup} is both fallback and probed"
            )


# -- the n + 1 way search ----------------------------------------------


def _search(
    instance: Instance, threshold: float | None
) -> tuple[int | None, float, GainReport]:
    """Best fallback choice under one decision bar.

    The objective charges the bar per transmission when one is set (the
    rate-limited pipeline's objective); with no bar it is the plain
    gain.  Ties go to no-fallback first, then the lowest channel index,
    via strict comparison along that fixed visiting order.
    """
    ws = _workspace(instance)
    x = threshold
    best = None
    best_obj = -np.inf
    best_report = None
    for backup in (None, *range(instance.n)):
        assignment = _level_assignment(instance, ws, backup, x)
        ordered = _ordered_levels(ws, assignment)
        cost, stopped, none = _stop_profile(ws, ordered)
        report = _close_out(instance, backup, x, cost, stopped, none, x)
        obj = report.gain
        if obj > best_obj:
            best, best_obj, best_report = backup, obj, report
    return best, best_obj, best_report


def best_reserve_backup(
    instance: Instance, threshold: float | None = None
) -> ThresholdPolicy:
    """Search all n + 1 fallback choices and return the winning policy.

    The comparison objective is the plain gain, or the gain net of
    ``threshold`` per transmission when a bar is given, matching what
    the rate-limited pipeline needs from this search.
    """
    backup, _, _ = _search(instance, threshold)
    return reserve_backup_policy(instance, backup, threshold)
