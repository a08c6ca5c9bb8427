"""Equal-cost solver with an additive optimality guarantee.

The one-fallback family searched by ``best_reserve_backup`` can leave a
constant fraction of the optimum on the table.  When every channel
charges the same probing cost c, a richer family closes the gap to an
additive epsilon * (top reward):

* If c is at most epsilon * (top reward), probing is nearly free and
  the no-fallback level-list policy already loses at most one probe
  cost against the unrestricted optimum.

* Otherwise rewards are coarsened onto a grid of width epsilon / 2 and
  the solver searches policies of a restricted shape: a backbone of
  probes that keeps going while observations stay at or below an
  escape state i, ending in a blind send of a designated fallback; the
  first observation above i ("an escape") hands the slot to a
  no-fallback level-list subtree over the remaining channels, scored
  on rewards shifted down by the escape reward, with the escaped
  channel transmitted if the subtree finds nothing better.  Probes on
  the backbone past the first escape with probability more than
  epsilon / 2 each, so backbones longer than h = 1 + ceil(log(eps/2) /
  log(1 - eps/2)) add less than (epsilon / 2) * (top reward) and are
  not searched.

Some optimal policy has exactly this backbone-plus-escapes shape for
the right fallback and escape state, so the best backbone of the best
(fallback, escape state) pair loses only the coarsening and truncation
budgets; each pair's search runs over probed sets, not orderings.
Each escape subtree is cut from its escape state's no-fallback level
lists, built once on the shifted scale over all channels: they keep
the unprobed channels and are priced by their stop profile.  Subtrees
share the threshold policies' level-list check, price, walk and codec.
The winner is mapped back to the original reward scale before it is
returned: decisions fire on the grid cell of each observation,
transmitted rewards are the original ones, so the reported gain can
only improve on the bucketed figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GainReport,
    Instance,
    PolicyStructureError,
    ProbingError,
    RepeatedProbe,
    UnknownChannel,
    evaluate_policy,
)
from .multi_state import (
    _check_levels,
    _frozen_levels,
    _integer,
    _levels_from_dict,
    _levels_to_dict,
    _stop_profile,
    _workspace,
    probe_levels,
    reserve_backup_policy,
)

__all__ = [
    "AdditiveCertificate",
    "AdditiveResult",
    "CandidateBudgetExceeded",
    "EpsilonOutOfRange",
    "PrefixTreePolicy",
    "UnequalCosts",
    "additive_approx",
    "best_prefix_policy",
    "shifted_rewards",
]


class EpsilonOutOfRange(ProbingError):
    pass


class UnequalCosts(ProbingError):
    pass


class CandidateBudgetExceeded(ProbingError):
    pass


def shifted_rewards(rewards, escape_state: int) -> np.ndarray:
    """Reward scale as seen after holding a channel at ``escape_state``:
    states at or below it are worth nothing extra, higher states their
    margin over it."""
    r = np.asarray(rewards, dtype=float)
    if not 0 <= escape_state < r.shape[0]:
        raise IndexError(f"escape state {escape_state} out of range")
    return np.where(np.arange(r.shape[0]) > escape_state, r - r[escape_state], 0.0)


# -- the backbone-plus-escapes policy object ----------------------------


@dataclass(frozen=True, eq=False)
class PrefixTreePolicy:
    """Backbone of probes with per-escape level-list subtrees.

    The backbone channels are probed in order while every observation
    stays below ``escape_min``; exhausting it sends ``backup`` blind.
    An observation at state s >= escape_min stops the backbone and runs
    ``subtrees[t][s - escape_min]``, a pair (send_min, levels): the
    level lists are probed exactly like a ThresholdPolicy's, and the
    slot closes on the best observation seen inside the subtree if that
    reaches send_min, otherwise on the escaped channel itself.  The
    fallback is never sent on escape paths, but the subtrees may probe
    it.  ``escape_min`` equal to the state count means the backbone
    never breaks.
    """

    backup: int
    escape_min: int
    backbone: tuple[int, ...]
    subtrees: tuple[
        tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...], ...
    ]

    def __post_init__(self) -> None:
        object.__setattr__(self, "backbone", tuple(int(j) for j in self.backbone))
        subtrees = tuple(
            tuple((int(m), _frozen_levels(levels)) for m, levels in per_state)
            for per_state in self.subtrees
        )
        object.__setattr__(self, "subtrees", subtrees)

    def validate(self, instance: Instance) -> None:
        k = instance.state_count
        if not 0 <= self.backup < instance.n:
            raise UnknownChannel(f"backup index {self.backup} out of range")
        if not 0 <= self.escape_min <= k:
            raise PolicyStructureError(
                f"escape_min {self.escape_min} outside 0..{k}"
            )
        for j in self.backbone:
            if not 0 <= j < instance.n:
                raise UnknownChannel(f"backbone index {j} out of range")
        if self.backup in self.backbone:
            raise PolicyStructureError("fallback appears on the backbone")
        if len(set(self.backbone)) != len(self.backbone):
            raise RepeatedProbe("backbone repeats a channel")
        if self.escape_min < k and len(self.subtrees) != len(self.backbone):
            raise PolicyStructureError("one subtree row per backbone probe")
        for t, per_state in enumerate(self.subtrees[: len(self.backbone)]):
            if self.escape_min < k and len(per_state) != k - self.escape_min:
                raise PolicyStructureError(
                    f"backbone slot {t}: need one subtree per escape state"
                )
            for send_min, levels in per_state:
                if not 0 <= send_min <= k:
                    raise PolicyStructureError(f"send_min {send_min} out of range")
                # level-list rules, counting the backbone probes on the path
                _check_levels(levels, instance, set(self.backbone[: t + 1]))

    def _gain_report(self, instance: Instance, altered_threshold=None) -> GainReport:
        self.validate(instance)
        ws = _workspace(instance)
        probs = instance.probs
        k = instance.state_count
        states = np.arange(k)
        mass = np.zeros(k)
        cost = 0.0
        reach = 1.0
        for t, m in enumerate(self.backbone):
            if reach <= 0.0:
                break
            cost += reach * instance.costs[m]
            if self.escape_min >= k:
                continue
            col = probs[:, m]
            for s in range(self.escape_min, k):
                w = reach * col[s]
                if w <= 0.0:
                    continue
                send_min, levels = self.subtrees[t][s - self.escape_min]
                sub_cost, stopped, none = _stop_profile(ws, levels)
                cost += w * sub_cost
                mass += w * np.where(states >= send_min, stopped, 0.0)
                mass[s] += w * (none + float(stopped[:send_min].sum()))
            reach *= float(col[: self.escape_min].sum())
        mass += reach * probs[:, self.backup]
        return GainReport.assemble(instance, mass, cost, altered_threshold)

    # -- serialization --------------------------------------------------

    def to_dict(self, names: tuple[str, ...] | None = None) -> dict:
        nm = (lambda j: names[j]) if names else (lambda j: str(j + 1))
        return {
            "kind": "prefix-tree",
            "backup": nm(self.backup),
            "escape_min": self.escape_min,
            "backbone": [nm(j) for j in self.backbone],
            "subtrees": [
                [
                    {
                        "state": self.escape_min + q,
                        "send_min": send_min,
                        "levels": _levels_to_dict(levels, nm),
                    }
                    for q, (send_min, levels) in enumerate(per_state)
                ]
                for per_state in self.subtrees
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, instance: Instance | None = None) -> "PrefixTreePolicy":
        """Load a document, validated against ``instance`` when given."""
        idx = instance.index_of if instance is not None else (lambda s: int(s) - 1)
        escape_min = _integer(data["escape_min"], "escape_min")

        def subtree(q: int, entry: dict):
            # entries are positional, so each must name the state it serves
            if _integer(entry["state"], "state") != escape_min + q:
                raise PolicyStructureError(
                    f"subtree entry {q} is for state {entry['state']}, "
                    f"expected {escape_min + q}"
                )
            return _integer(entry["send_min"], "send_min"), _levels_from_dict(
                entry["levels"], idx
            )

        policy = cls(
            backup=idx(data["backup"]),
            escape_min=escape_min,
            backbone=tuple(idx(c) for c in data["backbone"]),
            subtrees=tuple(
                tuple(subtree(q, entry) for q, entry in enumerate(per_state))
                for per_state in data["subtrees"]
            ),
        )
        if instance is not None:
            policy.validate(instance)
        return policy


# -- escape subtrees ----------------------------------------------------


def _escape_subtree(
    instance: Instance, remaining: frozenset, escape_state: int, memo: dict
) -> tuple[float, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Best no-fallback continuation after holding ``escape_state`` with
    only ``remaining`` unprobed, scored on the shifted reward scale with
    a zero decision bar (the end call is free to hold): its value and
    its level lists (shifted levels, host channel ids).

    One shifted instance over all n channels and its no-fallback level
    lists are built per escape state (``memo[escape_state]``); a
    remaining set's subtree is those lists cut to the set, priced by
    their stop profile on that instance.  The cut is exact (see ``_Workspace``): a channel's level
    ``top[j]`` depends only on its own column; with no fallback and a
    zero bar the floor on the shifted scale is always level 1; the
    floor's stretch of ``seq`` runs by descending score, so cutting it
    to a subset keeps the same channels before or after the cut; and
    ties go by index, which a subset keeps."""
    s = escape_state
    if s not in memo:
        probs = instance.probs
        sub = Instance.from_arrays(
            shifted_rewards(instance.rewards, s)[s:],
            np.vstack([probs[: s + 1].sum(axis=0), probs[s + 1 :]]),
            instance.costs,
            validate=False,
        )
        memo[s] = (sub, probe_levels(sub, None, 0.0), {})
    sub, levels, cuts = memo[s]
    hit = cuts.get(remaining)
    if hit is None:
        kept = ((u, tuple(c for c in mem if c in remaining)) for u, mem in levels)
        kept = tuple((u, mem) for u, mem in kept if mem)
        # with no fallback, a zero bar and no charge every stop is sent:
        # the gain is the stopped reward less the probing cost
        cost, stopped, _ = _stop_profile(_workspace(sub), kept)
        hit = cuts[remaining] = (float(stopped @ sub.rewards) - float(cost), kept)
    return hit


# -- backbone search over probed sets -----------------------------------


def best_prefix_policy(
    instance: Instance,
    backup: int,
    escape_state: int,
    max_length: int | None = None,
    *,
    _memo: dict | None = None,
    _counter: list | None = None,
) -> tuple[PrefixTreePolicy, float]:
    """Best backbone-plus-escapes policy for one (fallback, escape
    state) pair, over backbones of up to ``max_length`` probes (all
    lengths when None).  Returns the policy and its gain.  What a
    backbone earns past its probed set depends only on that set, so the
    search is one recursion over sets, each solved once:
    W(used) = max(blind, max_m [esc(m, rest) - c + cont[m] W(used + m)]).
    Ties go to stopping, then to the lowest channel: the first backbone
    in lexicographic order among equals."""
    if not 0 <= backup < instance.n:
        raise UnknownChannel(f"backup index {backup} out of range")
    if not 0 <= escape_state < instance.state_count:
        raise IndexError(f"escape state {escape_state} out of range")
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    memo = {} if _memo is None else _memo
    counter = [0] if _counter is None else _counter
    k = instance.state_count
    probs = instance.probs
    r = instance.rewards
    costs = instance.costs
    blind_l = float(probs[:, backup] @ r)
    cont = probs[: escape_state + 1].sum(axis=0)
    pool = [j for j in range(instance.n) if j != backup]
    cap = len(pool) if max_length is None else min(max_length, len(pool))
    everything = frozenset(range(instance.n))
    escapes = range(escape_state + 1, k)
    table: dict = {}

    def escape_value(m: int, remaining: frozenset) -> float:
        total = 0.0
        for s in escapes:
            p = probs[s, m]
            if p > 0.0:
                total += p * (r[s] + _escape_subtree(instance, remaining, s, memo)[0])
        return total

    def best_from(used: frozenset) -> tuple[float, tuple[int, ...]]:
        if used in table:
            return table[used]
        counter[0] += 1
        best = (blind_l, ())
        for m in (pool if len(used) < cap else ()):
            if m in used:
                continue
            taken = used | {m}
            val, tail = escape_value(m, everything - taken) - costs[m], ()
            if cont[m] > 0.0:  # a probe nothing passes ends the backbone
                w, tail = best_from(taken)
                val += cont[m] * w
            if val > best[0]:
                best = (val, (m,) + tail)
        table[used] = best
        return best

    best_val, best_pi = best_from(frozenset())

    def emit(rest: frozenset, s: int):
        # shifted state u is host state s + u; any find beats the hold
        levels = _escape_subtree(instance, rest, s, memo)[1]
        return s + 1, tuple((s + u, mem) for u, mem in levels)

    subtrees = tuple(
        tuple(emit(everything - set(best_pi[: t + 1]), s) for s in escapes)
        for t in range(len(best_pi))
    )
    policy = PrefixTreePolicy(
        backup=backup,
        escape_min=escape_state + 1,
        backbone=best_pi,
        subtrees=subtrees,
    )
    return policy, float(best_val)


# -- reward coarsening --------------------------------------------------


def _coarsen(instance: Instance, width: float):
    """Snap rewards down onto a grid of ``width`` and merge states that
    land on the same cell.  Returns the coarse instance, the state ->
    cell map, and per cell the first original state in it (with a
    sentinel entry at the end).  The merge can concentrate all mass on
    the top cell, so the coarse instance skips validation."""
    codes = np.floor(instance.rewards / width + 1e-12).astype(int)
    cells, cell_of = np.unique(codes, return_inverse=True)
    acc = np.zeros((cells.shape[0], instance.n))
    np.add.at(acc, cell_of, instance.probs)
    coarse = Instance.from_arrays(
        cells * width, acc, instance.costs, names=instance.names, validate=False
    )
    first_of = np.concatenate(
        [np.searchsorted(cell_of, np.arange(cells.shape[0])), [instance.state_count]]
    )
    return coarse, cell_of, first_of


def _lift(
    policy: PrefixTreePolicy, cell_of: np.ndarray, first_of: np.ndarray, k: int
) -> PrefixTreePolicy:
    """Re-express a coarse-state policy over the original states: every
    coarse threshold becomes the first original state of its cell, and
    escapes are split per original state (states sharing a cell share
    their subtree)."""
    escape_min = int(first_of[policy.escape_min])
    subtrees = []
    for per_cell in policy.subtrees:
        per_state = []
        for s in range(escape_min, k):
            cell = int(cell_of[s])
            send_min, levels = per_cell[cell - policy.escape_min]
            lifted = tuple((int(first_of[u]), mem) for u, mem in levels)
            per_state.append((int(first_of[send_min]), lifted))
        subtrees.append(tuple(per_state))
    return PrefixTreePolicy(
        backup=policy.backup,
        escape_min=escape_min,
        backbone=policy.backbone,
        subtrees=tuple(subtrees),
    )


# -- the solver ----------------------------------------------------------


@dataclass(frozen=True)
class AdditiveCertificate:
    """What the solver actually did: which branch ran, the coarsening
    and search parameters (``candidates`` counts the probed sets the
    backbone searches solved), and the winner's coarse-scale gain (the
    quantity the guarantee is proved for; the reported original-scale
    gain can only be higher)."""

    branch: str
    epsilon: float
    probe_cost: float
    path_bound: int | None
    cell_count: int | None
    candidates: int
    budget: int
    coarse_gain: float | None
    backup: int | None
    escape_state: int | None


@dataclass(frozen=True)
class AdditiveResult:
    policy: object
    report: GainReport
    certificate: AdditiveCertificate


def additive_approx(
    instance: Instance, epsilon: float, *, max_candidates: int = 10**8
) -> AdditiveResult:
    """Equal-cost policy within epsilon * (top reward) of the optimum.

    Requires every channel to charge the same probing cost.  Raises
    CandidateBudgetExceeded before searching when the probed-set count
    n * cells * sum over sizes t <= min(h, n - 1) of C(n - 1, t) would
    pass ``max_candidates``; that count bounds ``candidates`` and is at
    most n * cells * 2^(n - 1)."""
    if not 0.0 < epsilon <= 1.0:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1], got {epsilon}")
    costs = instance.costs
    if not np.all(costs == costs[0]):
        raise UnequalCosts("the additive scheme needs equal probing costs")
    c = float(costs[0])
    rmax = instance.max_reward

    if c <= epsilon * rmax:
        # probing is cheap enough that exhausting without a fallback
        # wastes at most one probe cost against the optimum
        policy = reserve_backup_policy(instance, None, None)
        return AdditiveResult(
            policy,
            evaluate_policy(instance, policy),
            AdditiveCertificate(
                branch="cheap-probes",
                epsilon=epsilon,
                probe_cost=c,
                path_bound=None,
                cell_count=None,
                candidates=0,
                budget=max_candidates,
                coarse_gain=None,
                backup=None,
                escape_state=None,
            ),
        )

    half = epsilon / 2.0
    coarse, cell_of, first_of = _coarsen(instance, half)
    kc = coarse.state_count
    h = 1 + math.ceil(math.log(half) / math.log(1.0 - half))
    n = instance.n
    cap = min(h, n - 1)
    count = n * kc * sum(math.comb(n - 1, t) for t in range(cap + 1))
    if count > max_candidates:
        raise CandidateBudgetExceeded(
            f"{count} probed-set candidates exceed the budget of {max_candidates}"
        )

    memo: dict = {}
    counter = [0]
    best = None
    best_val = -np.inf
    for backup in range(n):
        for i in range(kc):
            policy, val = best_prefix_policy(
                coarse, backup, i, h, _memo=memo, _counter=counter
            )
            if val > best_val:
                best, best_val = (policy, backup, i), val
    policy_c, backup, i = best
    lifted = _lift(policy_c, cell_of, first_of, instance.state_count)
    return AdditiveResult(
        lifted,
        evaluate_policy(instance, lifted),
        AdditiveCertificate(
            branch="coarsened",
            epsilon=epsilon,
            probe_cost=c,
            path_bound=h,
            cell_count=kc,
            candidates=counter[0],
            budget=max_candidates,
            coarse_gain=float(best_val),
            backup=backup,
            escape_state=i,
        ),
    )
