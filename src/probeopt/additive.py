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
budgets.  One table holds every pair's best value per probed set, filled
by set size in one array pass per layer, escapes priced in closed form
(see ``_Escape``); only the winner's backbone is read back and its
subtrees cut from their escape state's no-fallback level lists.
Subtrees share the threshold policies' level-list check, price, walk
and codec.
The winner is mapped back to the original reward scale before it is
returned: decisions fire on the grid cell of each observation,
transmitted rewards are the original ones, so the reported gain can
only improve on the bucketed figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


class _Escape:
    """The no-fallback continuations after holding one escape state,
    on the shifted scale with a zero bar (the end call is free to
    hold), one per set of channels still unprobed.

    A set's subtree is ``levels``, the no-fallback level lists of one
    shifted instance over all n channels, cut to the set (host states
    and ids).  The cut is exact (see ``_Workspace``): a channel's level
    ``top[j]`` depends only on its own column; with no fallback and a
    zero bar the floor on the shifted scale is always level 1; the
    floor's stretch of ``seq`` runs by descending score, so cutting it
    to a subset keeps the same channels before or after the cut; and
    ties go by index, which a subset keeps.  It is Weitzman's index
    policy with outside option 0, so (Kleinberg-Waggoner-Weyl, EC 2016)
    it earns E[max(0, max_{j in S} min(X_j, sigma_j))] over the set S:
    ``worths`` sums w[b] (1 - prod_{j in S} cdf[b, j]) over the bands b
    between the sorted shifted rewards and positive sigmas, with
    cdf[b, j] = P(X_j <= t) on b below sigma_j and 1 from it up."""

    def __init__(self, instance: Instance, escape_state: int):
        s = self.state = escape_state
        probs = instance.probs
        sub = Instance.from_arrays(
            shifted_rewards(instance.rewards, s)[s:],
            np.vstack([probs[: s + 1].sum(axis=0), probs[s + 1 :]]),
            instance.costs,
            validate=False,
        )
        # shifted state u is host state s + u
        self.levels = tuple((s + u, mem) for u, mem in probe_levels(sub, None, 0.0))
        ws = _workspace(sub)
        # the positive sigmas lead seq, which runs by descending sigma
        sigma = ws.own_score[ws.own_score > 0.0]
        self.probed = ws.seq[: sigma.size]
        grid = np.sort(np.concatenate([sub.rewards, sigma]))
        # P(X_j <= t) on a band is 1 less the tail one state past it
        past = np.searchsorted(sub.rewards, grid[:-1], side="right")
        below = grid[:-1, None] < sigma
        self.cdf = np.where(below, 1.0 - ws.tail[past][:, self.probed], 1.0)
        self.w = np.diff(grid)

    def worths(self, probed: np.ndarray) -> np.ndarray:
        """The worth over the channels outside each row's set (``probed[row,
        j]``: j is in it).  A probed channel's factor is 1.0 and each row is
        dotted on its own: the float operations of one set priced alone."""
        prod = np.ones((len(probed), self.w.size))
        for t, j in enumerate(self.probed):
            prod *= np.where(probed[:, j, None], 1.0, self.cdf[:, t])
        return ((1.0 - prod)[:, None] @ self.w[:, None])[:, 0, 0]

    def subtree(self, remaining: int):
        """(send_min, the level lists cut to a set): any find beats the hold."""
        kept = ((u, [j for j in mem if remaining >> j & 1]) for u, mem in self.levels)
        return self.state + 1, tuple((u, tuple(mem)) for u, mem in kept if mem)


# -- backbone search by popcount layers ---------------------------------

_CHUNK = 1 << 16  # most values one step of a layer prices, whatever n is


@lru_cache(maxsize=8)
def _layers(n: int, cap: int):
    """The sets of up to ``cap`` of n channels, one layer per size, by
    ascending bitmask; nothing of size 2^n.  Layer c is ``(member, kid)``:
    ``member[row, j]`` says whether channel j is in the row's set, ``kid[row,
    m]`` is the row in layer c + 1 of the set plus m (0 where m is in it;
    None on the top layer).  Kept per shape and shared, as ``oracle._lattice``."""
    # past 63 channels the masks are Python ints
    bits = np.array([1 << j for j in range(n)], dtype=np.int64 if n < 64 else object)
    masks, layers = np.zeros(1, dtype=bits.dtype), []
    for c in range(cap + 1):
        member, kid = (masks[:, None] & bits) != 0, None
        if c < cap:
            grown = masks[:, None] | bits
            # each set of c + 1 once: a set of c plus a channel above its top
            masks = np.sort(grown[bits > masks[:, None]])
            kid = np.where(member, 0, np.searchsorted(masks, grown))
            kid.flags.writeable = False
        member.flags.writeable = False
        layers.append((member, kid))
    return tuple(layers)


def _backbones(instance: Instance, backups, floors, cap: int):
    """W(used), the most a backbone earns once ``used`` is probed, for
    every fallback b in ``backups`` and escape floor i in ``floors``
    (ascending), by set size from ``cap`` probes down:
    W(used) = max(blind_b, max_m esc_i(m, rest) - c_m + cont_i[m] W(used + m))
    over m outside ``used`` other than b, esc_i summed upward over the
    states above i.  Ties go to stopping, then to the lowest channel.
    Returns W(empty) as a (floors, backups) array and a function that
    reads one pair's policy off, by its places in the two."""
    n, k = instance.n, instance.state_count
    probs, r, costs = instance.probs, instance.rewards, instance.costs
    states = range(floors[0] + 1, k)
    escapes = [_Escape(instance, s) for s in states]
    blind = np.array([float(probs[:, b] @ r) for b in backups])
    cont = np.array([probs[: i + 1].sum(axis=0) for i in floors])
    # per escape state: its probabilities, its reward, the floors under it
    by_state = list(zip(probs[states.start :], r[states.start :], np.searchsorted(floors, states)))
    barred = np.arange(n) == np.asarray(backups)[:, None]
    layers = _layers(n, cap)
    step = max(1, _CHUNK // (n * (len(floors) * len(backups) + k)))
    W = np.broadcast_to(blind, (len(layers[cap][0]), len(floors), len(backups)))
    picks = [None] * cap
    for c in range(cap - 1, -1, -1):
        (member, kid), worths = layers[c], [e.worths(layers[c + 1][0]) for e in escapes]
        W_up, W = W, np.empty((len(member), len(floors), len(backups)))
        picks[c] = np.empty(W.shape, dtype=np.min_scalar_type(n))
        for lo in range(0, len(member), step):
            kids = kid[lo : lo + step]
            esc = np.zeros((len(kids), len(floors), n))
            for (p, r_s, under), worth in zip(by_state, worths):
                esc[:, :under] += np.where(p > 0.0, p * (r_s + worth[kids]), 0.0)[:, None]
            # (set, floor, fallback, probe); a zero cont_i[m] adds exactly 0
            val = (esc - costs)[:, :, None] + cont[:, None] * W_up[kids].transpose(0, 2, 3, 1)
            np.copyto(val, -np.inf, where=member[lo : lo + step, None, None] | barred)
            best = val.max(axis=3)
            go = best > blind
            W[lo : lo + step] = np.where(go, best, blind)
            picks[c][lo : lo + step] = np.where(go, val.argmax(axis=3), n)

    def policy(fi: int, bi: int) -> PrefixTreePolicy:
        row, backbone, rest, subtrees = 0, [], (1 << n) - 1, []
        for c in range(cap):
            m = int(picks[c][row, fi, bi])
            if m == n:
                break
            backbone.append(m)
            rest &= ~(1 << m)
            subtrees.append(tuple(e.subtree(rest) for e in escapes[floors[fi] - floors[0] :]))
            if not cont[fi, m] > 0.0:  # a probe nothing passes ends the backbone
                break
            row = layers[c][1][row, m]
        return PrefixTreePolicy(backups[bi], floors[fi] + 1, tuple(backbone), tuple(subtrees))

    return W[0], policy


def best_prefix_policy(
    instance: Instance, backup: int, escape_state: int, max_length: int | None = None
) -> tuple[PrefixTreePolicy, float]:
    """Best backbone-plus-escapes policy for one (fallback, escape
    state) pair, over backbones of up to ``max_length`` probes (all
    lengths when None).  Returns the policy and its gain.  What a
    backbone earns past its probed set depends only on that set, so
    ``_backbones`` fills one value per set, here for this pair alone;
    among equals the first backbone in lexicographic order wins."""
    if not 0 <= backup < instance.n:
        raise UnknownChannel(f"backup index {backup} out of range")
    if not 0 <= escape_state < instance.state_count:
        raise IndexError(f"escape state {escape_state} out of range")
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be >= 0, got {max_length}")
    cap = instance.n - 1 if max_length is None else min(max_length, instance.n - 1)
    top, policy = _backbones(instance, (backup,), (escape_state,), cap)
    return policy(0, 0), float(top[0, 0])

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
    and search parameters (``candidates`` counts the backbone table's
    cells, one per (fallback, escape state) pair and set of at most
    min(h, n - 1) other channels: the budget's count), and the winner's
    coarse-scale gain (the quantity the guarantee is proved for; the
    reported original-scale gain can only be higher)."""

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
    pass ``max_candidates``; that count is ``candidates`` and is at
    most n * cells * 2^(n - 1)."""
    if not 0.0 < epsilon <= 1.0:
        raise EpsilonOutOfRange(f"epsilon must be in (0, 1], got {epsilon}")
    if max_candidates < 1:
        raise ProbingError(f"max_candidates must be >= 1, got {max_candidates}")
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

    top, policy = _backbones(coarse, range(n), range(kc), cap)
    # the first best pair in (fallback, escape state) order
    backup, i = divmod(int(top.T.argmax()), kc)
    lifted = _lift(policy(i, backup), cell_of, first_of, instance.state_count)
    return AdditiveResult(
        lifted,
        evaluate_policy(instance, lifted),
        AdditiveCertificate(
            branch="coarsened",
            epsilon=epsilon,
            probe_cost=c,
            path_bound=h,
            cell_count=kc,
            candidates=count,
            budget=max_candidates,
            coarse_gain=float(top[i, backup]),
            backup=backup,
            escape_state=i,
        ),
    )
