"""Level-list probing policies for many-state channels.

A policy here is built around one designated fallback channel (or none)
and an optional decision bar.  With the fallback fixed it is Weitzman's
index policy for Pandora's box (Econometrica 1979), the fallback's blind
mean being the outside option.  Channel j's reservation value sigma_j,
the root of sum_u p_ju (r_u - sigma)^+ = c_j, is its own-level score:
its score at the highest level where that clears the reward one level
down.  Channels whose score beats the bar probe by descending score,
top level first, and stop as soon as an observation reaches the level
being worked, so every policy is a prefix of one fallback-free probe
sequence per instance with the fallback taken out.  The slot closes by
sending the best probed channel, the fallback blind, or nothing,
whichever the decision rule picks.  Prefix-tree escape subtrees are
level lists too, checked, priced and serialized by the same code here
(and walked by the simulator's one routine).  The evaluators here are
exact and O(n K) per policy; the search scores all n + 1 fallback
choices by Weitzman's closed form (see :func:`_fallback_scores`): once
per instance an O(n (K + log n)) build, then per price one integral
lookup and one (K - 1) x n array pass.  The best choice lands within
four fifths of the unrestricted optimum, the price of fixing the
outside option in advance.  Choosing adaptively when to send blind is
Pandora's box with nonobligatory inspection (Doval, JET 2018), which
the oracle and the additive scheme handle.

With two states (on/off) the family holds the optimum: keep one
channel blind (or none), probe the others that pay for themselves by
ascending cost per unit of success (ties by index), and send the first
one found on.  So :func:`best_reserve_backup` at K = 2 is the exact
solver, and :mod:`probeopt.two_state` only checks K before calling it.
Choices within 1e-12 (1 + |best|) of the best objective tie, and a tie
goes to no fallback first, then to the lowest channel index.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    BackupProbed,
    GainReport,
    Instance,
    LevelOutOfRange,
    PolicyStructureError,
    ProbingError,
    RepeatedProbe,
    UnknownChannel,
    _is_number,
    blind_backup_reward,
)

__all__ = [
    "ThresholdPolicy",
    "probe_levels",
    "reserve_backup_policy",
    "best_reserve_backup",
    "check_policy_invariants",
    "weitzman_bound",
]


# -- per-instance scratch (tails and the probe sequence) ----------------


class _Workspace:
    """Arrays shared by every policy built on one instance.

    ``tail[v, j]`` is channel j's probability of sitting at state v or
    higher (row K is zero).  A channel's score at level v is the
    expected reward conditioned on that, net of the amortized probing
    cost: the quantity level membership and probing order are decided
    on; minus infinity where the tail is empty.

    The rest is the fallback-free probe sequence every policy is read
    off.  ``top[j]`` is the highest level whose score clears the
    reward one level down (-1 if none).  Under a fallback whose floor
    is f, channel j probes at ``top[j]`` when that lies above f, and
    otherwise at f or not at all; so every policy is a prefix of
    ``seq`` (levels top first, each by descending score, ties by
    index) with the fallback taken out.  Level u fills
    ``seq[start[u]:end[u]]``, and ``start[u]`` counts the channels
    above it; index K is an empty level for a floor above every
    reward.  ``own_score`` is each probe's score at its own level, its
    reservation value, so it descends along ``seq``.  Holds no
    reference to the instance itself, so storing it on the instance
    makes no reference cycle.
    """

    def __init__(self, instance: Instance):
        probs, rewards, costs = instance.probs, instance.rewards, instance.costs
        k, n = probs.shape
        # suffix sums a row at a time (cumsum down axis 0 loops per column)
        tail = np.zeros((k + 1, n))
        tail[:k], num = probs, probs * rewards[:, None]
        for v in range(k - 2, -1, -1):
            tail[v] += tail[v + 1]
            num[v] += num[v + 1]
        held = tail[:k] > 0.0
        safe = np.where(held, tail[:k], 1.0)
        score = np.where(held, num / safe - costs / safe, -np.inf)
        self.probs, self.costs, self.rewards, self.tail = probs, costs, rewards, tail
        # the reward one level down (sentinel below the bottom)
        reward_below = np.concatenate([[-1.0], rewards[:-1]])
        clears = score > reward_below[:, None]
        top = np.where(clears.any(axis=0), (k - 1) - clears[::-1].argmax(axis=0), -1)
        # each channel sits at one level: levels top first, each by
        # descending score there, ties by index
        placed = (top >= 0).nonzero()[0]
        # (a stable sort keeps ``placed``'s ascending order on ties)
        seq = placed[np.lexsort((-score[top[placed], placed], -top[placed]))]
        level = top[seq]
        count = np.bincount(level, minlength=k)
        end = count[::-1].cumsum()[::-1]
        self.top, self.seq = top, seq
        self.start = np.concatenate((end - count, [0]))
        self.end = np.concatenate((end, [0]))
        self.own_score = score[level, seq]
        # each fallback choice's outside option at charge 0 (row 0: silence)
        self.outside = np.concatenate(([0.0], instance.blind_rewards))

    @functools.cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The charge-free half of :func:`_fallback_scores`: the sorted
        rewards and scores, G on each stretch ``[grid[i], grid[i + 1])``
        (the chance every capped channel sits at its left end or below)
        and G's running integral from ``grid[0]``.  G steps on those
        points, and the channels with sigma > t are a prefix of
        ``seq``: one cumulative product along ``seq`` of every band's
        row of ``1 - tail`` (row v for [r[v - 1], r[v]), row 0 below
        r[0]), read at each point's band and prefix.
        Repeated points make empty stretches, so a plain sort serves
        (np.unique's first call in a process raises its peak memory)."""
        r, seq = self.rewards, self.seq
        grid = np.sort(np.concatenate((r, self.own_score)))
        band = r.searchsorted(grid, side="right")
        capped = (-self.own_score).searchsorted(-grid, side="left")
        below = np.ones((r.size + 1, seq.size + 1))
        np.cumprod(1.0 - self.tail[:, seq], axis=1, out=below[:, 1:])
        g = below[band, capped]
        run = np.zeros(grid.size)
        np.cumsum(g[:-1] * (grid[1:] - grid[:-1]), out=run[1:])
        return grid, g, run

    @functools.cached_property
    def lifts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G's integral at each probe's own score (in ``seq`` order), at
        each fallback choice's outside option and at each reward, in one
        lookup (sigma ascending, which binary search favours)."""
        sigma, m, rows = self.own_score, self.seq.size, self.outside.size
        at = self.integral(np.concatenate((sigma[::-1], self.outside, self.rewards)))
        return at[:m][::-1], at[m : m + rows], at[m + rows :]

    def integral(self, t):
        """G's integral from ``grid[0]`` to t (clipped to the grid)."""
        grid, g, run = self.grid
        t = np.minimum(np.maximum(t, grid[0]), grid[-1])
        i = grid.searchsorted(t, side="right") - 1
        return run[i] + g[i] * (t - grid[i])


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
    # an empty-handed close is silence, worth 0, not the -1 sentinel;
    # probing only pays if it can beat that
    b = 0.0 if backup is None else blind_backup_reward(instance, backup)
    return b if threshold is None else max(b, float(threshold))


def _cut(ws: _Workspace, floor: int, bar):
    """Where the probe sequence ends under floor level ``floor`` and
    bar ``bar`` (a number, or an array of bars sharing that floor).

    Every channel above the floor probes at its own level, whose score
    clears a reward at least the floor's and so the bar too; the floor
    level keeps the channels whose score beats the bar, a prefix of its
    stretch of ``seq`` (it runs by descending score).  So a policy
    probes ``seq[:cut]`` less its fallback.  A floor of K cuts at 0."""
    lo = ws.start[floor]
    scores = ws.own_score[lo : ws.end[floor]]
    return lo + (-scores).searchsorted(-bar, side="left")


def _probe_lists(
    instance: Instance, bar: float, backup: int | None
) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """The floor and the nonempty probe lists under one bar, top level
    first, each in probing order: the floor is the first level whose
    reward beats the bar, and the lists are ``seq`` up to the floor's
    cut, without the fallback, grouped by level."""
    ws = _workspace(instance)
    floor = int(instance.rewards.searchsorted(bar, side="right"))
    chans = ws.seq[: _cut(ws, floor, bar)].tolist()
    lists = []
    for u in range(instance.state_count - 1, floor - 1, -1):
        mem = chans[ws.start[u] : ws.end[u]]
        if backup in mem:
            mem.remove(backup)
        if mem:
            lists.append((u, tuple(mem)))
    return floor, tuple(lists)


def probe_levels(
    instance: Instance, backup: int | None, threshold: float | None = None
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The nonempty probe lists, top level first, in probing order."""
    return _probe_lists(instance, _bar(instance, backup, threshold), backup)[1]


def reserve_backup_policy(
    instance: Instance, backup: int | None, threshold: float | None = None
) -> "ThresholdPolicy":
    """The level-list policy that reserves ``backup`` (None for no
    fallback) under decision bar ``threshold`` (None for always-send)."""
    return ThresholdPolicy(
        backup=backup,
        threshold=None if threshold is None else _number(threshold, "threshold"),
        levels=probe_levels(instance, backup, threshold),
    )


# -- exact evaluation ---------------------------------------------------


def _stop_profile(ws: _Workspace, levels) -> tuple[float, np.ndarray, float]:
    """Integrate a level-list probe schedule over all state draws.

    ``levels`` holds (level, channels) pairs as a policy stores them.
    Returns (expected probing cost, stopped, none) where ``stopped[v]``
    is the probability the probing phase ends with best observation
    exactly v, and ``none`` the probability nothing was probed at all.
    The closing decision is NOT applied here; callers fold ``stopped``
    against whatever end rule their policy uses.
    """
    tail, probs = ws.tail, ws.probs
    k = probs.shape[0]

    stopped = np.zeros(k)
    cost = 0.0
    above = np.empty(0, dtype=int)
    prev_u = k
    for u, mem in levels:
        mem = np.asarray(mem, dtype=int)
        # entering this level kills the run if anything already seen
        # reaches u; split that event by the exact best observation
        prods = np.prod(1.0 - tail[u : prev_u + 1][:, above], axis=1)
        stopped[u:prev_u] += prods[1:] - prods[:-1]
        # probes inside the level; each is reached only while all
        # observations so far sit strictly below u
        reach = prods[0] * np.concatenate(([1.0], np.cumprod(1.0 - tail[u, mem])[:-1]))
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
    closing action the decision rule takes: boolean arrays over states
    (send-probed, send-fallback), and whether the fallback is sent when
    nothing was probed; with no fallback the last two never hold."""
    r = instance.rewards
    if backup is None:
        send = np.ones(r.size, bool) if threshold is None else r >= threshold
        return send, np.zeros(r.size, bool), False
    blind = blind_backup_reward(instance, backup)
    gate = True if threshold is None else np.maximum(r, blind) >= threshold
    blind_if_none = threshold is None or blind >= threshold
    return gate & (r >= blind), gate & (r < blind), blind_if_none


# -- level lists (their check, order and codec) and the policy object ---


def _frozen_levels(levels) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple((int(u), tuple(map(int, mem))) for u, mem in levels)


def _probe_order(levels) -> list[int]:
    """The channels of level lists, in probing order."""
    return [j for _, mem in levels for j in mem]


def _check_levels(levels, instance: Instance | None, seen: set[int]) -> None:
    """The rules every level list obeys: levels strictly descending (and
    in 0..K-1 given an instance), no empty list, channels in range and
    probed at most once, counting those in ``seen``, which gains them."""
    k = n = None
    if instance is not None:
        k, n = instance.state_count, instance.n
    last_u = None
    for u, mem in levels:
        if last_u is not None and u >= last_u:
            raise PolicyStructureError(
                f"levels must strictly descend, got {u} after {last_u}"
            )
        last_u = u
        if not mem:
            raise PolicyStructureError(f"level {u} has an empty probe list")
        if k is not None and not 0 <= u < k:
            raise LevelOutOfRange(f"level {u} outside 0..{k - 1}")
        for j in mem:
            if j < 0 or (n is not None and j >= n):
                raise UnknownChannel(f"probe index {j} out of range")
            if j in seen:
                raise RepeatedProbe(f"channel {j} appears twice on one path")
            seen.add(j)


def _integer(value, what: str) -> int:
    """A document's integer field: a float or a bool is refused, not cut."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise PolicyStructureError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what: str) -> float:
    """A finite number: a bool, a string or an infinity is refused."""
    if not (_is_number(value) and math.isfinite(value)):
        raise PolicyStructureError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _require_object(data) -> None:
    if not isinstance(data, dict):
        raise ProbingError(f"a policy document must be an object, not {type(data).__name__}")


def _levels_to_dict(levels, nm) -> list[dict]:
    return [{"level": u, "channels": [nm(j) for j in mem]} for u, mem in levels]


def _levels_from_dict(entries, idx) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple(
        (_integer(lv["level"], "level"), tuple(idx(c) for c in lv["channels"]))
        for lv in entries
    )


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
        object.__setattr__(self, "levels", _frozen_levels(self.levels))

    @property
    def floor(self) -> int | None:
        return self.levels[-1][0] if self.levels else None

    def probe_sequence(self) -> tuple[int, ...]:
        return tuple(_probe_order(self.levels))

    def _gain_report(self, instance: Instance, altered_threshold=None) -> GainReport:
        check_policy_invariants(self, instance)
        cost, stopped, none = _stop_profile(_workspace(instance), self.levels)
        send_probed, send_blind, blind_if_none = _selection_masks(
            instance, self.backup, self.threshold
        )
        mass = np.where(send_probed, stopped, 0.0)
        blind = float(stopped[send_blind].sum()) + (none if blind_if_none else 0.0)
        if blind > 0.0:
            mass = mass + blind * instance.probs[:, self.backup]
        return GainReport.assemble(instance, mass, cost, altered_threshold)

    # -- serialization --------------------------------------------------

    def to_dict(self, names: tuple[str, ...] | None = None) -> dict:
        nm = (lambda j: names[j]) if names else (lambda j: str(j + 1))
        return {
            "kind": "threshold",
            "backup": None if self.backup is None else nm(self.backup),
            "threshold": self.threshold,
            "floor": self.floor,
            "levels": _levels_to_dict(self.levels, nm),
        }

    @classmethod
    def from_dict(cls, data: dict, instance: Instance | None = None) -> "ThresholdPolicy":
        """Load a document, checked against ``instance`` when one is
        given.  A ``floor``, when present, must be the last level."""
        _require_object(data)
        idx = instance.index_of if instance is not None else (lambda s: int(s) - 1)
        backup, threshold = data.get("backup"), data.get("threshold")
        policy = cls(
            backup=None if backup is None else idx(backup),
            threshold=None if threshold is None else _number(threshold, "threshold"),
            levels=_levels_from_dict(data.get("levels", ()), idx),
        )
        floor = data.get("floor", policy.floor)
        if (None if floor is None else _integer(floor, "floor")) != policy.floor:
            raise PolicyStructureError(f"floor {floor!r} is not the last level")
        if instance is not None:
            check_policy_invariants(policy, instance)
        return policy


def check_policy_invariants(
    policy: ThresholdPolicy, instance: Instance | None = None
) -> None:
    """Structural rules every level-list policy must satisfy: levels
    strictly descending and nonempty, no channel probed twice, the
    fallback never probed, indices in range when an instance is given."""
    seen: set[int] = set()
    _check_levels(policy.levels, instance, seen)
    b = policy.backup
    if b is not None:
        if b < 0 or (instance is not None and b >= instance.n):
            raise UnknownChannel(f"backup index {b} out of range")
        if b in seen:
            raise BackupProbed(f"channel {b} is both fallback and probed")


# -- the fallback search -------------------------------------------------


def _fallback_scores(instance: Instance, threshold: float | None) -> np.ndarray:
    """The search objective of every fallback choice: no fallback
    first, then channels 0..n-1.

    By the Kleinberg-Waggoner-Weyl identity (EC 2016), fallback f
    earns E[max(a_f, max_{j != f} min(X_j, sigma_j))] - x at charge x,
    with a_f = max(mu_f, x); no fallback earns the same with a =
    max(0, x), silence being worth 0, and no channel left out, or 0
    when no sigma beats a, as that slot probes nothing.  That is
    max(a_f, R) - x less the integral over [a_f, R] of G_f(t), the
    chance that every capped channel but f sits at t or below (R tops
    every reward and score).  G and its integral at every sigma, mean
    and reward do not depend on the charge and are kept with the
    workspace (:attr:`_Workspace.grid`, :attr:`_Workspace.lifts`), so a
    price costs one lookup, at x, and one (K - 1) x |lift| array pass.
    Leaving f out divides G by F_f(t) = P(X_f <= t) below sigma_f, which
    only bands inside [a_f, sigma_f) do: there F_f >= P(X_f <= mu_f) >
    0, elsewhere F_f may be 0."""
    x = 0.0 if threshold is None else _number(threshold, "threshold")
    ws = _workspace(instance)
    r = instance.rewards
    grid, _, run = ws.grid
    at_sigma, at_outside, edges = ws.lifts

    # row i leaves channel i - 1 out; row 0 leaves none out
    a = np.maximum(ws.outside, x)
    at_a = np.where(ws.outside >= x, at_outside, ws.integral(x))
    out = np.maximum(a, grid[-1]) - x - (run[-1] - at_a)
    if not (ws.own_score > a[0]).any():
        out[0] = 0.0

    # the lifted choices, sigma_f > a_f, in probe-sequence order
    hit = ws.own_score > a[ws.seq + 1]
    lift = ws.seq[hit] + 1
    inside = (a[lift] < r[1:, None]) & (r[:-1, None] < ws.own_score[hit])
    p = ws.tail[1:-1, lift - 1]
    # the integral rises with t, so clipping it to its values at a_f and
    # sigma_f integrates over the band clipped to them
    clipped = np.minimum(np.maximum(edges[:, None], at_a[lift]), at_sigma[hit])
    # row v + 1 of ``drop`` is band [r[v], r[v + 1]), row 0 zero, so the
    # rows summed in band order are bit for bit a loop's ``drop[inside] +=``;
    # lanes outside a band may have p = 1 (F_f = 0): they are never divided
    drop = np.zeros((r.size, lift.size))
    np.divide((clipped[1:] - clipped[:-1]) * p, 1.0 - p, out=drop[1:], where=inside)
    out[lift] -= np.add.accumulate(drop, axis=0, out=drop)[-1]
    return out


def weitzman_bound(instance: Instance, charge: float | None = None) -> float:
    """An upper bound on the charged gain ``gain - charge * transmit``
    of every policy, adaptive ones included, at any n: E[max(a, max_j
    min(X_j, sigma_j))] - x with a = max(x, max_j mu_j), x the charge
    (0 for None).  It is row 0 of :func:`_fallback_scores` with the
    best blind mean as outside option (and no nothing-probed zeroing),
    so its excess over the best fallback's score is the price of
    fixing the outside option in advance.  Sound by the
    Kleinberg-Waggoner-Weyl amortization: a probe of j costs at least
    its expected (X_j - sigma_j)^+ on the sends it enables, and a blind
    send earns mu_j."""
    x = 0.0 if charge is None else _number(charge, "charge")
    ws = _workspace(instance)
    grid, _, run = ws.grid
    a = max(x, float(instance.blind_rewards.max()))
    return float(max(a, grid[-1]) - x - (run[-1] - ws.integral(a)))


def _kink_price(instance: Instance, rate: float) -> float:
    """The price L >= 0 minimizing ``weitzman_bound(instance, L) +
    rate * L``: the (1 - rate)-quantile of Z = max(max_j mu_j, max_j
    min(X_j, sigma_j)), clipped at 0.  Above max mu the bound falls at
    slope P(Z <= L) - 1, so the sum turns up where G reaches 1 - rate;
    below max mu it falls at slope -1.  The queue's cut search opens
    here, where the charged optimum usually has its kink."""
    grid, g, _ = _workspace(instance).grid
    left = grid[np.argmax(g >= 1.0 - rate)]
    return float(max(left, instance.blind_rewards.max(), 0.0))


def best_reserve_backup(
    instance: Instance, threshold: float | None = None
) -> ThresholdPolicy:
    """Search all n + 1 fallback choices and return the winning policy.

    The objective charges the bar per transmission when one is set (the
    rate-limited pipeline's objective); with no bar it is the plain
    gain.  Scores within 1e-12 * (1 + |best|) of the best count as a
    tie, which goes to the first in visiting order: no fallback, then
    channels by index.
    """
    scores = _fallback_scores(instance, threshold)
    best = scores.max()
    i = int((scores >= best - 1e-12 * (1.0 + abs(best))).argmax())
    return reserve_backup_policy(instance, None if i == 0 else i - 1, threshold)
