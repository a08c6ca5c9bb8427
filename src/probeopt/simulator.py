"""Monte Carlo checks of the analytic gain figures.

Replications are seeded from one SeedSequence spawn, so a (seed,
slots, replications) triple names the same sample paths on any
machine.  Within a replication the draws happen in a fixed order:
the state uniforms (one ``rng.random((slots, n))`` stream, drawn in
blocks of rows), then the mixture coins, then the arrival process.
States are stored channels by slots, one contiguous row per channel,
and only the channels the policy reads are mapped to states.

Every policy kind plays all slots of a replication at once; a mixture
plays each of its policies on the slots its coins give it.
Level-list policies: the probe sequence is fixed and levels only
descend along it, so position t is reached exactly when every earlier
observation sits below position t's level; one running maximum over
the observation matrix settles every slot.  Decision trees become
node-to-channel and node-by-state-to-child tables, once per run, and
all slots descend together, one vector step per tree level.  Prefix
trees split the slots by where they leave the backbone and run each
escape subtree's level lists through the same walk as a level-list
policy.  These four kinds, a mixture's two sides included, are all the
simulator plays, and each is checked as ``evaluate_policy`` checks it.

The queue simulation precomputes each slot's would-be transmission as
if busy (the draws do not depend on the backlog), which turns the
backlog into a running-minimum recursion over arrival minus service
increments, also vectorized.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import isnan, sqrt

import numpy as np

from .additive import PrefixTreePolicy
from .core import Instance, ProbingError
from .lagrange import MixedPolicy
from .multi_state import (
    ThresholdPolicy,
    _probe_order,
    _selection_masks,
    check_policy_invariants,
)
from .oracle import DecisionTree, Probe, TransmitBackup, TransmitProbed

__all__ = [
    "BernoulliArrivals",
    "MarkovArrivals",
    "SaturatedArrivals",
    "SimConfig",
    "SimReport",
    "simulate_saturated",
    "simulate_unsaturated",
]


# -- arrival processes --------------------------------------------------


@dataclass(frozen=True)
class SaturatedArrivals:
    """A packet every slot; the queue never empties."""

    @property
    def rate(self) -> float:
        return 1.0

    def draw(self, rng: np.random.Generator, slots: int) -> np.ndarray:
        return np.ones(slots, dtype=np.int8)


@dataclass(frozen=True)
class BernoulliArrivals:
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ProbingError(f"arrival rate must be in [0, 1], got {self.rate}")

    def draw(self, rng: np.random.Generator, slots: int) -> np.ndarray:
        return (rng.random(slots) < self.rate).astype(np.int8)


@dataclass(frozen=True)
class MarkovArrivals:
    """On/off arrivals: a slot brings a packet while the source is on.
    ``q01`` is the off-to-on flip probability, ``q10`` on-to-off; the
    chain starts in its stationary law, mean rate q01 / (q01 + q10)."""

    q01: float
    q10: float

    def __post_init__(self) -> None:
        for name, q in (("q01", self.q01), ("q10", self.q10)):
            if not 0.0 < q < 1.0:
                raise ProbingError(f"{name} must be in (0, 1), got {q}")

    @property
    def rate(self) -> float:
        return self.q01 / (self.q01 + self.q10)

    def draw(self, rng: np.random.Generator, slots: int) -> np.ndarray:
        # Slot t > 0 is on iff u[t] < (1 - q10 if slot t-1 was on else
        # q01).  Below both bars the slot is on whatever came before,
        # at or above both it is off; in between it copies the previous
        # slot when q01 <= 1 - q10 and flips it otherwise.  Slot 0 is
        # settled by the stationary law.
        u = rng.random(slots)
        if not slots:
            return np.zeros(0, dtype=np.int8)
        stay = 1.0 - self.q10
        lo, hi = min(self.q01, stay), max(self.q01, stay)
        value = u < lo
        forced = value | (u >= hi)
        value[0] = u[0] < self.rate
        forced[0] = True
        last = np.maximum.accumulate(np.where(forced, np.arange(slots), 0))
        if self.q01 <= stay:
            return value[last].astype(np.int8)
        # flips since the last forced slot, by parity
        parity = np.bitwise_xor.accumulate(~forced)
        return (value[last] ^ parity ^ parity[last]).astype(np.int8)


# -- configuration and results ------------------------------------------


def _default_threads() -> int:
    raw = os.environ.get("PROBEOPT_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SimConfig:
    slots: int = 100_000
    replications: int = 10
    seed: int = 0
    arrivals: object | None = None
    threads: int = field(default_factory=_default_threads)

    def __post_init__(self) -> None:
        if self.slots <= 0 or self.replications <= 0:
            raise ProbingError("slots and replications must be positive")
        if self.threads < 1:
            raise ProbingError(f"threads must be at least 1, got {self.threads}")


@dataclass(frozen=True)
class SimReport:
    """Replication means and their standard errors.  ``mean_gain`` is
    per slot (busy or not), so for queue runs it already folds in the
    idle fraction; ``busy_gain`` conditions on busy slots.  A single
    replication leaves the standard errors undefined, and a run with
    no busy slot leaves ``busy_gain`` undefined: NaN here, null in
    ``to_dict``."""

    slots: int
    replications: int
    mean_gain: float
    se_gain: float
    mean_transmit: float
    se_transmit: float
    mean_probe_cost: float
    mean_success: float
    busy_fraction: float
    busy_gain: float
    mean_queue: float | None
    throughput: float | None
    rep_gains: tuple[float, ...]

    def to_dict(self) -> dict:
        out = {
            "slots": self.slots,
            "replications": self.replications,
            "mean_gain": self.mean_gain,
            "se_gain": _defined(self.se_gain),
            "mean_transmit": self.mean_transmit,
            "se_transmit": _defined(self.se_transmit),
            "mean_probe_cost": self.mean_probe_cost,
            "mean_success": self.mean_success,
            "busy_fraction": self.busy_fraction,
            "busy_gain": _defined(self.busy_gain),
            "rep_gains": list(self.rep_gains),
        }
        if self.mean_queue is not None:
            out["mean_queue"] = self.mean_queue
            out["throughput"] = self.throughput
        return out


def _defined(x: float) -> float | None:
    return None if isnan(x) else x


def _summarize(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.shape[0] < 2:
        return mean, float("nan")
    return mean, float(values.std(ddof=1) / sqrt(values.shape[0]))


# -- drawing ------------------------------------------------------------


# Rows of uniforms per generator call.  Any block size draws the same
# stream; this one keeps a block in cache.
_BLOCK = 2048


def _draw_states(
    instance: Instance, rng: np.random.Generator, slots: int, channels=None
) -> np.ndarray:
    """Channels-by-slots states, in the narrowest unsigned dtype that
    holds K - 1.  The uniforms are the stream of one
    ``rng.random((slots, n))`` call, drawn in blocks of rows; only
    ``channels`` (default all) are mapped, the other rows stay 0.  A
    uniform u lands in the state counting the cumulative probabilities
    at or below it, capped at K - 1 so a sum that rounds short of 1
    cannot produce state K."""
    n = instance.n
    read = np.arange(n) if channels is None else np.asarray(channels, dtype=np.intp)
    u = np.empty((read.size, slots))
    block = np.empty((min(slots, _BLOCK), n))
    for lo in range(0, slots, _BLOCK):
        rows = block[: slots - lo]
        rng.random(out=rows)
        u[:, lo : lo + len(rows)] = rows.T[read]
    out = np.zeros((n, slots), dtype=np.min_scalar_type(instance.state_count - 1))
    mapped = np.zeros(u.shape, dtype=out.dtype)
    for cum in np.cumsum(instance.probs[:, read], axis=0)[:-1]:
        mapped += u >= cum[:, None]
    out[read] = mapped
    return out


# -- per-slot outcomes under one policy ---------------------------------
#
# Each builder turns a policy into a function of the channels-by-slots
# state matrix that returns (transmit, reward, cost, success) per slot,
# as if every slot were played, and lists the sorted channels that
# function reads, the only rows the draw maps.  Builders run once per
# simulate call, so replications share the tables.  Every kind sums
# each path's probing cost as ``costs[list(probed)].sum()``, as the
# slot-by-slot reference walk of the tests does, so they reproduce its
# figures bit for bit.


def _player(instance: Instance, policy):
    """(states, rng) -> per-slot outcomes, and the channels they read.
    A mixture flips its coins from ``rng`` right after the state draw
    and plays each side on its own slots only."""
    if isinstance(policy, MixedPolicy):
        plus, read_plus = _outcomes(instance, policy.policy_plus)
        minus, read_minus = _outcomes(instance, policy.policy_minus)

        def play(states, rng):
            heads = rng.random(states.shape[1]) < policy.alpha
            on, off = np.flatnonzero(heads), np.flatnonzero(~heads)
            merged = []
            for p, m in zip(
                plus(_columns(states, read_plus, on)),
                minus(_columns(states, read_minus, off)),
            ):
                out = np.empty(heads.shape, dtype=np.result_type(p, m))
                out[on], out[off] = p, m
                merged.append(out)
            return tuple(merged)

        return play, sorted(set(read_plus) | set(read_minus))
    outcomes, read = _outcomes(instance, policy)
    return (lambda states, rng: outcomes(states)), read


def _columns(states: np.ndarray, rows, slots: np.ndarray) -> np.ndarray:
    """``states`` at ``slots``, copying only ``rows``; the rest are 0."""
    out = np.zeros((states.shape[0], slots.size), dtype=states.dtype)
    for j in rows:
        out[j] = states[j].take(slots)
    return out


def _outcomes(instance: Instance, policy):
    if isinstance(policy, ThresholdPolicy):
        check_policy_invariants(policy, instance)
        seq = _probe_order(policy.levels)
        by_count = _path_costs(instance.costs, seq, 0)
        read = {*seq, policy.backup} - {None}
        return partial(_threshold_outcomes, instance, policy, by_count), sorted(read)
    if isinstance(policy, DecisionTree):
        return _tree_outcomes(instance, policy)
    if isinstance(policy, PrefixTreePolicy):
        return _prefix_outcomes(instance, policy)
    raise ProbingError(f"cannot simulate a {type(policy).__name__}")


def _level_walk(states: np.ndarray, levels):
    """Run level lists, (level, channels) pairs as a policy stores
    them, on every slot of ``states``.  Position t of the probing order
    runs while the best observation so far is below its level; position
    0 always runs.  Returns the positions-by-slots mask of run probes, a
    prefix of each column, and the best observation among them (-1 when
    there is nothing to probe)."""
    seq = _probe_order(levels)
    slots = states.shape[1]
    if not seq:
        return np.zeros((0, slots), dtype=bool), np.full(slots, -1)
    lev = [u for u, mem in levels for _ in mem]
    obs = states[seq]
    executed = np.empty(obs.shape, dtype=bool)
    executed[0] = True
    best = obs[0].copy()
    for t in range(1, len(seq)):
        run = executed[t]
        np.less(best, lev[t], out=run)
        np.maximum(best, obs[t] * run, out=best)
    return executed, best


def _path_costs(costs: np.ndarray, path: list, first: int) -> np.ndarray:
    """The probing cost of a slot that runs the first i probes of
    ``path``, for i = first..len(path)."""
    return np.array([costs[path[:i]].sum() for i in range(first, len(path) + 1)])


def _threshold_outcomes(
    instance: Instance, policy: ThresholdPolicy, by_count: np.ndarray, states
):
    r = instance.rewards
    send_probed, send_blind, blind_if_none = _selection_masks(
        instance, policy.backup, policy.threshold
    )
    executed, best = _level_walk(states, policy.levels)
    cost = by_count[executed.sum(axis=0)]
    # a best of -1 (nothing probed) reads the appended no-find action
    probed_tx = np.append(send_probed, False)[best]
    blind_tx = np.append(send_blind, blind_if_none)[best]
    reward = np.where(probed_tx, r[best], 0.0)
    success = probed_tx & (best >= 1)
    if policy.backup is not None:
        bstate = states[policy.backup]
        reward = reward + np.where(blind_tx, r[bstate], 0.0)
        success |= blind_tx & (bstate >= 1)
    transmit = probed_tx | blind_tx
    return transmit, reward, cost, success


def _tree_outcomes(instance: Instance, tree: DecisionTree):
    """Tables over the tree's paths, checked against the instance by
    the walk that lists them: probe nodes store their channel and one
    child per state, leaves point to themselves and store how the slot
    closes.  Every slot then descends ``depth`` steps."""
    walk = list(tree._walk(instance))
    nodes = [node for node, _, _ in walk]
    size = len(walk)
    channel = np.zeros(size, dtype=np.intp)
    child = np.repeat(np.arange(size)[:, None], tree.state_count, axis=1)
    path_cost = np.zeros(size)
    below = {}  # a probe's position -> the cost of its path and itself
    for i, (node, parent, probed) in enumerate(walk):
        if parent >= 0:
            child[parent, probed[-1][1]] = i
            path_cost[i] = below[parent]
        if isinstance(node, Probe):
            channel[i] = node.channel
            below[i] = instance.costs[[j for j, _ in probed] + [node.channel]].sum()
    sends = np.array([isinstance(nd, (TransmitProbed, TransmitBackup)) for nd in nodes])
    blind = np.array([isinstance(nd, TransmitBackup) for nd in nodes])
    sent_channel = np.array(
        [nd.channel if isinstance(nd, TransmitBackup) else 0 for nd in nodes],
        dtype=np.intp,
    )
    sent_state = np.array(
        [nd.state if isinstance(nd, TransmitProbed) else 0 for nd in nodes],
        dtype=np.intp,
    )
    depth = max(len(probed) for _, _, probed in walk)
    read = {nd.channel for nd in nodes if isinstance(nd, (Probe, TransmitBackup))}
    r = instance.rewards

    def outcomes(states):
        cols = np.arange(states.shape[1])
        at = np.zeros(states.shape[1], dtype=np.intp)
        for _ in range(depth):
            at = child[at, states[channel[at], cols]]
        transmit = sends[at]
        s = np.where(blind[at], states[sent_channel[at], cols], sent_state[at])
        reward = np.where(transmit, r[s], 0.0)
        return transmit, reward, path_cost[at], transmit & (s >= 1)

    return outcomes, sorted(read)


def _prefix_outcomes(instance: Instance, policy: PrefixTreePolicy):
    """Slots that never escape the backbone send the fallback blind;
    the rest are grouped by escape position and state, and each group
    runs its subtree's level list.  Every path transmits."""
    policy.validate(instance)
    backbone = list(policy.backbone)
    k, low = instance.state_count, policy.escape_min
    costs = instance.costs
    groups = []  # (code, escape state, send_min, levels, cost by probes run)
    if low < k:
        for t, per_state in enumerate(policy.subtrees):
            for q, (send_min, levels) in enumerate(per_state):
                path = backbone[: t + 1] + _probe_order(levels)
                by_count = _path_costs(costs, path, t + 1)
                code = t * (k - low) + q
                groups.append((code, low + q, send_min, levels, by_count))
    full_cost = costs[backbone].sum() if backbone else 0.0
    read = {policy.backup, *backbone}
    read.update(j for *_, levels, _ in groups for j in _probe_order(levels))
    r = instance.rewards

    def outcomes(states):
        slots = states.shape[1]
        sent = states[policy.backup].copy()
        cost = np.full(slots, full_cost)
        if groups:
            obs = states[backbone]
            at = (obs >= low).argmax(axis=0)
            s_at = obs[at, np.arange(slots)]
            code = np.where(s_at >= low, at * (k - low) + s_at - low, -1)
            for g, s_esc, send_min, levels, by_count in groups:
                idx = np.flatnonzero(code == g)
                if not idx.size:
                    continue
                executed, best = _level_walk(states[:, idx], levels)
                cost[idx] = by_count[executed.sum(axis=0)]
                sent[idx] = np.where(best >= send_min, best, s_esc)
        return np.ones(slots, dtype=bool), r[sent], cost, sent >= 1

    return outcomes, sorted(read)


# -- the two entry points -----------------------------------------------


def _map_replications(worker, seeds, threads: int) -> list:
    if threads > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, seeds))
    return [worker(s) for s in seeds]


def _replicate(instance: Instance, policy, config: SimConfig, arrivals) -> SimReport:
    """The replication loop of both entry points.  Each replication
    seeds its generator, draws states, plays them and, when
    ``arrivals`` is given, feeds the queue; its means are one row of
    the report."""
    play, read = _player(instance, policy)

    def worker(seq: np.random.SeedSequence):
        rng = np.random.Generator(np.random.PCG64(seq))
        states = _draw_states(instance, rng, config.slots, read)
        transmit, reward, cost, success = play(states, rng)
        if arrivals is None:
            mean_cost = cost.mean()
            return (
                float(reward.mean() - mean_cost),
                float(transmit.mean()),
                float(mean_cost),
                float(success.mean()),
                1.0,
                0.0,
            )
        arr = arrivals.draw(rng, config.slots).astype(np.int64)
        # backlog via running minimum: increments ignore idle slots
        # because service never fires on an empty system anyway
        steps = np.cumsum(arr - transmit.astype(np.int64))
        backlog = steps - np.minimum.accumulate(np.minimum(steps, 0))
        prev = np.concatenate([[0], backlog[:-1]])
        busy = (prev + arr) > 0
        served = busy & transmit
        gain = np.where(busy, reward - cost, 0.0)
        return (
            float(gain.mean()),
            float(served.mean()),
            float(np.where(busy, cost, 0.0).mean()),
            float((busy & success).mean()),
            float(busy.mean()),
            float(backlog.mean()),
        )

    seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
    rows = np.array(_map_replications(worker, seeds, config.threads))
    mean_gain, se_gain = _summarize(rows[:, 0])
    mean_tx, se_tx = _summarize(rows[:, 1])
    busy_fraction = float(rows[:, 4].mean())
    queued = arrivals is not None
    return SimReport(
        slots=config.slots,
        replications=config.replications,
        mean_gain=mean_gain,
        se_gain=se_gain,
        mean_transmit=mean_tx,
        se_transmit=se_tx,
        mean_probe_cost=float(rows[:, 2].mean()),
        mean_success=float(rows[:, 3].mean()),
        busy_fraction=busy_fraction,
        busy_gain=mean_gain / busy_fraction if busy_fraction > 0 else float("nan"),
        mean_queue=float(rows[:, 5].mean()) if queued else None,
        throughput=mean_tx if queued else None,
        rep_gains=tuple(rows[:, 0]),
    )


def simulate_saturated(
    instance: Instance, policy, config: SimConfig | None = None
) -> SimReport:
    """Run ``policy`` every slot and compare against its analytic
    figures.  Accepts level-list, mixed, backbone and decision-tree
    policies.  Anything else raises ProbingError; a policy that breaks
    the game rules raises the error :func:`evaluate_policy` raises."""
    return _replicate(instance, policy, config or SimConfig(), None)


def simulate_unsaturated(
    instance: Instance, policy: MixedPolicy, config: SimConfig | None = None
) -> SimReport:
    """Feed a queue and run ``policy`` on busy slots only.

    Arrivals default to Bernoulli at a mixed policy's arrival rate.  A
    packet landing in a slot may be served in that same slot; the
    backlog follows max(previous + arrival - service, 0)."""
    config = config or SimConfig()
    if config.arrivals is None and not isinstance(policy, MixedPolicy):
        raise ProbingError(f"arrivals are required to queue a {type(policy).__name__}")
    arrivals = config.arrivals or BernoulliArrivals(policy.arrival_rate)
    return _replicate(instance, policy, config, arrivals)
