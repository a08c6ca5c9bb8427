"""Monte Carlo checks of the analytic gain figures.

Replications are seeded from one SeedSequence spawn, so a (seed,
slots, replications) triple names the same sample paths on any
machine.  Within a replication the draws happen in a fixed order:
the full slots-by-channels state matrix, then the mixture coins,
then the arrival process.

Level-list policies run fully vectorized.  The probe sequence is
fixed, levels only descend along it, so position t is reached exactly
when every earlier observation sits below position t's level; one
running maximum over the observation matrix settles every slot at
once.  Decision-tree and backbone policies walk slot by slot instead
and cost accordingly.

The queue simulation precomputes each slot's would-be transmission as
if busy (the draws do not depend on the backlog), which turns the
backlog into a running-minimum recursion over arrival minus service
increments, also vectorized.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .core import Instance, ProbingError
from .lagrange import MixedPolicy
from .multi_state import ThresholdPolicy, _selection_masks

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
        u = rng.random(slots)
        out = np.empty(slots, dtype=np.int8)
        on = bool(u[0] < self.rate) if slots else False
        for t in range(slots):
            if t:
                on = (u[t] < 1.0 - self.q10) if on else (u[t] < self.q01)
            out[t] = on
        return out


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


@dataclass(frozen=True)
class SimReport:
    """Replication means and their standard errors.  ``mean_gain`` is
    per slot (busy or not), so for queue runs it already folds in the
    idle fraction; ``busy_gain`` conditions on busy slots."""

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
            "se_gain": self.se_gain,
            "mean_transmit": self.mean_transmit,
            "se_transmit": self.se_transmit,
            "mean_probe_cost": self.mean_probe_cost,
            "mean_success": self.mean_success,
            "busy_fraction": self.busy_fraction,
            "busy_gain": self.busy_gain,
            "rep_gains": list(self.rep_gains),
        }
        if self.mean_queue is not None:
            out["mean_queue"] = self.mean_queue
            out["throughput"] = self.throughput
        return out


def _summarize(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.shape[0] < 2:
        return mean, float("nan")
    return mean, float(values.std(ddof=1) / sqrt(values.shape[0]))


# -- drawing ------------------------------------------------------------


def _draw_states(
    instance: Instance, rng: np.random.Generator, slots: int
) -> np.ndarray:
    u = rng.random((slots, instance.n))
    out = np.empty((slots, instance.n), dtype=np.int64)
    for j in range(instance.n):
        cum = np.cumsum(instance.probs[:, j])
        out[:, j] = np.minimum(
            np.searchsorted(cum, u[:, j], side="right"), instance.state_count - 1
        )
    return out


# -- per-slot outcomes under one policy ---------------------------------


def _slot_outcomes(instance: Instance, policy, states: np.ndarray):
    """(transmit, reward, cost, success) per slot, as if every slot
    were played."""
    if isinstance(policy, ThresholdPolicy):
        return _threshold_outcomes(instance, policy, states)
    if hasattr(policy, "act"):
        return _generic_outcomes(instance, policy, states)
    raise ProbingError(f"cannot simulate a {type(policy).__name__}")


def _threshold_outcomes(instance: Instance, policy: ThresholdPolicy, states):
    slots = states.shape[0]
    r = instance.rewards
    seq = [j for _, mem in policy.levels for j in mem]
    if seq:
        lev = np.array(
            [u for u, mem in policy.levels for _ in mem], dtype=np.int64
        )
        obs = states[:, seq]
        before = np.empty_like(obs)
        before[:, 0] = -1
        np.maximum.accumulate(obs[:, :-1], axis=1, out=before[:, 1:])
        executed = before < lev[None, :]
        cost = executed @ instance.costs[seq]
        best = np.where(executed, obs, -1).max(axis=1)
    else:
        cost = np.zeros(slots)
        best = np.full(slots, -1, dtype=np.int64)
    send_probed, send_blind, none_action = _selection_masks(
        instance, policy.backup, policy.threshold
    )
    found = best >= 0
    probed_tx = found & send_probed[best]
    blind_tx = found & send_blind[best]
    if none_action == "blind":
        blind_tx |= ~found
    reward = np.where(probed_tx, r[best], 0.0)
    success = probed_tx & (best >= 1)
    if policy.backup is not None:
        bstate = states[:, policy.backup]
        reward = reward + np.where(blind_tx, r[bstate], 0.0)
        success |= blind_tx & (bstate >= 1)
    transmit = probed_tx | blind_tx
    return transmit, reward, cost, success


def _generic_outcomes(instance: Instance, policy, states):
    slots = states.shape[0]
    r = instance.rewards
    transmit = np.zeros(slots, dtype=bool)
    reward = np.zeros(slots)
    cost = np.zeros(slots)
    success = np.zeros(slots, dtype=bool)
    for t in range(slots):
        row = states[t]
        probed, action = policy.act(row)
        cost[t] = instance.costs[list(probed)].sum() if probed else 0.0
        if action[0] == "transmit":
            s = int(action[2])
        elif action[0] == "backup":
            s = int(row[action[1]])
        else:
            continue
        transmit[t] = True
        reward[t] = r[s]
        success[t] = s >= 1
    return transmit, reward, cost, success


def _mixture_outcomes(instance: Instance, policy: MixedPolicy, states, rng):
    coins = rng.random(states.shape[0]) < policy.alpha
    t_p, r_p, c_p, s_p = _slot_outcomes(instance, policy.policy_plus, states)
    t_m, r_m, c_m, s_m = _slot_outcomes(instance, policy.policy_minus, states)
    return (
        np.where(coins, t_p, t_m),
        np.where(coins, r_p, r_m),
        np.where(coins, c_p, c_m),
        np.where(coins, s_p, s_m),
    )


# -- the two entry points -----------------------------------------------


def _map_replications(worker, seeds, threads: int) -> list:
    if threads > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, seeds))
    return [worker(s) for s in seeds]


def simulate_saturated(
    instance: Instance, policy, config: SimConfig | None = None
) -> SimReport:
    """Run ``policy`` every slot and compare against its analytic
    figures.  Accepts level-list, mixed, backbone, and decision-tree
    policies."""
    if config is None:
        config = SimConfig()

    def worker(seq: np.random.SeedSequence):
        rng = np.random.Generator(np.random.PCG64(seq))
        states = _draw_states(instance, rng, config.slots)
        if isinstance(policy, MixedPolicy):
            transmit, reward, cost, success = _mixture_outcomes(
                instance, policy, states, rng
            )
        else:
            transmit, reward, cost, success = _slot_outcomes(
                instance, policy, states
            )
        return (
            float(reward.mean() - cost.mean()),
            float(transmit.mean()),
            float(cost.mean()),
            float(success.mean()),
        )

    seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
    rows = np.array(_map_replications(worker, seeds, config.threads))
    mean_gain, se_gain = _summarize(rows[:, 0])
    mean_tx, se_tx = _summarize(rows[:, 1])
    return SimReport(
        slots=config.slots,
        replications=config.replications,
        mean_gain=mean_gain,
        se_gain=se_gain,
        mean_transmit=mean_tx,
        se_transmit=se_tx,
        mean_probe_cost=float(rows[:, 2].mean()),
        mean_success=float(rows[:, 3].mean()),
        busy_fraction=1.0,
        busy_gain=mean_gain,
        mean_queue=None,
        throughput=None,
        rep_gains=tuple(rows[:, 0]),
    )


def simulate_unsaturated(
    instance: Instance, policy: MixedPolicy, config: SimConfig | None = None
) -> SimReport:
    """Feed a queue and run ``policy`` on busy slots only.

    Arrivals default to Bernoulli at the policy's arrival rate.  A
    packet landing in a slot may be served in that same slot; the
    backlog follows max(previous + arrival - service, 0)."""
    if config is None:
        config = SimConfig()
    arrivals = config.arrivals or BernoulliArrivals(policy.arrival_rate)

    def worker(seq: np.random.SeedSequence):
        rng = np.random.Generator(np.random.PCG64(seq))
        states = _draw_states(instance, rng, config.slots)
        transmit, reward, cost, success = _mixture_outcomes(
            instance, policy, states, rng
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
        busy_gain=mean_gain / busy_fraction if busy_fraction > 0 else 0.0,
        mean_queue=float(rows[:, 5].mean()),
        throughput=mean_tx,
        rep_gains=tuple(rows[:, 0]),
    )
