"""Closed-form optimum for on/off channels (two states).

With a single positive reward, an optimal slot looks like: set one
channel aside as the blind fallback, probe the others that are worth
their cost in the most cost-effective order, send on the first one found
on, and send the fallback blind if none is.  This module scores every
fallback choice in one O(n log n) sweep and returns the winner as a
level-list policy with a single probe list at level 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Instance, ProbingError, UnknownChannel
from .multi_state import ThresholdPolicy

__all__ = [
    "TwoStateRequired",
    "probe_set",
    "BackupScan",
    "determine_best_backup",
    "two_state_opt",
]


class TwoStateRequired(ProbingError):
    """Raised when these closed forms meet an instance with K != 2."""


def _require_two_states(instance: Instance) -> None:
    if instance.state_count != 2:
        raise TwoStateRequired(
            f"this solver handles exactly 2 states, got {instance.state_count}"
        )


def _ratios(instance: Instance) -> np.ndarray:
    """Cost per unit of success probability; inf when success is
    impossible (such a channel is never worth probing)."""
    p = instance.probs[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, instance.costs / np.where(p > 0.0, p, 1.0), np.inf)
    return r


def probe_set(instance: Instance, backup: int) -> tuple[int, ...]:
    """Channels worth probing ahead of blind-sending ``backup``.

    Channel j belongs iff probing it just before the blind send pays:
    the reward collected when j is on and the fallback would have been
    off exceeds j's cost.  Decided on the cost/success ratio, so the
    members form a prefix of the efficiency order; they are returned in
    that order and are usable directly as a probe order.
    """
    _require_two_states(instance)
    if not 0 <= backup < instance.n:
        raise UnknownChannel(f"backup index {backup} out of range")
    tau = instance.rewards[1] * (1.0 - instance.probs[1, backup])
    rats = _ratios(instance)
    return tuple(
        int(j) for j in _efficiency_order(instance)
        if j != backup and rats[j] < tau
    )


def _efficiency_order(instance: Instance) -> np.ndarray:
    """All channels, most probe-worthy first.

    Ascending cost/success ratio; free-but-possible channels first
    (highest success probability leading), never-on channels last.  The
    never-on group would otherwise sort as 0/0 ahead of real members and
    break the prefix structure the scan relies on; they can never be
    probe-set members, so parking them at the end is value-neutral.
    """
    p = instance.probs[1]
    c = instance.costs

    def key(j: int):
        if p[j] <= 0.0:
            return (2, 0.0, j)
        if c[j] <= 0.0:
            return (0, -p[j], j)
        return (1, c[j] / p[j], j)

    return np.array(sorted(range(instance.n), key=key), dtype=int)


@dataclass(frozen=True, eq=False)
class BackupScan:
    """Every fallback choice scored in one pass.

    ``order`` is the efficiency order; ``products[t]`` the chance the
    first t channels of it all come up off; ``prefix_gains[t]`` the
    expected reward-minus-cost collected probing those t and stopping at
    the first on.  ``channel_gains[i]`` is the slot gain when channel i
    is the fallback (indexed by original channel, not by rank).
    """

    order: np.ndarray
    products: np.ndarray
    prefix_gains: np.ndarray
    channel_gains: np.ndarray
    best: int
    best_probe_order: tuple[int, ...]

    @property
    def best_gain(self) -> float:
        return float(self.channel_gains[self.best])


def determine_best_backup(instance: Instance) -> BackupScan:
    """Score all n fallback choices in O(n log n)."""
    _require_two_states(instance)
    n = instance.n
    r1 = float(instance.rewards[1])
    p = instance.probs[1]
    c = instance.costs
    order = _efficiency_order(instance)
    ps, cs = p[order], c[order]

    products = np.concatenate([[1.0], np.cumprod(1.0 - ps)])
    prefix_gains = np.concatenate(
        [[0.0], np.cumsum((ps * r1 - cs) * products[:-1])]
    )

    rats = _ratios(instance)
    rats_sorted = rats[order]
    blind = instance.blind_rewards  # = p * r1 here

    # prefix length of the efficiency order passing each fallback's bar
    tau = r1 * (1.0 - p)
    mfull = np.searchsorted(rats_sorted, tau, side="left")
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)

    gains = np.empty(n)
    outside = pos >= mfull
    gains[outside] = (
        prefix_gains[mfull[outside]] + blind[outside] * products[mfull[outside]]
    )
    ins = ~outside
    if np.any(ins):
        q, m = pos[ins], mfull[ins]
        keep = 1.0 - p[ins]  # < 1 by validation, so the division is safe
        gains[ins] = (
            prefix_gains[q]
            + (prefix_gains[m] - prefix_gains[q + 1]) / keep
            + blind[ins] * products[m] / keep
        )

    best = int(np.argmax(gains))
    probe_order = tuple(
        int(j) for j in order[: mfull[best]] if j != best
    )
    return BackupScan(
        order=order,
        products=products,
        prefix_gains=prefix_gains,
        channel_gains=gains,
        best=best,
        best_probe_order=probe_order,
    )


def two_state_opt(instance: Instance) -> ThresholdPolicy:
    """The optimal two-state policy (best fallback, efficiency-ordered
    probes of exactly the channels that pay for themselves), as a
    level-list policy with one probe list at level 1."""
    scan = determine_best_backup(instance)
    probes = scan.best_probe_order
    return ThresholdPolicy(
        backup=scan.best, threshold=None, levels=((1, probes),) if probes else ()
    )


def _exhaust_from_dict(data: dict, instance: Instance | None = None) -> ThresholdPolicy:
    """Load a legacy ``exhaust`` document (probe in order until one
    channel is on, else send the fallback blind) as a level-list policy.

    Without a fallback, a slot whose probes all come up off stays
    silent: the smallest positive decision bar refuses the zero-reward
    close and passes every real reward.
    """
    idx = instance.index_of if instance is not None else (lambda s: int(s) - 1)
    probes = tuple(idx(c) for c in data.get("probe_order", ()))
    backup = data.get("backup")
    return ThresholdPolicy(
        backup=None if backup is None else idx(backup),
        threshold=math.ulp(0.0) if backup is None else None,
        levels=((1, probes),) if probes else (),
    )
