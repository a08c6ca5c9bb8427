"""The on/off (two-state) case of the one-fallback search.

With a single positive reward level, an optimal slot sets one channel
aside as the blind fallback (or none), probes the others that are worth
their cost by ascending cost per unit of success, sends on the first
one found on, and sends the fallback blind if none is.  That policy is
the K = 2 member of the one-fallback family, so this module checks K
and hands over to :func:`probeopt.multi_state.best_reserve_backup`; the
result is a level-list policy, with one probe list at level 1 when the
base reward is 0.  Ties follow the
search: objectives within 1e-12 (1 + |best|) of the best go to no
fallback first, then to the lowest channel index.
"""

from __future__ import annotations

import math

from .core import Instance, ProbingError
from .multi_state import ThresholdPolicy, best_reserve_backup, reserve_backup_policy

__all__ = [
    "TwoStateRequired",
    "probe_set",
    "two_state_opt",
]


class TwoStateRequired(ProbingError):
    """Raised when these solvers meet an instance with K != 2."""


def _require_two_states(instance: Instance) -> None:
    if instance.state_count != 2:
        raise TwoStateRequired(
            f"this solver handles exactly 2 states, got {instance.state_count}"
        )


def probe_set(instance: Instance, backup: int) -> tuple[int, ...]:
    """Channels worth probing ahead of blind-sending ``backup``, in
    probing order: those whose top reward less their cost per unit of
    success beats the fallback's blind mean."""
    _require_two_states(instance)
    return reserve_backup_policy(instance, backup).probe_sequence()


def two_state_opt(instance: Instance) -> ThresholdPolicy:
    """The optimal two-state policy: the best one-fallback policy."""
    _require_two_states(instance)
    return best_reserve_backup(instance)


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
