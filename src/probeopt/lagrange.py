"""Rate-limited operation for lightly loaded queues.

When packets arrive at rate well below one per slot, always running the
saturated policy wastes transmissions.  The fix: charge the slot a
price x per transmission and run the best one-fallback policy for the
charged objective.  Raising x makes the policy choosier, and its
transmission probability only ever falls, so a price can be bracketed
where the transmission rate crosses any target in (0, 1).  The rate is
a step function of the price, so the target is usually not hit
exactly; instead two nearby prices straddling it are mixed with a coin
flip per busy slot.  Keeping the pair close together (how close is set
by the slack and a crude lower bound on the constrained optimum) keeps
the mixture's gain within the one-fallback family's usual factor of
the rate-constrained optimum, up to the slack.

The queue is run a notch faster than the arrivals: the mixture is
tuned to transmit at rate (1 + slack) * arrival rate whenever the
queue is nonempty, which keeps it stable and busy roughly a
1 / (1 + slack) fraction of slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GainReport, Instance, ProbingError, evaluate_policy
from .multi_state import ThresholdPolicy, best_reserve_backup

__all__ = [
    "BracketNotFound",
    "DegenerateBound",
    "MixedPolicy",
    "MultiplierPair",
    "RateBracket",
    "RateOutOfRange",
    "candidate_thresholds",
    "find_rate_bracket",
    "select_multiplier_pair",
    "solve_unsaturated",
]


class RateOutOfRange(ProbingError):
    pass


class BracketNotFound(ProbingError):
    pass


class DegenerateBound(ProbingError):
    pass


def candidate_thresholds(instance: Instance) -> np.ndarray:
    """Prices where the charged policy can change shape: every reward,
    every fallback mean, and sentinels below and above them all.  The
    policy can also move between neighbours (probe lists shift as the
    price crosses a channel's score), so these only seed the search."""
    return np.sort(
        np.concatenate(
            [[-1.0], instance.rewards, instance.blind_rewards, [2.0]]
        )
    )


def _gated(instance: Instance, price: float) -> tuple[ThresholdPolicy, GainReport]:
    """Best one-fallback policy for the charged objective at ``price``,
    reported at face value (no charge folded in)."""
    policy = best_reserve_backup(instance, price)
    return policy, evaluate_policy(instance, policy)


@dataclass(frozen=True)
class RateBracket:
    threshold_low: float
    threshold_high: float
    s_low: float
    s_high: float


def find_rate_bracket(instance: Instance, rate: float) -> RateBracket:
    """Adjacent candidate prices whose transmission rates straddle
    ``rate``: S at the low price is at least the target, S at the high
    price at most.  Bisection over the candidate array, using that S
    never increases with the price."""
    if not 0.0 < rate < 1.0:
        raise RateOutOfRange(f"target rate must be in (0, 1), got {rate}")
    cands = candidate_thresholds(instance)
    s_lo = _gated(instance, cands[0])[1].transmit_prob
    s_hi = _gated(instance, cands[-1])[1].transmit_prob
    if s_lo < rate or s_hi > rate:
        raise BracketNotFound(
            f"rate {rate} outside the achievable range [{s_hi}, {s_lo}]"
        )
    lo, hi = 0, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s_mid = _gated(instance, cands[mid])[1].transmit_prob
        if s_mid >= rate:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    return RateBracket(
        threshold_low=float(cands[lo]),
        threshold_high=float(cands[hi]),
        s_low=float(s_lo),
        s_high=float(s_hi),
    )


@dataclass(frozen=True)
class MultiplierPair:
    """Two prices straddling the target rate, at most ``delta`` apart
    unless one of them hits the target exactly."""

    multiplier_low: float
    multiplier_high: float
    s_minus: float
    s_plus: float
    gain_minus: float
    gain_plus: float
    policy_minus: ThresholdPolicy
    policy_plus: ThresholdPolicy
    construction: str


def _pair(side, x_lo, x_hi, construction) -> MultiplierPair:
    p_lo, rep_lo = side(x_lo)
    p_hi, rep_hi = side(x_hi)
    return MultiplierPair(
        multiplier_low=float(x_lo),
        multiplier_high=float(x_hi),
        s_minus=rep_lo.transmit_prob,
        s_plus=rep_hi.transmit_prob,
        gain_minus=rep_lo.gain,
        gain_plus=rep_hi.gain,
        policy_minus=p_lo,
        policy_plus=p_hi,
        construction=construction,
    )


def select_multiplier_pair(
    instance: Instance, rate: float, bracket: RateBracket, delta: float
) -> MultiplierPair:
    """Close-together price pair straddling ``rate`` inside the bracket.

    Tries the bracket midpoint first: when the rate really is flat
    across the bracket interior, a delta-wide pair there straddles
    immediately.  The flatness can fail (probe lists move inside the
    interval), so the straddle is checked and bisection takes over when
    it does not hold.  Each price is searched at most once."""
    sides: dict[float, tuple[ThresholdPolicy, GainReport]] = {}

    def side(x):
        if x not in sides:
            sides[x] = _gated(instance, x)
        return sides[x]

    if bracket.s_low == rate:
        return _pair(side, bracket.threshold_low, bracket.threshold_low, "exact")
    if bracket.s_high == rate:
        return _pair(side, bracket.threshold_high, bracket.threshold_high, "exact")
    width = bracket.threshold_high - bracket.threshold_low
    if width <= 0.0:
        raise BracketNotFound("zero-width bracket cannot straddle the rate")
    if delta <= 0.0:
        raise DegenerateBound(f"pair separation must be positive, got {delta}")
    mid = 0.5 * (bracket.threshold_low + bracket.threshold_high)
    x_lo = mid - 0.5 * delta
    x_hi = mid + 0.5 * delta
    cand = _pair(side, x_lo, x_hi, "midpoint")
    if cand.s_minus >= rate >= cand.s_plus:
        return cand
    lo = bracket.threshold_low
    hi = bracket.threshold_high
    while hi - lo > delta:
        mid = 0.5 * (lo + hi)
        if side(mid)[1].transmit_prob >= rate:
            lo = mid
        else:
            hi = mid
    return _pair(side, lo, hi, "bisection")


@dataclass(frozen=True, eq=False)
class MixedPolicy:
    """Coin-flip mixture of two charged policies for a busy slot.

    With probability ``alpha`` the slot runs ``policy_plus`` (the
    higher price, transmitting at most the target rate), otherwise
    ``policy_minus``; the weights are chosen so the mixture transmits
    at exactly ``effective_rate`` while busy.  ``busy_slot_gain`` is
    the mixture's expected face-value gain in a busy slot;
    ``steady_state_gain`` discounts it by the long-run fraction of
    slots the queue keeps the server busy."""

    policy_minus: ThresholdPolicy
    policy_plus: ThresholdPolicy
    alpha: float
    arrival_rate: float
    slack: float
    effective_rate: float
    multiplier_low: float
    multiplier_high: float
    s_minus: float
    s_plus: float
    gain_minus: float
    gain_plus: float
    construction: str

    @property
    def busy_slot_gain(self) -> float:
        return self.alpha * self.gain_plus + (1.0 - self.alpha) * self.gain_minus

    @property
    def busy_fraction(self) -> float:
        return 1.0 / (1.0 + self.slack)

    @property
    def steady_state_gain(self) -> float:
        return self.busy_slot_gain * self.busy_fraction

    @property
    def transmit_prob(self) -> float:
        return self.alpha * self.s_plus + (1.0 - self.alpha) * self.s_minus

    def _gain_report(self, instance: Instance, altered_threshold=None) -> GainReport:
        rep_p = evaluate_policy(instance, self.policy_plus)
        rep_m = evaluate_policy(instance, self.policy_minus)
        a = self.alpha
        mass = a * rep_p.state_mass + (1.0 - a) * rep_m.state_mass
        cost = a * rep_p.probe_cost + (1.0 - a) * rep_m.probe_cost
        return GainReport.assemble(instance, mass, cost, altered_threshold)

    def to_dict(self, names: tuple[str, ...] | None = None) -> dict:
        return {
            "kind": "mixed",
            "alpha": self.alpha,
            "arrival_rate": self.arrival_rate,
            "slack": self.slack,
            "effective_rate": self.effective_rate,
            "multiplier_low": self.multiplier_low,
            "multiplier_high": self.multiplier_high,
            "s_minus": self.s_minus,
            "s_plus": self.s_plus,
            "gain_minus": self.gain_minus,
            "gain_plus": self.gain_plus,
            "construction": self.construction,
            "policy_minus": self.policy_minus.to_dict(names),
            "policy_plus": self.policy_plus.to_dict(names),
        }

    @classmethod
    def from_dict(cls, data: dict, instance: Instance | None = None) -> "MixedPolicy":
        alpha = float(data["alpha"])
        if not 0.0 <= alpha <= 1.0:
            raise ProbingError(f"mixing weight alpha must be in [0, 1], got {alpha}")
        return cls(
            policy_minus=ThresholdPolicy.from_dict(data["policy_minus"], instance),
            policy_plus=ThresholdPolicy.from_dict(data["policy_plus"], instance),
            alpha=alpha,
            arrival_rate=float(data["arrival_rate"]),
            slack=float(data["slack"]),
            effective_rate=float(data["effective_rate"]),
            multiplier_low=float(data["multiplier_low"]),
            multiplier_high=float(data["multiplier_high"]),
            s_minus=float(data["s_minus"]),
            s_plus=float(data["s_plus"]),
            gain_minus=float(data["gain_minus"]),
            gain_plus=float(data["gain_plus"]),
            construction=data.get("construction", "loaded"),
        )


def solve_unsaturated(
    instance: Instance, arrival_rate: float, slack: float = 0.05
) -> MixedPolicy:
    """Busy-slot policy for a queue fed at ``arrival_rate``.

    The mixture transmits at rate arrival_rate * (1 + slack) while
    busy, so the queue drains faster than it fills and the server
    settles near a 1 / (1 + slack) busy fraction.  Raises
    RateOutOfRange when that effective rate leaves (0, 1) and
    DegenerateBound when the instance offers no positive gain to
    calibrate the pair separation against."""
    if slack <= 0.0:
        raise RateOutOfRange(f"slack must be positive, got {slack}")
    effective = arrival_rate * (1.0 + slack)
    if not (0.0 < arrival_rate and effective < 1.0):
        raise RateOutOfRange(
            f"need 0 < arrival_rate and arrival_rate * (1 + slack) < 1, "
            f"got {arrival_rate} at slack {slack}"
        )
    bracket = find_rate_bracket(instance, effective)
    if bracket.s_low == effective or bracket.s_high == effective:
        pair = select_multiplier_pair(instance, effective, bracket, 1.0)
    else:
        unpriced = evaluate_policy(instance, best_reserve_backup(instance, None)).gain
        floor_gain = max(unpriced, float(instance.blind_rewards.max()))
        q_lower = effective * floor_gain
        if q_lower <= 0.0:
            raise DegenerateBound(
                "no positive-gain policy to size the pair separation with"
            )
        width = bracket.threshold_high - bracket.threshold_low
        delta = min(2.0 * slack * q_lower / 3.0, 0.5 * width)
        pair = select_multiplier_pair(instance, effective, bracket, delta)
    if pair.s_minus == pair.s_plus:
        alpha = 1.0
    else:
        alpha = (pair.s_minus - effective) / (pair.s_minus - pair.s_plus)
    return MixedPolicy(
        policy_minus=pair.policy_minus,
        policy_plus=pair.policy_plus,
        alpha=float(alpha),
        arrival_rate=float(arrival_rate),
        slack=float(slack),
        effective_rate=float(effective),
        multiplier_low=pair.multiplier_low,
        multiplier_high=pair.multiplier_high,
        s_minus=pair.s_minus,
        s_plus=pair.s_plus,
        gain_minus=pair.gain_minus,
        gain_plus=pair.gain_plus,
        construction=pair.construction,
    )
