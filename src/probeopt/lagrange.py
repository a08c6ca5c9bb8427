"""Rate-limited operation for lightly loaded queues.

When packets arrive at rate well below one per slot, always running the
saturated policy wastes transmissions.  The fix: charge the slot a
price x per transmission and run the best one-fallback policy for the
charged objective.  Its charged value is the upper envelope of the
lines ``gain - x * transmit`` of the policies it picks, so it is convex
in x and its transmission rate only falls as x rises.  A target rate in
(0, 1) is usually met only at a kink, where a line transmitting at
least the target crosses one transmitting at most.  A cutting-plane
search (Kelley's method, which the dual bound in :mod:`probeopt.oracle`
runs too; ``_search`` says how it opens) finds that price exactly, and
the two policies optimal there are mixed with a coin flip per busy
slot: by LP duality the best mixture the one-fallback family offers at
that rate.

The queue is run a notch faster than the arrivals: the mixture is
tuned to transmit at rate (1 + slack) * arrival rate whenever the
queue is nonempty, which keeps it stable and busy roughly a
1 / (1 + slack) fraction of slots.  ``find_rate_bracket`` and
``select_multiplier_pair`` (a grid bracket and a bisected price pair)
are public but off the solve path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GainReport, Instance, ProbingError, evaluate_policy
from .multi_state import ThresholdPolicy, _kink_price, _number, best_reserve_backup

__all__ = [
    "BracketNotFound",
    "CutSearchStalled",
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


class CutSearchStalled(ProbingError):
    """The cut search did not close within ``MAX_CUTS`` cuts."""


# Cap on the cut steps after ``_search``'s opening, for the queue mixture
# and the dual bound alike.  The most the queue has taken from the ends
# is 7 (n up to 2000, K up to 16), so reaching it means a wrong cut, not
# a hard case.
MAX_CUTS = 64
CUT_TOL = 1e-12  # a new cut this close to the model closes the search
SEED_GAP = 1e-9  # the seed cuts sit this far either side of the kink guess


class _Cut(NamedTuple):
    """The line ``gain - x * transmit`` of one policy, found optimal at
    ``price``; ``payload`` is whatever the solve returned with it."""

    price: float
    gain: float
    transmit: float
    payload: object


def _kink(solve, rate: float, hi: _Cut, lo: _Cut) -> tuple[float, _Cut, _Cut]:
    """Kelley's cut search for the price where the charged optimum's
    rate crosses ``rate``, from cuts with ``hi.transmit > rate >
    lo.transmit``.  ``solve(x)`` gives the gain, transmit probability
    and payload of a policy optimal at price x.  Each step solves where
    ``hi`` and ``lo`` cross; if the new cut is no higher there, both
    are optimal and the price and both are returned, else it replaces
    the one on its side.  A cut at exactly ``rate`` is returned twice."""
    for _ in range(MAX_CUTS):
        x = (hi.gain - lo.gain) / (hi.transmit - lo.transmit)
        x = min(max(x, hi.price), lo.price)
        cut = _Cut(x, *solve(x))
        model = max(c.gain - x * c.transmit for c in (hi, lo))
        if cut.gain - x * cut.transmit <= model + CUT_TOL:
            return x, hi, lo
        if cut.transmit == rate:
            return x, cut, cut
        if cut.transmit > rate:
            hi = cut
        else:
            lo = cut
    raise CutSearchStalled(f"no kink for rate {rate} within {MAX_CUTS} cuts")


def _search(solve, rate: float, seeds, low: float, high: float) -> tuple[float, _Cut, _Cut]:
    """Kelley's cut search from its opening, shared by the queue mixture
    and the dual bound: the price and the cuts optimal there that send
    at least and at most ``rate``.  ``solve(x, preference)`` gives the
    gain, transmit probability and payload of a policy optimal at price
    x under a tie preference.  ``seeds`` is None or two cuts ``(up,
    down)`` at a guess of the kink, ``up`` at the lower price or the
    same one.  Seeds at one price with ``up.transmit >= rate >=
    down.transmit`` are the answer; seeds at two prices that straddle
    ``rate`` strictly open ``_kink``; otherwise a seed sending strictly
    on one side of ``rate`` is that side's cut.  Missing sides come from
    the ends, ``low`` solved with ``"prefer-transmit"`` and ``high``
    with ``"prefer-silent"``; an end that does not pass ``rate`` is
    returned as both sides at its price."""
    hi = lo = None
    if seeds is not None:
        up, down = seeds
        if up.price == down.price and up.transmit >= rate >= down.transmit:
            return up.price, up, down
        if up.transmit > rate > down.transmit:
            hi, lo = up, down
        elif down.transmit > rate:
            hi = down
        elif up.transmit < rate:
            lo = up
    if hi is None:
        hi = _Cut(low, *solve(low, "prefer-transmit"))
        if hi.transmit <= rate:
            return low, hi, hi
    if lo is None:
        lo = _Cut(high, *solve(high, "prefer-silent"))
        if lo.transmit >= rate:
            return high, lo, lo
    return _kink(lambda x: solve(x, "default"), rate, hi, lo)


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


def _gated(instance: Instance, price: float) -> tuple[float, float, ThresholdPolicy]:
    """Gain and transmit probability at face value (no charge folded
    in) of the best one-fallback policy for the charged objective at
    ``price``, and the policy."""
    policy = best_reserve_backup(instance, price)
    report = evaluate_policy(instance, policy)
    return report.gain, report.transmit_prob, policy


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
    s_lo = _gated(instance, cands[0])[1]
    s_hi = _gated(instance, cands[-1])[1]
    if s_lo < rate or s_hi > rate:
        raise BracketNotFound(
            f"rate {rate} outside the achievable range [{s_hi}, {s_lo}]"
        )
    lo, hi = 0, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s_mid = _gated(instance, cands[mid])[1]
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
    (g_lo, s_lo, p_lo), (g_hi, s_hi, p_hi) = side(x_lo), side(x_hi)
    return MultiplierPair(
        float(x_lo), float(x_hi), s_lo, s_hi, g_lo, g_hi, p_lo, p_hi, construction
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
    side = functools.cache(lambda x: _gated(instance, x))
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
        if side(mid)[1] >= rate:
            lo = mid
        else:
            hi = mid
    return _pair(side, lo, hi, "bisection")


@dataclass(frozen=True, eq=False)
class MixedPolicy:
    """Coin-flip mixture of two charged policies for a busy slot.

    With probability ``alpha`` the slot runs ``policy_plus``
    (transmitting at most the target rate), otherwise ``policy_minus``
    (at least); the weights are chosen so the mixture transmits at
    exactly ``effective_rate`` while busy.  ``busy_slot_gain`` is the
    mixture's expected face-value gain in a busy slot;
    ``steady_state_gain`` discounts it by the long-run fraction of
    slots the queue keeps the server busy.

    ``construction`` says how the pair was found: ``"kink"`` when both
    policies are optimal at one price (``multiplier_low ==
    multiplier_high``), ``"exact"`` when one policy transmits at the
    target rate itself (both sides are that policy, ``alpha`` is 1).
    Documents without the field load as ``"loaded"``."""

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
            **{name: getattr(self, name) for name in _NUMBERS},
            "construction": self.construction,
            "policy_minus": self.policy_minus.to_dict(names),
            "policy_plus": self.policy_plus.to_dict(names),
        }

    @classmethod
    def from_dict(cls, data: dict, instance: Instance | None = None) -> "MixedPolicy":
        numbers = {name: _number(data[name], name) for name in _NUMBERS}
        if not 0.0 <= numbers["alpha"] <= 1.0:
            raise ProbingError(
                f"mixing weight alpha must be in [0, 1], got {numbers['alpha']}"
            )
        return cls(
            policy_minus=ThresholdPolicy.from_dict(data["policy_minus"], instance),
            policy_plus=ThresholdPolicy.from_dict(data["policy_plus"], instance),
            construction=data.get("construction", "loaded"),
            **numbers,
        )


# The mixture's numeric fields, in the order its documents list them.
_NUMBERS = (
    "alpha", "arrival_rate", "slack", "effective_rate", "multiplier_low",
    "multiplier_high", "s_minus", "s_plus", "gain_minus", "gain_plus",
)


def solve_unsaturated(
    instance: Instance, arrival_rate: float, slack: float = 0.05
) -> MixedPolicy:
    """Busy-slot policy for a queue fed at ``arrival_rate``.

    The mixture transmits at rate arrival_rate * (1 + slack) while
    busy, so the queue drains faster than it fills and the server
    settles near a 1 / (1 + slack) busy fraction.  Its two policies are
    both optimal at the kink price, found by ``_search`` from seed cuts
    at L* -/+ 1e-9, where L* minimizes the closed-form dual
    ``weitzman_bound(instance, L) + rate * L``, and end cuts at the
    prices -1 (every slot transmits) and 2 (none does).  Each side's
    policy carries the price it was found at as its ``threshold``.
    Raises RateOutOfRange when the effective rate leaves (0, 1) and
    BracketNotFound when the end cuts do not reach it."""
    if slack <= 0.0:
        raise RateOutOfRange(f"slack must be positive, got {slack}")
    effective = arrival_rate * (1.0 + slack)
    if not (0.0 < arrival_rate and effective < 1.0):
        raise RateOutOfRange(
            f"need 0 < arrival_rate and arrival_rate * (1 + slack) < 1, "
            f"got {arrival_rate} at slack {slack}"
        )
    guess = _kink_price(instance, effective)
    seeds = [_Cut(x, *_gated(instance, x)) for x in (guess - SEED_GAP, guess + SEED_GAP)]
    # the fallback search has one tie rule, so the preference is moot
    price, hi, lo = _search(
        lambda x, _: _gated(instance, x), effective, seeds, -1.0, 2.0
    )
    if hi is lo and hi.transmit != effective:
        raise BracketNotFound(
            f"rate {effective} outside the achievable range "
            f"[{lo.transmit}, {hi.transmit}]"
        )
    alpha = 1.0 if hi is lo else (hi.transmit - effective) / (hi.transmit - lo.transmit)
    return MixedPolicy(
        policy_minus=hi.payload,
        policy_plus=lo.payload,
        alpha=float(alpha),
        arrival_rate=float(arrival_rate),
        slack=float(slack),
        effective_rate=float(effective),
        multiplier_low=float(price),
        multiplier_high=float(price),
        s_minus=hi.transmit,
        s_plus=lo.transmit,
        gain_minus=hi.gain,
        gain_plus=lo.gain,
        construction="exact" if hi is lo else "kink",
    )
