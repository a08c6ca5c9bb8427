"""Probing, selection, and transmission policies for multichannel
wireless links.

A transmitter faces n channels, each in a random quality state it can
learn exactly by paying a probing cost.  Each slot it decides which
channels to probe and in what order, then transmits on a probed
channel, gambles on an unprobed one, or stays quiet.  This package
builds policies for that slot game and checks them:

* fast level-list policies with a constant-factor guarantee for any
  number of states (``best_reserve_backup``); at two states (on/off)
  the same search is exact, and ``two_state_opt`` is that search after
  a check that K = 2 (near-ties within 1e-12 go to no fallback, then
  to the lowest channel index), and Weitzman's closed-form upper bound
  on every policy at any n (``weitzman_bound``),
* an equal-cost scheme that gets within an additive epsilon of the
  optimum (``additive_approx``),
* price-gated mixtures that hit a target transmission rate for lightly
  loaded queues (``solve_unsaturated``),
* a brute-force oracle for small instances (``exact_dp``), and a Monte
  Carlo simulator (``simulate_saturated``, ``simulate_unsaturated``)
  to close the loop.
"""

from .additive import (
    AdditiveCertificate,
    AdditiveResult,
    CandidateBudgetExceeded,
    EpsilonOutOfRange,
    PrefixTreePolicy,
    UnequalCosts,
    additive_approx,
    best_prefix_policy,
    shifted_rewards,
)
from .core import (
    BackupProbed,
    ChannelStats,
    GainReport,
    InconsistentLeaf,
    Instance,
    InstanceValidationError,
    LevelOutOfRange,
    PolicyStructureError,
    ProbingError,
    RepeatedProbe,
    UnknownChannel,
    Violation,
    blind_backup_reward,
    evaluate_policy,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    round_floats,
    save_instance,
    validate_instance,
)
from .generate import (
    COST_REGIMES,
    PROB_SHAPES,
    GenSpec,
    counterexample_instance,
    generate,
)
from .lagrange import (
    BracketNotFound,
    CutSearchStalled,
    DegenerateBound,
    MixedPolicy,
    MultiplierPair,
    RateBracket,
    RateOutOfRange,
    candidate_thresholds,
    find_rate_bracket,
    select_multiplier_pair,
    solve_unsaturated,
)
from .multi_state import (
    ThresholdPolicy,
    _require_object,
    best_reserve_backup,
    check_policy_invariants,
    probe_levels,
    reserve_backup_policy,
    weitzman_bound,
)
from .oracle import (
    DecisionTree,
    MixCertificate,
    OracleOptions,
    OracleResult,
    RateConstrainedBound,
    TooLarge,
    altered_optimum,
    dual_certificate,
    exact_dp,
    rate_constrained_optimum,
    tree_to_dot,
)
from .simulator import (
    BernoulliArrivals,
    MarkovArrivals,
    SaturatedArrivals,
    SimConfig,
    SimReport,
    simulate_saturated,
    simulate_unsaturated,
)
from .two_state import (
    TwoStateRequired,
    _exhaust_from_dict,
    probe_set,
    two_state_opt,
)

__version__ = "0.1.0"

# legacy "exhaust" documents load as one-level threshold policies
_POLICY_KINDS = {
    "threshold": ThresholdPolicy.from_dict,
    "exhaust": _exhaust_from_dict,
    "prefix-tree": PrefixTreePolicy.from_dict,
    "mixed": MixedPolicy.from_dict,
    "decision-tree": DecisionTree.from_dict,
}


def policy_from_dict(data: dict, instance: Instance | None = None):
    """Rebuild any serialized policy from its ``kind`` tag."""
    _require_object(data)
    kind = data.get("kind")
    load = _POLICY_KINDS.get(kind)
    if load is None:
        raise ProbingError(f"unknown policy kind {kind!r}")
    return load(data, instance)
