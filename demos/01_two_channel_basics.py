"""Smallest interesting case: two channels, each idle or good.

Scores each fallback choice by hand so the numbers in the printed
table can be checked on paper, then confirms the search's winner
against the exhaustive oracle.  With two states the general fallback
search is exact; ``two_state_opt`` is that search after a check that
the instance has two states.
"""

import numpy as np

import probeopt as po

# channel A: often good but pricey to probe; channel B: a safer coin
inst = po.Instance.from_arrays(
    rewards=[0.0, 1.0],
    probs=np.column_stack([[0.3, 0.7], [0.5, 0.5]]),
    costs=[0.12, 0.02],
    names=("A", "B"),
)

print("instance:")
for j, name in enumerate(inst.names):
    print(
        f"  {name}: good with prob {inst.probs[1, j]:.2f}, "
        f"probe costs {inst.costs[j]:.2f}, "
        f"blind value {inst.blind_rewards[j]:.2f}"
    )

print("\nper fallback (gain of probing the worthwhile set):")
for j, name in enumerate(inst.names):
    pol = po.reserve_backup_policy(inst, j)
    listed = ", ".join(inst.names[m] for m in pol.probe_sequence()) or "nothing"
    gain = po.evaluate_policy(inst, pol).gain
    print(f"  keep {name} in hand, probe {listed}: gain {gain:.4f}")

policy = po.two_state_opt(inst)
report = po.evaluate_policy(inst, policy)
print(f"\nwinner: probe {[inst.names[j] for j in policy.probe_sequence()]}, "
      f"fall back to {inst.names[policy.backup]}")
print(f"  gain {report.gain:.4f}, transmits with prob {report.transmit_prob:.4f}")

oracle = po.exact_dp(inst)
print(f"\nexhaustive optimum: {oracle.value:.4f} "
      f"(gap {abs(oracle.value - report.gain):.1e}; "
      "the fixed-order policy is exact when states are binary)")
