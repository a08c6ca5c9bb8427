"""Serving a queue instead of a firehose.

A sender with packets arriving at rate lam cannot just maximize
per-slot gain; it must also transmit often enough to keep the backlog
finite.  The planner mixes two priced policies so busy slots transmit
at rate lam * (1 + slack), then a Monte Carlo run checks the queue
actually settles where the arithmetic says it should.
"""

import argparse

import probeopt as po


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rate", type=float, default=0.5)
    ap.add_argument("--slack", type=float, default=0.05)
    ap.add_argument("--slots", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    inst = po.generate(po.GenSpec(n=6, state_count=3), args.seed)
    mix = po.solve_unsaturated(inst, args.rate, args.slack)

    print(f"arrivals at {args.rate}, transmit target {mix.effective_rate:.4f}")
    print(f"mixture: alpha={mix.alpha:.4f} between two policies optimal "
          f"at price {mix.multiplier_low:.4f} ({mix.construction})")
    print(f"  busy-slot transmit prob {mix.transmit_prob:.6f}")
    print(f"  busy-slot gain          {mix.busy_slot_gain:.6f}")
    print(f"  predicted busy fraction {mix.busy_fraction:.4f}")
    print(f"  steady-state gain       {mix.steady_state_gain:.6f}")

    cfg = po.SimConfig(slots=args.slots, replications=8, seed=args.seed)
    sim = po.simulate_unsaturated(inst, mix, cfg)
    print(f"\nsimulated {cfg.replications} runs of {cfg.slots} slots:")
    print(f"  busy fraction {sim.busy_fraction:.4f}")
    print(f"  mean backlog  {sim.mean_queue:.2f} packets")
    print(f"  throughput    {sim.throughput:.4f} (arrivals all get served)")
    print(f"  gain per slot {sim.mean_gain:.6f} "
          f"+- {2 * sim.se_gain:.6f} (2 se)")


if __name__ == "__main__":
    main()
