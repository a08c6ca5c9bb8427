"""Command line front end.

Subcommands: ``gen`` writes random instances, ``check`` validates
instance files, ``solve`` runs one of the three solvers, ``oracle``
runs the exact small-instance search, ``simulate`` replays a saved
policy against Monte Carlo draws.  All output is JSON; reports round
floats to 12 significant digits, generated instances keep them exact.

Exit codes: 0 on success, 2 for unusable input (bad files, failed
validation, out-of-range parameters, a solver asked to run on an
instance outside its contract), 3 when a solver gives up at run time
(search budget exceeded, no positive gain to calibrate against, rate
bracket missing).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

from . import policy_from_dict
from .additive import CandidateBudgetExceeded, additive_approx
from .core import (
    InstanceValidationError,
    ProbingError,
    _refuse_constant,
    evaluate_policy,
    instance_from_dict,
    instance_to_dict,
    round_floats,
)
from .generate import COST_REGIMES, PROB_SHAPES, GenSpec, generate
from .lagrange import (
    BracketNotFound,
    CutSearchStalled,
    MixedPolicy,
    solve_unsaturated,
)
from .multi_state import best_reserve_backup
from .oracle import OracleOptions, TooLarge, exact_dp, tree_to_dot
from .simulator import (
    BernoulliArrivals,
    MarkovArrivals,
    SaturatedArrivals,
    SimConfig,
    simulate_saturated,
    simulate_unsaturated,
)

INPUT_ERROR = 2
SOLVER_ERROR = 3

_GIVE_UP = (TooLarge, CandidateBudgetExceeded, BracketNotFound, CutSearchStalled)


class _CliError(Exception):
    def __init__(self, message: str, code: int = INPUT_ERROR):
        super().__init__(message)
        self.code = code


def _emit(obj, path: str | None) -> None:
    _write(round_floats(obj), path)


def _write(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path and path != "-":
        _write_file(path, text)
    else:
        sys.stdout.write(text)


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc.strerror or exc}")


def _load(path: str):
    try:
        return instance_from_dict(_read_json(path))
    except InstanceValidationError as exc:
        raise _CliError(f"{path}: {exc}")


def _read_json(path: str) -> dict:
    """Parse a UTF-8 JSON file; ``NaN``/``Infinity`` tokens raise an
    InstanceValidationError with a "non-finite" violation."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except FileNotFoundError:
        raise _CliError(f"no such file: {path}")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: not valid JSON ({exc})")
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8 text ({exc})")


# -- subcommands --------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise _CliError(f"--count must be at least 1, got {args.count}")
    try:
        spec = GenSpec(
            n=args.channels,
            state_count=args.states,
            prob_shape=args.prob_shape,
            cost_regime=args.cost_regime,
            cost_range=(args.cost_lo, args.cost_hi),
            top_reward_one=args.top_reward_one,
        )
    except ValueError as exc:
        raise _CliError(str(exc))
    import numpy as np

    rng = np.random.default_rng(args.seed)
    dicts = [instance_to_dict(generate(spec, rng)) for _ in range(args.count)]
    # exact floats: rounding can push a probability sum past PROB_TOL
    _write(dicts[0] if args.count == 1 else dicts, args.output)
    return 0


def _cmd_check(args) -> int:
    results = []
    for path in args.instances:
        try:
            instance_from_dict(_read_json(path))
        except InstanceValidationError as exc:
            results.append(
                {
                    "file": path,
                    "ok": False,
                    "violations": [asdict(v) for v in exc.violations],
                }
            )
        except (_CliError, ProbingError) as exc:
            results.append({"file": path, "ok": False, "error": str(exc)})
        else:
            results.append({"file": path, "ok": True})
    _emit(results, args.output)
    return 0 if all(r["ok"] for r in results) else INPUT_ERROR


def _cmd_solve(args) -> int:
    inst = _load(args.instance)
    names = inst.names
    if args.mode == "saturated":
        policy = best_reserve_backup(inst, args.threshold)
        report = evaluate_policy(inst, policy, altered_threshold=args.threshold)
        out = {
            "mode": "saturated",
            "policy": policy.to_dict(names),
            "report": report.as_dict(),
        }
    elif args.mode == "additive":
        result = additive_approx(
            inst, args.epsilon, max_candidates=args.max_candidates
        )
        out = {
            "mode": "additive",
            "policy": result.policy.to_dict(names),
            "report": result.report.as_dict(),
            "certificate": asdict(result.certificate),
        }
    else:
        if args.rate is None:
            raise _CliError("--rate is required for --mode unsaturated")
        mixed = solve_unsaturated(inst, args.rate, args.slack)
        out = {
            "mode": "unsaturated",
            "policy": mixed.to_dict(names),
            "report": {
                "busy_slot_gain": mixed.busy_slot_gain,
                "steady_state_gain": mixed.steady_state_gain,
                "busy_fraction": mixed.busy_fraction,
                "transmit_prob": mixed.transmit_prob,
            },
        }
    _emit(out, args.output)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    options = OracleOptions(
        altered_threshold=args.threshold,
        allow_no_transmit=not args.forbid_silence,
        tie_preference=args.tie_preference,
        max_channels=args.max_channels,
    )
    result = exact_dp(inst, options)
    tree = result.tree
    out = {
        "value": result.value,
        "transmit_prob": result.transmit_prob,
        "tree": tree.to_dict(),
        "probes_worst_case": tree.depth(),
    }
    if args.dot:
        _write_file(args.dot, tree_to_dot(tree))
        out["dot"] = args.dot
    _emit(out, args.output)
    return 0


def _parse_arrivals(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "saturated":
            return SaturatedArrivals()
        if kind == "bernoulli":
            return BernoulliArrivals(float(rest))
        if kind == "markov":
            q01, q10 = (float(x) for x in rest.split(","))
            return MarkovArrivals(q01, q10)
    except (ValueError, ProbingError) as exc:
        raise _CliError(f"bad --arrivals value {text!r}: {exc}")
    raise _CliError(f"unknown arrival process {kind!r}")


def _cmd_simulate(args) -> int:
    inst = _load(args.instance)
    data = _read_json(args.policy)
    if isinstance(data, dict) and "kind" not in data and "policy" in data:
        data = data["policy"]
    try:
        policy = policy_from_dict(data, inst)
    except (ProbingError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"{args.policy}: not a usable policy ({exc})")
    config = SimConfig(
        slots=args.slots,
        replications=args.replications,
        seed=args.seed,
        arrivals=_parse_arrivals(args.arrivals) if args.arrivals else None,
        threads=SimConfig().threads if args.threads is None else args.threads,
    )
    if args.queue:
        if not isinstance(policy, MixedPolicy):
            raise _CliError("--queue needs a mixed (unsaturated) policy")
        report = simulate_unsaturated(inst, policy, config)
        arrival_rate = config.arrivals.rate if config.arrivals else policy.arrival_rate
        # a stable queue serves what arrives, an overloaded one sends
        # at the policy's busy-slot rate
        gain = policy.busy_slot_gain
        transmit = min(arrival_rate, policy.transmit_prob)
    else:
        report = simulate_saturated(inst, policy, config)
        exact = evaluate_policy(inst, policy)
        gain, transmit = exact.gain, exact.transmit_prob
    # busy-slot figures: the standard error of busy_gain is
    # se_gain / busy_fraction, and every slot is busy without a queue
    se = report.se_gain
    out = {
        **report.to_dict(),
        "analytic_gain": gain,
        "analytic_transmit": transmit,
        "z_gain": (
            (report.busy_gain - gain) * report.busy_fraction / se if se > 0.0 else None
        ),
    }
    _emit(out, args.output)
    return 0


# -- wiring -------------------------------------------------------------


# built once per process: parsing never mutates the parser, and each
# parse_args call returns a fresh Namespace
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probeopt",
        description="probing/selection policies for multichannel transmission",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random instances")
    p.add_argument("-n", "--channels", type=int, required=True)
    p.add_argument("-K", "--states", type=int, default=2)
    p.add_argument("--prob-shape", choices=PROB_SHAPES, default="uniform")
    p.add_argument("--cost-regime", choices=COST_REGIMES, default="heterogeneous")
    p.add_argument("--cost-lo", type=float, default=0.0)
    p.add_argument("--cost-hi", type=float, default=0.3)
    p.add_argument(
        "--top-reward-one",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="pin the best state's reward to 1",
    )
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="validate instance files")
    p.add_argument("instances", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="build a policy for an instance")
    p.add_argument("instance")
    p.add_argument(
        "--mode",
        choices=("saturated", "additive", "unsaturated"),
        default="saturated",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="saturated mode: charge per transmission",
    )
    p.add_argument("--epsilon", type=float, default=0.1, help="additive mode")
    p.add_argument("--max-candidates", type=int, default=10**8, help="additive mode")
    p.add_argument("--rate", type=float, default=None, help="unsaturated mode")
    p.add_argument("--slack", type=float, default=0.05)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    p.add_argument("instance")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--forbid-silence", action="store_true")
    p.add_argument(
        "--tie-preference",
        choices=("default", "prefer-backup", "prefer-silent", "prefer-transmit"),
        default="default",
    )
    p.add_argument("--max-channels", type=int, default=14)
    p.add_argument("--dot", default=None, help="also write a graphviz file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="Monte Carlo replay of a saved policy")
    p.add_argument("instance")
    p.add_argument("--policy", required=True, help="policy JSON (or solve output)")
    p.add_argument("--slots", type=int, default=100_000)
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument(
        "--queue",
        action="store_true",
        help="feed a queue and idle on empty slots (mixed policies only)",
    )
    p.add_argument(
        "--arrivals",
        default=None,
        help="queue arrivals: saturated, bernoulli:RATE, or markov:Q01,Q10",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except _GIVE_UP as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except ProbingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
