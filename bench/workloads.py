"""The benchmark's four workloads.

Each workload is a closed loop: one caller issues the next operation only
after the previous one returns.  ``setup`` draws every input from the seed
(the library only ever sees the generated instances), writes any files and
warms up.  ``run_round`` issues one fixed set of operations through the
recorder and gates each result with checks cheap enough for the loop;
``finish`` runs the gate checks too costly for the loop; ``report`` turns
the recorded operation times into the workload's own metrics.

Every round works on fresh ``Instance`` objects built from the same arrays,
so per-instance caches never carry over from one round to the next.
Library calls go through module attributes at call time
(``multi_state.best_reserve_backup(...)``), so a traced run sees them.
"""

from __future__ import annotations

import importlib
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

core = importlib.import_module("probeopt.core")
gen = importlib.import_module("probeopt.generate")
multi_state = importlib.import_module("probeopt.multi_state")
two_state = importlib.import_module("probeopt.two_state")
lagrange = importlib.import_module("probeopt.lagrange")
oracle = importlib.import_module("probeopt.oracle")
additive = importlib.import_module("probeopt.additive")
simulator = importlib.import_module("probeopt.simulator")
cli = importlib.import_module("probeopt.cli")

SLACK = 0.05
# Simulated means are gated at |z| <= Z_LIMIT against the analytic value.
# Twenty replications give the standard error 19 degrees of freedom, so a
# correct simulator crosses the limit about once in 10^5 checks.
Z_LIMIT = 6.0
REPLICATIONS = 20
# Busy-fraction tolerance for queue replays, as in acceptance test 08.
BUSY_TOL = 0.02

SHAPES = gen.PROB_SHAPES
REGIMES = gen.COST_REGIMES


def fresh(inst):
    """The same instance as a new object, with every cache empty."""
    return core.Instance(rewards=inst.rewards, channels=inst.channels)


def spec(n, k, shape="uniform", regime="heterogeneous", cost_range=(0.0, 0.3)):
    return gen.GenSpec(
        n=n, state_count=k, prob_shape=shape, cost_regime=regime, cost_range=cost_range
    )


def roundtrip_gain(inst, policy):
    """Gain of ``policy`` after a trip through its JSON form."""
    back = multi_state.ThresholdPolicy.from_dict(policy.to_dict(inst.names), inst)
    return core.evaluate_policy(inst, back).gain


class Workload:
    name = ""

    def __init__(self, sizes=None, workdir=None):
        self.sizes = sizes or self.Sizes()
        self.workdir = Path(workdir) if workdir else None

    def setup(self, seed: int):
        raise NotImplementedError

    def run_round(self, state, rec) -> None:
        raise NotImplementedError

    def finish(self, state, rec) -> None:
        """Gate checks run once, after the measured rounds."""

    def close(self) -> None:
        """Release what ``setup`` created."""

    def report(self, rec) -> dict:
        raise NotImplementedError

    def same_as_first(self, rec, state, key, value) -> None:
        """Gate: an operation repeated on the same input gives the same result."""
        first = state.first.setdefault(key, value)
        rec.check(f"{key}: same result as round 0", lambda: value == first)


# -- plan-large ----------------------------------------------------------


@dataclass(frozen=True)
class PlanSizes:
    saturated: tuple = ((2000, 16), (1000, 16))
    two_state_n: int = 2000
    queue: tuple = ((500, 8), (200, 8))
    rate: float = 0.5


class PlanLarge(Workload):
    """A few large instances through the fallback search and the
    rate-limited solve."""

    name = "plan-large"
    Sizes = PlanSizes
    SATURATED = ("saturated", "two-state", "k2-search")

    def setup(self, seed):
        s = self.sizes
        rng = np.random.default_rng([seed, 1])
        state = SimpleNamespace(
            saturated=[gen.generate(spec(n, k), rng) for n, k in s.saturated],
            k2=gen.generate(spec(s.two_state_n, 2), rng),
            queue=[gen.generate(spec(n, k), rng) for n, k in s.queue],
            first={},
        )
        warm = gen.generate(spec(20, 4), rng)
        self._plan(warm)
        lagrange.solve_unsaturated(warm, s.rate, SLACK)
        two_state.two_state_opt(gen.generate(spec(20, 2), rng))
        return state

    @staticmethod
    def _plan(inst):
        policy = multi_state.best_reserve_backup(inst)
        report = core.evaluate_policy(inst, policy)
        return policy, report, policy.to_dict(inst.names)

    @staticmethod
    def _gain(inst, solve):
        return core.evaluate_policy(inst, solve(inst)).gain

    def run_round(self, state, rec):
        for i, base in enumerate(state.saturated):
            inst = fresh(base)
            out = rec.op("saturated", self._plan, inst, n=inst.n)
            if out is not None:
                policy, report, doc = out
                key = f"saturated[{i}] n={inst.n}"
                rec.check(
                    f"{key}: stored policy re-evaluates to its reported gain",
                    lambda: abs(roundtrip_gain(inst, policy) - report.gain) <= 1e-12,
                )
                rec.check(
                    f"{key}: level-list invariants",
                    lambda: multi_state.check_policy_invariants(policy, inst) is None,
                )
                self.same_as_first(rec, state, key, (report.gain, json.dumps(doc)))

        inst = fresh(state.k2)
        exact = rec.op("two-state", self._gain, inst, two_state.two_state_opt, n=inst.n)
        inst = fresh(state.k2)
        search = rec.op("k2-search", self._gain, inst, multi_state.best_reserve_backup, n=inst.n)
        if exact is not None and search is not None:
            rec.check(
                f"K=2 n={inst.n}: two_state_opt gain equals the fallback search gain",
                lambda: abs(exact - search) <= 1e-9,
            )
            self.same_as_first(rec, state, "k2", (exact, search))

        for i, base in enumerate(state.queue):
            inst = fresh(base)
            mix = rec.op(
                "queue", lagrange.solve_unsaturated, inst, self.sizes.rate, SLACK, n=inst.n
            )
            if mix is not None:
                key = f"queue[{i}] n={inst.n}"
                self.check_mixture(rec, key, inst, mix)
                self.same_as_first(rec, state, key, (mix.busy_slot_gain, mix.alpha))

    @staticmethod
    def check_mixture(rec, key, inst, mix):
        eff = mix.effective_rate
        rec.check(
            f"{key}: mixture transmit_prob equals the effective rate",
            lambda: abs(mix.transmit_prob - eff) <= 1e-12,
        )
        rec.check(
            f"{key}: multiplier pair straddles the rate",
            lambda: mix.s_minus >= eff - 1e-12 and mix.s_plus <= eff + 1e-12,
        )
        rec.check(
            f"{key}: evaluated mixture matches its stored figures",
            lambda: (
                abs(core.evaluate_policy(inst, mix).transmit_prob - eff) <= 1e-9
                and abs(core.evaluate_policy(inst, mix).gain - mix.busy_slot_gain) <= 1e-9
            ),
        )

    def report(self, rec):
        sat = rec.round_seconds(self.SATURATED)
        queue = rec.round_seconds(("queue",))
        return {"saturated_plan_s": (sat, "s"), "queue_plan_s": (queue, "s")}


# -- sweep-small ---------------------------------------------------------


def _sweep_cells():
    # A fixed mix of sizes, so only the numbers change with the seed.  One
    # instance each at n=9 and n=10 (K=2): there the dual bound's ~42 DP
    # solves cost about a second, and more of them would crowd out the
    # per-call overhead this workload is meant to show.
    small = [(n, k) for n in (3, 4, 5, 6) for k in (2, 3, 4)]
    return tuple(small * 2 + [(7, 2), (7, 3), (7, 4), (8, 2), (8, 3), (8, 4), (9, 2), (10, 2)])


@dataclass(frozen=True)
class SweepSizes:
    cells: tuple = _sweep_cells()  # (n, K) per instance
    rate: float = 0.5
    epsilon: float = 0.1
    additive_max_n: int = 6


class SweepSmall(Workload):
    """Many small instances through the exact verification flow of
    acceptance tests 03/07 and demo 03."""

    name = "sweep-small"
    Sizes = SweepSizes

    def setup(self, seed):
        rng = np.random.default_rng([seed, 2])
        cases = []
        for i, (n, k) in enumerate(self.sizes.cells):
            regime = REGIMES[i % len(REGIMES)]
            shape = SHAPES[(i // len(REGIMES)) % len(SHAPES)]
            inst = gen.generate(spec(n, k, shape, regime), rng)
            with_additive = regime == "equal" and n <= self.sizes.additive_max_n
            cases.append((inst, with_additive))
        self._flow(gen.generate(spec(4, 3, regime="equal", cost_range=(0.15, 0.3)), rng), True)
        return SimpleNamespace(cases=cases, first={})

    def _flow(self, inst, with_additive):
        s = self.sizes
        policy = multi_state.best_reserve_backup(inst)
        report = core.evaluate_policy(inst, policy)
        exact = oracle.exact_dp(inst)
        tree = exact.tree
        mix = lagrange.solve_unsaturated(inst, s.rate, SLACK)
        bound = oracle.rate_constrained_optimum(inst, mix.effective_rate)
        cert = oracle.dual_certificate(inst, mix.effective_rate, bound)
        approx = additive.additive_approx(inst, s.epsilon) if with_additive else None
        return policy, report, exact, tree, mix, bound, cert, approx

    def run_round(self, state, rec):
        eps = self.sizes.epsilon
        for i, (base, with_additive) in enumerate(state.cases):
            inst = fresh(base)
            out = rec.op("instance", self._flow, inst, with_additive, n=inst.n)
            if out is None:
                continue
            policy, report, exact, tree, mix, bound, cert, approx = out
            opt = exact.value
            key = f"instance[{i}] n={inst.n} K={inst.state_count}"
            rec.check(f"{key}: policy gain <= oracle value", lambda: report.gain <= opt + 1e-9)
            rec.check(
                f"{key}: policy gain / oracle value >= 4/5",
                lambda: opt <= 1e-12 or report.gain / opt >= 0.8 - 1e-9,
            )
            rec.check(
                f"{key}: stored policy re-evaluates to its reported gain",
                lambda: abs(roundtrip_gain(inst, policy) - report.gain) <= 1e-12,
            )
            rec.check(
                f"{key}: extracted tree attains the oracle value",
                lambda: abs(core.evaluate_policy(inst, tree).gain - opt) <= 1e-9,
            )
            rec.check(
                f"{key}: mixture transmit_prob equals the effective rate",
                lambda: abs(mix.transmit_prob - mix.effective_rate) <= 1e-12,
            )
            rec.check(
                f"{key}: mixture busy-slot gain <= dual bound",
                lambda: mix.busy_slot_gain <= bound.value + 1e-9,
            )
            rec.check(f"{key}: dual certificate ok", lambda: bool(cert.ok))
            if approx is not None:
                rec.check(
                    f"{key}: additive gain >= oracle - eps * r_max",
                    lambda: approx.report.gain >= opt - eps * inst.max_reward - 1e-9,
                )
            self.same_as_first(
                rec, state, key, (report.gain, opt, mix.busy_slot_gain, bound.value)
            )

    def report(self, rec):
        per_round = rec.round_seconds(("instance",))
        rate = len(self.sizes.cells) / per_round if per_round else 0.0
        return {"sweep_instances_per_s": (rate, "1/s")}


# -- replay --------------------------------------------------------------


@dataclass(frozen=True)
class ReplaySizes:
    narrow: tuple = (8, 4)
    wide: tuple = (32, 8)
    prefix: tuple = (6, 4)  # equal-cost instance for the additive prefix tree
    narrow_slots: int = 25_000  # per replication
    wide_slots: int = 12_500
    tree_slots: int = 2_500
    rate: float = 0.4  # the mean rate of markov:0.2,0.3


class Replay(Workload):
    """Monte Carlo replay of every policy kind the simulator accepts."""

    name = "replay"
    Sizes = ReplaySizes
    VECTORIZED = ("threshold", "blind", "bernoulli", "markov")
    TREES = ("decision-tree", "prefix-tree")

    def setup(self, seed):
        s = self.sizes
        rng = np.random.default_rng([seed, 3])
        narrow = gen.generate(spec(*s.narrow), rng)
        wide = gen.generate(spec(*s.wide), rng)
        # probes must cost more than eps * r_max for the coarsened scheme
        prefix = gen.generate(spec(*s.prefix, regime="equal", cost_range=(0.12, 0.3)), rng)
        paths = []  # (kind, instance, policy, arrivals, slots per replication, analytic)
        for inst, slots in ((narrow, s.narrow_slots), (wide, s.wide_slots)):
            best = multi_state.best_reserve_backup(inst)
            blind = multi_state.ThresholdPolicy(
                backup=int(np.argmax(inst.blind_rewards)), threshold=None, levels=()
            )
            mix = lagrange.solve_unsaturated(inst, s.rate, SLACK)
            for kind, policy, arrivals in (
                ("threshold", best, None),
                ("blind", blind, None),
                ("bernoulli", mix, None),
                ("markov", mix, simulator.MarkovArrivals(0.2, 0.3)),
            ):
                if isinstance(policy, lagrange.MixedPolicy):
                    analytic = policy.busy_slot_gain
                else:
                    analytic = core.evaluate_policy(inst, policy).gain
                paths.append((kind, inst, policy, arrivals, slots, analytic))
        tree = oracle.exact_dp(narrow).tree
        approx = additive.additive_approx(prefix, 0.1)
        if not isinstance(approx.policy, additive.PrefixTreePolicy):
            raise RuntimeError("additive scheme did not return a prefix tree")
        for kind, inst, policy in (
            ("decision-tree", narrow, tree),
            ("prefix-tree", prefix, approx.policy),
        ):
            analytic = core.evaluate_policy(inst, policy).gain
            paths.append((kind, inst, policy, None, s.tree_slots, analytic))
        for kind, inst, policy, arrivals, _, _ in paths:
            self._simulate(kind, fresh(inst), policy, arrivals, 500, seed)
        return SimpleNamespace(paths=paths, seed=seed, first={})

    @staticmethod
    def _simulate(kind, inst, policy, arrivals, slots, seed):
        config = simulator.SimConfig(
            slots=slots, replications=REPLICATIONS, seed=seed, arrivals=arrivals, threads=1
        )
        if kind in ("bernoulli", "markov"):
            return simulator.simulate_unsaturated(inst, policy, config)
        return simulator.simulate_saturated(inst, policy, config)

    def run_round(self, state, rec):
        for i, (kind, base, policy, arrivals, slots, analytic) in enumerate(state.paths):
            inst = fresh(base)
            sim = rec.op(
                kind,
                self._simulate,
                kind,
                inst,
                policy,
                arrivals,
                slots,
                state.seed + i,
                n=inst.n,
                slots=slots * REPLICATIONS,
            )
            if sim is None:
                continue
            key = f"{kind}[{i}] n={inst.n}"
            if kind in ("bernoulli", "markov"):
                bf = sim.busy_fraction
                rec.check(
                    f"{key}: busy fraction near 1 / (1 + slack)",
                    lambda: abs(bf - 1.0 / (1.0 + SLACK)) <= BUSY_TOL,
                )
                rec.check(
                    f"{key}: simulated busy-slot gain within |z| <= {Z_LIMIT}",
                    lambda: abs(sim.busy_gain - analytic) <= Z_LIMIT * sim.se_gain / bf,
                )
            else:
                rec.check(
                    f"{key}: simulated gain within |z| <= {Z_LIMIT}",
                    lambda: abs(sim.mean_gain - analytic) <= Z_LIMIT * sim.se_gain,
                )
            self.same_as_first(rec, state, key, sim.rep_gains)

    def report(self, rec):
        out = {}
        for metric, kinds in (
            ("sim_slots_per_s", self.VECTORIZED),
            ("tree_sim_slots_per_s", self.TREES),
        ):
            slots = sum(
                a["slots"] for rnd, _, kind, _, a in rec.ops if rnd == 0 and kind in kinds
            )
            per_round = rec.round_seconds(kinds)
            out[metric] = (slots / per_round if per_round else 0.0, "1/s")
        return out


# -- cli -----------------------------------------------------------------


@dataclass(frozen=True)
class CliSizes:
    documents: int = 40
    sim_slots: int = 2_000  # per replication
    sim_replications: int = 5
    rate: float = 0.5


def run_cli(argv):
    """``probeopt.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Cli(Workload):
    """The command line front end run in-process over small documents."""

    name = "cli"
    Sizes = CliSizes

    def setup(self, seed):
        s = self.sizes
        work = self.workdir
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        rng = np.random.default_rng([seed, 4])
        docs = []
        commands = []  # (kind, argv, document index)
        for i in range(s.documents):
            n, k = 3 + i % 4, 2 + (i // 4) % 3
            inst = gen.generate(
                spec(n, k, SHAPES[i % len(SHAPES)], REGIMES[(i // 3) % len(REGIMES)]), rng
            )
            path = str(work / f"instance-{i}.json")
            policy_path = str(work / f"policy-{i}.json")
            core.save_instance(inst, path)
            policy = multi_state.best_reserve_backup(inst)
            with open(policy_path, "w", encoding="utf-8") as fh:
                json.dump(policy.to_dict(inst.names), fh)
            docs.append((path, policy_path))
            sim = [
                "--slots", str(s.sim_slots), "--replications", str(s.sim_replications),
                "--seed", str(seed + i), "--threads", "1",
            ]
            commands += [
                ("cli.check", ["check", path], i),
                ("cli.solve", ["solve", path], i),
                ("cli.solve-unsaturated",
                 ["solve", path, "--mode", "unsaturated", "--rate", str(s.rate)], i),
                ("cli.oracle", ["oracle", path], i),
                ("cli.simulate", ["simulate", path, "--policy", policy_path, *sim], i),
            ]
        for kind, argv, i in commands[:5]:
            run_cli(argv)
        return SimpleNamespace(docs=docs, commands=commands, seed=seed, first={})

    def run_round(self, state, rec):
        for j, (kind, argv, i) in enumerate(state.commands):
            out = rec.op(kind, run_cli, argv, document=i)
            if out is None:
                continue
            code, text = out
            key = f"{kind} document {i}"
            rec.check(f"{key}: exit code 0", lambda: code == 0)
            self.same_as_first(rec, state, j, text)

    def finish(self, state, rec):
        """Compare round 0's CLI output with the library's own results."""
        for j, (kind, argv, i) in enumerate(state.commands):
            text = state.first.get(j)
            if text is None:
                continue
            path, policy_path = state.docs[i]
            key = f"{kind} document {i}"
            rec.check(f"{key}: JSON matches the library", lambda: self._matches(
                kind, json.loads(text), path, policy_path, state.seed + i
            ))

    def _matches(self, kind, out, path, policy_path, sim_seed):
        s = self.sizes
        inst = core.load_instance(path)
        if kind == "cli.check":
            return out == [{"file": path, "ok": True}]
        if kind == "cli.solve":
            policy = multi_state.best_reserve_backup(inst)
            gain = core.evaluate_policy(inst, policy).gain
            return (
                out["policy"] == core.round_floats(policy.to_dict(inst.names))
                and abs(out["report"]["gain"] - gain) <= 1e-9
            )
        if kind == "cli.solve-unsaturated":
            mix = lagrange.solve_unsaturated(inst, s.rate, SLACK)
            rep = out["report"]
            return (
                abs(rep["transmit_prob"] - mix.effective_rate) <= 1e-9
                and abs(rep["busy_slot_gain"] - mix.busy_slot_gain) <= 1e-9
            )
        if kind == "cli.oracle":
            exact = oracle.exact_dp(inst)
            return (
                abs(out["value"] - exact.value) <= 1e-9
                and out["probes_worst_case"] == exact.tree.depth()
            )
        with open(policy_path, encoding="utf-8") as fh:
            policy = multi_state.ThresholdPolicy.from_dict(json.load(fh), inst)
        config = simulator.SimConfig(
            slots=s.sim_slots, replications=s.sim_replications, seed=sim_seed, threads=1
        )
        sim = simulator.simulate_saturated(inst, policy, config)
        return abs(out["mean_gain"] - sim.mean_gain) <= 1e-9

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def report(self, rec):
        times = rec.op_times()
        return {
            "cmd_p50_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
            "cmd_p90_ms": (1e3 * float(np.percentile(times, 90)), "ms"),
            "cmd_samples": (len(times), "count"),
        }


WORKLOADS = {w.name: w for w in (PlanLarge, SweepSmall, Replay, Cli)}
