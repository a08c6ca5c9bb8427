"""In-memory spans around calls into probeopt, and the per-layer numbers
derived from them.

A :class:`Tracer` replaces chosen public functions with timing wrappers at
module-attribute level, in every ``probeopt`` module that holds them, so a
call that one module makes into another (``lagrange`` calling
``best_reserve_backup``, ``oracle`` calling ``exact_dp``) is a span too.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back.

A span is ``[name, layer, start, end, parent, op, attrs]``.  ``op`` is the
benchmark operation that was running (``None`` outside operations, for
example during gate checks; such spans are written out but never counted).
A span's self time is its duration minus the durations of its direct
children; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

NAME, LAYER, START, END, PARENT, OP, ATTRS = range(7)

# Layers whose self time and call counts are reported, in call-graph order.
LAYERS = (
    "core",
    "multi_state",
    "two_state",
    "lagrange",
    "oracle",
    "additive",
    "simulator",
    "cli",
)


def _price(args, kwargs):
    price = args[1] if len(args) > 1 else kwargs.get("threshold")
    return {"price": price}


def _evaluations(span, out):
    span[ATTRS] = {"evaluations": out.evaluations}


def _candidates(span, out):
    span[ATTRS] = {"candidates": out.certificate.candidates}


def _keep_tree(span, out):
    # counted after the run, so the walk costs no traced time
    span[ATTRS] = {"tree": out}


# (layer, attribute, attrs-from-arguments, attrs-from-result)
FUNCTIONS = (
    ("core", "evaluate_policy", None, None),
    ("core", "load_instance", None, None),
    ("core", "validate_instance", None, None),
    ("multi_state", "best_reserve_backup", _price, None),
    ("two_state", "two_state_opt", None, None),
    ("lagrange", "solve_unsaturated", None, None),
    ("lagrange", "find_rate_bracket", None, None),
    ("lagrange", "select_multiplier_pair", None, None),
    ("oracle", "exact_dp", None, None),
    ("oracle", "altered_optimum", None, None),
    ("oracle", "rate_constrained_optimum", None, _evaluations),
    ("oracle", "dual_certificate", None, None),
    ("additive", "additive_approx", None, _candidates),
    ("simulator", "simulate_saturated", None, None),
    ("simulator", "simulate_unsaturated", None, None),
    ("generate", "generate", None, None),
    ("cli", "main", None, None),
)


class Tracer:
    """Records spans for calls into probeopt while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[str, int, dict]] = []  # op id -> (kind, round, attrs)
        self._stack: list[int] = []
        self._op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str, layer: str, attrs=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), 0.0, parent, self._op, attrs])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str, round_index: int, attrs: dict) -> int:
        self._op = len(self.ops)
        self.ops.append((kind, round_index, attrs))
        return self.begin(f"bench.{kind}", "bench")

    def end_op(self, sid: int) -> None:
        self.end(sid)
        self._op = None

    def wrap(self, fn, name: str, layer: str, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name, layer, pre(args, kwargs) if pre else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if post is not None:
                post(tracer.spans[sid], out)
            return out

        return traced

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "probeopt" or name.startswith("probeopt.")
        ]
        for layer, attr, pre, post in FUNCTIONS:
            original = getattr(importlib.import_module(f"probeopt.{layer}"), attr)
            wrapper = self.wrap(original, f"{layer}.{attr}", layer, pre, post)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

        simulator = importlib.import_module("probeopt.simulator")
        draw = simulator.MarkovArrivals.draw
        self._patch(
            simulator.MarkovArrivals,
            "draw",
            self.wrap(draw, "simulator.MarkovArrivals.draw", "simulator"),
        )

        oracle = importlib.import_module("probeopt.oracle")
        tree = oracle.OracleResult.__dict__["tree"]
        traced_tree = functools.cached_property(
            self.wrap(
                tree.func,
                "oracle.tree",
                "oracle",
                post=_keep_tree,
            )
        )
        traced_tree.__set_name__(oracle.OracleResult, "tree")
        self._patch(oracle.OracleResult, "tree", traced_tree)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- output -----------------------------------------------------------

    def write(self, path, header: dict) -> None:
        spans = [
            {
                "id": i,
                "name": s[NAME],
                "layer": s[LAYER],
                "start": s[START],
                "end": s[END],
                "parent": s[PARENT],
                "op": s[OP],
                "attrs": s[ATTRS],
            }
            for i, s in enumerate(self.spans)
        ]
        ops = [
            {"id": i, "kind": kind, "round": rnd, "attrs": attrs}
            for i, (kind, rnd, attrs) in enumerate(self.ops)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "ops": ops, "spans": spans}, fh)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to the call it wraps (best of
    ``repeats`` timings of ``calls`` calls, traced and bare)."""

    def noop():
        return None

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - t0)
        return min(times)

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop", "bench")
    tracer.begin_op("calibrate", -1, {})
    return max(best(traced) - best(noop), 0.0) / calls


def _tree_nodes(tree) -> int:
    count, stack = 0, [tree.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(getattr(node, "children", ()))
    return count


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class SpanIndex:
    """The spans of one traced run, grouped for the per-layer metrics."""

    def __init__(self, tracer: Tracer, rounds: int):
        self.tracer = tracer
        self.rounds = range(rounds)
        spans = tracer.spans
        self.kind = {}  # span id -> op kind
        self.round = {}  # span id -> round index (negative: set-up)
        self.children: dict[int, list[int]] = {}
        for sid, s in enumerate(spans):
            if s[OP] is None:
                continue
            kind, rnd, _ = tracer.ops[s[OP]]
            self.kind[sid] = kind
            self.round[sid] = rnd
            self.children.setdefault(s[PARENT], []).append(sid)

    def dur(self, sid: int) -> float:
        s = self.tracer.spans[sid]
        return s[END] - s[START]

    def self_time(self, sid: int) -> float:
        return self.dur(sid) - sum(self.dur(c) for c in self.children.get(sid, ()))

    def ancestors(self, sid: int):
        parent = self.tracer.spans[sid][PARENT]
        while parent >= 0:
            yield parent
            parent = self.tracer.spans[parent][PARENT]

    def named(self, name: str, outermost: bool = False) -> list[int]:
        spans = self.tracer.spans
        out = [sid for sid in self.round if spans[sid][NAME] == name]
        if outermost:
            out = [
                sid for sid in out
                if all(spans[a][NAME] != name for a in self.ancestors(sid))
            ]
        return out

    def under(self, sids, ancestor_name: str) -> list[int]:
        spans = self.tracer.spans
        return [
            sid for sid in sids
            if any(spans[a][NAME] == ancestor_name for a in self.ancestors(sid))
        ]

    def per_round(self, sids, value) -> float:
        """Median over measured rounds of the per-round sum of ``value``."""
        totals = dict.fromkeys(self.rounds, 0.0)
        for sid in sids:
            if self.round[sid] in totals:
                totals[self.round[sid]] += value(sid)
        return _median(list(totals.values()))

    def in_rounds(self, sids) -> list[int]:
        return [sid for sid in sids if self.round[sid] >= 0]


def layer_metrics(tracer: Tracer, rounds: int, span_seconds: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    ``*_s`` metrics are seconds per measured round inside the outermost
    calls of that function (child calls included), median over rounds.
    ``*_ms`` metrics are the median duration of one call.  ``<layer>.self_s``
    and ``<layer>.calls`` are that layer's self time and call count per
    round.  A layer the workload never calls reports 0.
    """
    ix = SpanIndex(tracer, rounds)
    spans = tracer.spans
    out: dict[str, tuple[float, str]] = {}

    def one(sid):
        return 1.0

    def attr(key):
        # a call that raised never recorded its result attributes
        return lambda sid: (spans[sid][ATTRS] or {}).get(key, 0)

    def inclusive(name, kinds=None):
        sids = ix.named(name, outermost=True)
        if kinds is not None:
            sids = [sid for sid in sids if ix.kind[sid] in kinds]
        return ix.per_round(sids, ix.dur)

    def call_ms(name):
        return _median([ix.dur(s) * 1e3 for s in ix.in_rounds(ix.named(name))])

    out["core.evaluate_policy_s"] = (inclusive("core.evaluate_policy"), "s")
    out["core.load_instance_ms"] = (call_ms("core.load_instance"), "ms")
    out["core.validate_instance_ms"] = (call_ms("core.validate_instance"), "ms")

    brb = ix.named("multi_state.best_reserve_backup")
    out["multi_state.best_reserve_backup_s"] = (
        inclusive("multi_state.best_reserve_backup"), "s"
    )
    out["multi_state.best_reserve_backup_calls"] = (ix.per_round(brb, one), "count")
    out["two_state.two_state_opt_ms"] = (call_ms("two_state.two_state_opt"), "ms")

    solves = ix.in_rounds(ix.named("lagrange.solve_unsaturated"))
    prices: dict[int, list] = {}
    for sid in brb:
        solve = next(
            (a for a in ix.ancestors(sid) if spans[a][NAME] == "lagrange.solve_unsaturated"),
            None,
        )
        if solve is not None and ix.round[solve] >= 0:
            prices.setdefault(solve, []).append(spans[sid][ATTRS]["price"])
    searches = sum(len(p) for p in prices.values())
    repeated = sum(len(p) - len(set(p)) for p in prices.values())
    out["lagrange.solve_unsaturated_s"] = (inclusive("lagrange.solve_unsaturated"), "s")
    out["lagrange.find_rate_bracket_s"] = (inclusive("lagrange.find_rate_bracket"), "s")
    out["lagrange.select_multiplier_pair_s"] = (
        inclusive("lagrange.select_multiplier_pair"), "s"
    )
    out["lagrange.searches_per_solve"] = (
        searches / len(solves) if solves else 0.0, "count"
    )
    out["lagrange.repeated_price_share"] = (
        repeated / searches if searches else 0.0, "ratio"
    )

    bounds = ix.in_rounds(ix.named("oracle.rate_constrained_optimum"))
    certs = ix.in_rounds(ix.named("oracle.dual_certificate"))
    cert_dp = ix.under(ix.in_rounds(ix.named("oracle.exact_dp")), "oracle.dual_certificate")
    for s in spans:
        if s[NAME] == "oracle.tree" and "tree" in (s[ATTRS] or {}):
            s[ATTRS] = {"nodes": _tree_nodes(s[ATTRS]["tree"])}
    out["oracle.exact_dp_s"] = (inclusive("oracle.exact_dp"), "s")
    out["oracle.tree_s"] = (inclusive("oracle.tree"), "s")
    out["oracle.tree_nodes"] = (
        ix.per_round(ix.named("oracle.tree"), attr("nodes")), "count"
    )
    out["oracle.rate_constrained_optimum_s"] = (
        inclusive("oracle.rate_constrained_optimum"), "s"
    )
    out["oracle.dp_solves_per_bound"] = (
        _median([attr("evaluations")(sid) for sid in bounds]), "count"
    )
    out["oracle.dual_certificate_s"] = (inclusive("oracle.dual_certificate"), "s")
    out["oracle.certificate_dp_solves"] = (
        len(cert_dp) / len(certs) if certs else 0.0, "count"
    )

    additive = ix.named("additive.additive_approx")
    out["additive.additive_approx_s"] = (inclusive("additive.additive_approx"), "s")
    out["additive.candidates"] = (ix.per_round(additive, attr("candidates")), "count")

    sat = "simulator.simulate_saturated"
    unsat = "simulator.simulate_unsaturated"
    out["simulator.saturated_threshold_s"] = (inclusive(sat, {"threshold"}), "s")
    out["simulator.saturated_blind_s"] = (inclusive(sat, {"blind"}), "s")
    out["simulator.unsaturated_bernoulli_s"] = (inclusive(unsat, {"bernoulli"}), "s")
    out["simulator.unsaturated_markov_s"] = (inclusive(unsat, {"markov"}), "s")
    out["simulator.markov_draw_s"] = (inclusive("simulator.MarkovArrivals.draw"), "s")
    for kind in ("decision-tree", "prefix-tree"):
        sids = [sid for sid in ix.in_rounds(ix.named(sat)) if ix.kind[sid] == kind]
        slots = sum(tracer.ops[spans[sid][OP]][2]["slots"] for sid in sids)
        per_slot = sum(ix.dur(sid) for sid in sids) / slots * 1e6 if slots else 0.0
        out[f"simulator.{kind.replace('-', '_')}_us_per_slot"] = (per_slot, "us")

    setups = {}
    for sid in ix.named("generate.generate"):
        if ix.round[sid] < 0:
            setups[ix.round[sid]] = setups.get(ix.round[sid], 0.0) + ix.dur(sid)
    out["generate.generate_s"] = (_median(list(setups.values())), "s")

    for cmd in ("check", "solve", "solve_unsaturated", "oracle", "simulate"):
        ops = ix.in_rounds(ix.named(f"bench.cli.{cmd.replace('_', '-')}"))
        out[f"cli.{cmd}_ms"] = (_median([ix.dur(s) * 1e3 for s in ops]), "ms")

    for layer in LAYERS:
        sids = [sid for sid in ix.in_rounds(ix.round) if spans[sid][LAYER] == layer]
        out[f"{layer}.self_s"] = (ix.per_round(sids, ix.self_time), "s")
        out[f"{layer}.calls"] = (ix.per_round(sids, one), "count")

    out["trace.overhead_s"] = (
        ix.per_round(list(ix.round), lambda sid: span_seconds), "s"
    )
    return out
