"""Brute-force reference solver over complete decision trees.

The state of any probing policy is (set of channels probed so far, best
state observed so far); rewards are monotone in the state index, so only
the best observation matters for what follows.  The solver tabulates the
optimal continuation value over all ``2^n * (K + 1)`` such states,
exactly, in one pass over popcount layers from the full mask down (a
probe adds one channel, so a layer reads only the layer above, and each
step of a layer is one numpy expression).  The same pass fills, for
each tie preference it is given, an action table holding the action
that preference takes in each state, and the probability that the tree
it describes transmits; an explicit optimal decision tree is then built
from an action table on demand, one node object per distinct subtree,
and checked against the table's value.  Every use of a tree that
follows its paths (evaluation, the rule check, depth, the simulator's
node tables) reads one walk, ``DecisionTree._walk``, which checks the
game rules as it goes.
Exponential in the channel count, so it refuses instances wider than
``OracleOptions.max_channels``.

Options restrict the policy class (which channels may serve as unprobed
backups, whether the slot may end silent, a channel barred from probing)
so the structured solvers can be checked for optimality within their
claimed class, not just for a good value.  A per-transmission charge
(``altered_threshold``) turns the objective into the one the
rate-limited machinery in :mod:`probeopt.lagrange` optimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache

import numpy as np

from .core import (
    BackupProbed,
    GainReport,
    InconsistentLeaf,
    Instance,
    PolicyStructureError,
    ProbingError,
    RepeatedProbe,
    UnknownChannel,
    evaluate_policy,
)
from .lagrange import _Cut, _search
from .multi_state import _integer, _kink_price

__all__ = [
    "TooLarge",
    "InconsistentOptions",
    "ExtractionDrift",
    "InfeasibleRate",
    "OracleOptions",
    "OracleResult",
    "Probe",
    "TransmitProbed",
    "TransmitBackup",
    "NoTransmit",
    "DecisionTree",
    "exact_dp",
    "altered_optimum",
    "rate_constrained_optimum",
    "RateConstrainedBound",
    "dual_certificate",
    "MixCertificate",
    "tree_to_dot",
]

# Two action values within this absolute slack count as tied; the tie
# preference then decides which one the extracted tree takes.
TIE_TOL = 1e-12

# A mixture certificate holds when its gain is within this of the bound.
GAP_TOL = 1e-6

_RANKS = {
    "default": {"transmit": 0, "backup": 1, "silent": 2, "probe": 3},
    "prefer-backup": {"backup": 0, "transmit": 1, "silent": 2, "probe": 3},
    "prefer-silent": {"silent": 0, "transmit": 1, "backup": 2, "probe": 3},
    "prefer-transmit": {"transmit": 0, "backup": 1, "probe": 2, "silent": 3},
}


class TooLarge(ProbingError):
    """Instance exceeds the exponential solver's size cap."""


class InconsistentOptions(ProbingError):
    """The option set leaves some reachable state with no legal action."""


class ExtractionDrift(ProbingError):
    """An extracted tree does not attain the value of its table."""


class InfeasibleRate(ProbingError):
    """Transmission rate outside the open interval (0, 1)."""


@dataclass(frozen=True)
class OracleOptions:
    """Policy-class restrictions for :func:`exact_dp`.

    allowed_backups
        Channels that may be transmitted without probing.  ``None``
        means all of them, an empty tuple forbids unprobed
        transmissions entirely.
    forbidden_probe
        A channel the policy must never probe (used to carve out the
        reserve-a-backup class).
    allow_no_transmit
        Whether ending the slot with no transmission is legal.
    altered_threshold
        Charge per transmission, subtracted from the reward of every
        transmit action.  ``None`` means no charge.
    tie_preference
        Which action an extracted tree takes when several are optimal
        to within ``TIE_TOL``.  One of "default" (transmit probed, then
        backup, then silent, then probe), "prefer-backup",
        "prefer-silent", "prefer-transmit".
    max_channels
        The most channels :func:`exact_dp` takes (default 14); its
        tables hold all 2^n probed sets, so a wider one raises TooLarge.
    """

    altered_threshold: float | None = None
    allow_no_transmit: bool = True
    allowed_backups: tuple[int, ...] | None = None
    forbidden_probe: int | None = None
    tie_preference: str = "default"
    max_channels: int = 14

    def __post_init__(self) -> None:
        if self.tie_preference not in _RANKS:
            raise InconsistentOptions(
                f"tie_preference must be one of {sorted(_RANKS)}"
            )
        if self.altered_threshold is not None and not math.isfinite(
            self.altered_threshold
        ):
            raise InconsistentOptions(
                "altered_threshold must be a finite number, "
                f"got {self.altered_threshold}"
            )
        if self.max_channels < 1:
            raise InconsistentOptions(
                f"max_channels must be >= 1, got {self.max_channels}"
            )
        if self.allowed_backups is not None:
            object.__setattr__(
                self, "allowed_backups", tuple(int(j) for j in self.allowed_backups)
            )


# -- decision tree nodes ------------------------------------------------


@dataclass(frozen=True)
class Probe:
    channel: int
    children: tuple  # one subtree per observed state, length K


@dataclass(frozen=True)
class TransmitProbed:
    channel: int
    state: int


@dataclass(frozen=True)
class TransmitBackup:
    channel: int


@dataclass(frozen=True)
class NoTransmit:
    pass


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """An explicit probing policy: internal nodes probe, leaves settle
    the slot.  Channels are stored as 0-based indices; ``names`` (when
    present) gives their external labels for serialization."""

    root: object
    state_count: int
    n: int
    names: tuple[str, ...] | None = None

    # -- the walk -------------------------------------------------------

    def _walk(self, instance: Instance | None = None):
        """Every path of the tree, depth first, the last state's child
        first.  Yields ``(node, parent, probed)``: the node, the walk
        position of its parent probe (-1 at the root) and the
        ``(channel, state)`` pairs probed on the way there.  Checks the
        game rules as it goes, against ``instance`` when one is given:
        channels in range, none probed twice, one child per state, a
        probed send naming a channel and state its path observed, a
        backup never probed."""
        k, n = self.state_count, self.n
        if instance is not None:
            if k != instance.state_count:
                raise PolicyStructureError(
                    f"tree has {k} states, the instance {instance.state_count}"
                )
            n = min(n, instance.n)
        stack = [(self.root, -1, (), 0)]  # the last item masks the probed
        push = stack.append
        pos = 0
        while stack:
            node, parent, probed, mask = stack.pop()
            if isinstance(node, Probe):
                j, children = node.channel, node.children
                if not 0 <= j < n:
                    raise UnknownChannel(f"probe of channel index {j}")
                if mask >> j & 1:
                    raise RepeatedProbe(f"channel {j} probed twice on one path")
                if len(children) != k:
                    raise InconsistentLeaf(
                        f"probe node needs {k} children, got {len(children)}"
                    )
                below = mask | 1 << j
                for s in range(k):
                    push((children[s], pos, (*probed, (j, s)), below))
            elif isinstance(node, TransmitProbed):
                if (node.channel, node.state) not in probed:
                    raise InconsistentLeaf(
                        f"send of channel {node.channel} in state {node.state}, "
                        f"which its path did not observe"
                    )
            elif isinstance(node, TransmitBackup):
                if not 0 <= node.channel < n:
                    raise UnknownChannel(f"backup channel index {node.channel}")
                if mask >> node.channel & 1:
                    raise BackupProbed(
                        f"channel {node.channel} probed, then used blind"
                    )
            elif not isinstance(node, NoTransmit):
                raise InconsistentLeaf(f"unknown node {node!r}")
            yield node, parent, probed
            pos += 1

    def _gain_report(self, instance: Instance, altered_threshold=None) -> GainReport:
        probs = instance.probs
        # Python floats multiply as numpy's do, and index faster
        cols, costs = probs.T.tolist(), instance.costs.tolist()
        mass = np.zeros(instance.state_count)
        cost = 0.0
        reach = []  # by walk position
        for node, parent, probed in self._walk(instance):
            p = 1.0
            if parent >= 0:
                # a state the probed channel never shows ends the path
                j, s = probed[-1]
                w = cols[j][s]
                p = reach[parent] * w if w > 0.0 else 0.0
            reach.append(p)
            if not p:
                continue
            if isinstance(node, Probe):
                cost += p * costs[node.channel]
            elif isinstance(node, TransmitProbed):
                mass[node.state] += p
            elif isinstance(node, TransmitBackup):
                mass += p * probs[:, node.channel]
        return GainReport.assemble(instance, mass, cost, altered_threshold)

    # -- structure ------------------------------------------------------

    def validate(self, instance: Instance | None = None) -> None:
        """Check the game rules on every path (see ``_walk``)."""
        for _ in self._walk(instance):
            pass

    def depth(self) -> int:
        """The most probes on one path."""
        return max(len(probed) for _, _, probed in self._walk())

    # -- serialization --------------------------------------------------

    def _name(self, j: int) -> str:
        return self.names[j] if self.names else str(j + 1)

    def to_dict(self) -> dict:
        def enc(node):
            if isinstance(node, Probe):
                return {
                    "probe": self._name(node.channel),
                    "children": [enc(c) for c in node.children],
                }
            if isinstance(node, TransmitProbed):
                return {
                    "transmit": {"channel": self._name(node.channel), "state": node.state}
                }
            if isinstance(node, TransmitBackup):
                return {"backup": self._name(node.channel)}
            return {"silent": True}

        return {
            "kind": "decision-tree",
            "state_count": self.state_count,
            "channels": [self._name(j) for j in range(self.n)],
            "root": enc(self.root),
        }

    @classmethod
    def from_dict(cls, data: dict, instance: Instance | None = None) -> "DecisionTree":
        """Load a document, checked against ``instance`` when one is
        given.  A node must probe, transmit, send a backup or say
        ``"silent": true``."""
        names = tuple(data["channels"])
        if instance is not None:
            index = {name: instance.index_of(name) for name in names}
            names_out = instance.names
            n = instance.n
        else:
            index = {name: j for j, name in enumerate(names)}
            names_out = names
            n = len(names)

        def dec(node):
            if not isinstance(node, dict):
                raise PolicyStructureError(f"tree node {node!r} is not an object")
            if "probe" in node:
                return Probe(
                    channel=index[node["probe"]],
                    children=tuple(dec(c) for c in node["children"]),
                )
            if "transmit" in node:
                t = node["transmit"]
                return TransmitProbed(
                    channel=index[t["channel"]], state=_integer(t["state"], "state")
                )
            if "backup" in node:
                return TransmitBackup(channel=index[node["backup"]])
            if node.get("silent") is True:
                return NoTransmit()
            raise PolicyStructureError(f"unknown tree node {node!r}")

        tree = cls(
            root=dec(data["root"]),
            state_count=_integer(data["state_count"], "state_count"),
            n=n,
            names=names_out,
        )
        if instance is not None:
            tree.validate(instance)
        return tree


def tree_to_dot(tree: DecisionTree) -> str:
    """Graphviz source for a decision tree, one node per line."""
    lines = ["digraph policy {", "  node [shape=box, fontname=monospace];"]
    counter = [0]

    def emit(node) -> str:
        nid = f"n{counter[0]}"
        counter[0] += 1
        if isinstance(node, Probe):
            lines.append(f'  {nid} [label="probe {tree._name(node.channel)}"];')
            for s, child in enumerate(node.children):
                cid = emit(child)
                lines.append(f'  {nid} -> {cid} [label="{s}"];')
        elif isinstance(node, TransmitProbed):
            lines.append(
                f'  {nid} [label="send {tree._name(node.channel)} '
                f'(state {node.state})", shape=ellipse];'
            )
        elif isinstance(node, TransmitBackup):
            lines.append(
                f'  {nid} [label="send {tree._name(node.channel)} blind", '
                f"shape=ellipse];"
            )
        else:
            lines.append(f'  {nid} [label="no transmission", shape=ellipse];')
        return nid

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- the tabulation -----------------------------------------------------

# Codes of the closing actions in the action table; a probe of channel
# j is stored as j itself, and _NONE marks a state with no legal action.
_TRANSMIT, _BACKUP, _SILENT, _NONE = -1, -2, -3, -4

# Largest number of child values one step of the layered pass gathers;
# a layer's masks are split into steps of that size, so the temporaries
# stay bounded whatever n is.
_CHUNK = 1 << 13


def _check_options(instance: Instance, options: OracleOptions) -> None:
    n = instance.n
    if n > options.max_channels:
        raise TooLarge(
            f"{n} channels exceeds the cap of {options.max_channels}; "
            "this solver is exponential in the channel count"
        )
    if options.forbidden_probe is not None and not 0 <= options.forbidden_probe < n:
        raise UnknownChannel(f"forbidden_probe index {options.forbidden_probe}")
    if options.allowed_backups is not None:
        for j in options.allowed_backups:
            if not 0 <= j < n:
                raise UnknownChannel(f"backup index {j}")
    probe_able = n - (1 if options.forbidden_probe is not None else 0)
    backups = (
        instance.n if options.allowed_backups is None else len(options.allowed_backups)
    )
    if probe_able == 0 and backups == 0 and not options.allow_no_transmit:
        raise InconsistentOptions(
            "nothing may be probed, no backup is allowed, and the slot "
            "may not stay silent; no policy exists"
        )


@lru_cache(maxsize=16)
def _lattice(n: int):
    """The subset lattice of n channels.  Kept per channel count, so
    instances of different shapes take turns without rebuilding it; a
    lattice doubles with every channel (0.84 MB at n = 14), so all the
    counts kept take under twice the largest one's memory.

    ``order`` lists the masks by popcount, ascending mask within a
    popcount, and ``pos`` inverts it.  For every (mask, free channel)
    pair, mask by mask in ``order``, ``jj`` holds the channel and
    ``kid`` the ``order`` position of the child the probe leads to.
    ``who`` holds each mask's candidate codes (its free channels, then
    transmit, backup and silent), and ``rows`` row numbers.
    """
    size = 1 << n
    free = (np.arange(size)[:, None] >> np.arange(n)) & 1 == 0
    nfree = free.sum(axis=1)
    order = np.argsort(-nfree, kind="stable")
    pos = np.empty(size, dtype=np.intp)
    pos[order] = np.arange(size)
    # a pair's code sits at the pair's own index plus three places for
    # every earlier mask
    row, jj = np.nonzero(free[order])
    kid = pos[order[row] | (1 << jj)].astype(np.min_scalar_type(size))
    jj = jj.astype(np.int8)
    ends = np.cumsum(nfree[order] + 3)
    who = np.empty(ends[-1], dtype=np.int8)
    who[np.arange(jj.size) + 3 * row] = jj
    who[ends[:, None] + np.arange(-3, 0)] = (_TRANSMIT, _BACKUP, _SILENT)
    rows = np.arange(min(size, _CHUNK))[:, None]
    # every caller shares these arrays and the views cut from them
    for arr in (order, pos, jj, kid, who, rows):
        arr.flags.writeable = False
    return order, pos, jj, kid, who, rows


@lru_cache(maxsize=64)
def _steps(n: int, k: int):
    """The lattice cut into the steps of a layered pass over K states,
    from the full mask down to the empty one, kept per shape (views
    into the lattice, so they take little memory).  A step ``(lo, hi,
    f, jj, kid, who, rows)`` covers the masks at ``order[lo:hi]``, all
    with f free channels: their slices of the lattice's arrays (``who``
    one row per mask) and the step's row numbers."""
    _, _, jj, kid, who, rows = _lattice(n)
    steps = []
    for c in range(n, -1, -1):
        f = n - c
        # the layer's first row, and the pairs of all the rows before it
        start = sum(math.comb(n, i) for i in range(c))
        first = sum(math.comb(n, i) * (n - i) for i in range(c)) - start * f
        step = max(1, _CHUNK // (2 * (k + 1) * k * f or 1))
        for lo in range(start, start + math.comb(n, c), step):
            hi = min(lo + step, start + math.comb(n, c))
            a, b = first + lo * f, first + hi * f
            who_at = who[a + 3 * lo : b + 3 * hi].reshape(hi - lo, f + 3)
            steps.append((lo, hi, f, jj[a:b], kid[a:b], who_at, rows[: hi - lo]))
    return tuple(steps)


@cache
def _columns(n: int, k: int, preferences: tuple):
    """The column layout of a pass over n channels and K states that
    reads the given tie preferences: K + 1 value columns, then a block
    of K + 1 transmit-probability columns per preference.
    ``m_idx[b, s]`` is the child's column after state s is seen with
    best column b, in every block.  Per preference, ``reads`` holds its
    rank of each candidate code (the n probes, then transmit, backup
    and silent) and its block, as a slice and as column numbers."""
    w = k + 1
    child = np.maximum.outer(np.arange(-1, k), np.arange(k)) + 1
    m_idx = np.concatenate([child + i * w for i in range(len(preferences) + 1)])
    m_idx.flags.writeable = False
    reads = []
    for i, preference in enumerate(preferences, 1):
        r = _RANKS[preference]
        rank = np.array(
            [r["probe"]] * n + [r["transmit"], r["backup"], r["silent"]], dtype=np.int8
        )
        rank.flags.writeable = False
        reads.append((rank, slice(i * w, (i + 1) * w), np.arange(i * w, (i + 1) * w)))
    return m_idx, tuple(reads)


def _tabulate(instance: Instance, options: OracleOptions, preferences: tuple):
    """Fill the value and action tables in one pass over popcount
    layers, from the full mask down to the empty one.

    ``V[mask, bidx]`` is the best continuation value with ``mask``
    probed and best observation ``bidx - 1`` (index 0 means nothing
    seen).  V does not depend on how ties break, so one pass serves
    every tie preference in ``preferences``: for each, ``A[mask,
    bidx]`` is the action that preference takes there and S (kept only
    during the pass) that action's transmit probability: 1 on a send,
    0 on silence, the children's average of that preference's own S on
    a probe.  Every child of a layer's mask lies in the layer above, so
    each step prices all of its (mask, free channel) pairs at once.
    Returns ``(V, ((A, S[0, 0]), ...))``, one pair per preference.
    """
    n, k = instance.n, instance.state_count
    w = k + 1
    cols = (len(preferences) + 1) * w  # V, then each preference's S
    probs = instance.probs  # (K, n)
    rewards = instance.rewards
    x = 0.0 if options.altered_threshold is None else float(options.altered_threshold)
    allowed = (
        tuple(range(n)) if options.allowed_backups is None else options.allowed_backups
    )
    order, pos, *_ = _lattice(n)
    m_idx, reads = _columns(n, k, preferences)

    # best blind reward among still-unprobed allowed backups, per mask
    bb = np.full(1, -np.inf)
    for j in range(n):
        free = np.maximum(bb, instance.blind_rewards[j]) if j in allowed else bb
        bb = np.concatenate([free, bb])
    backup = (bb - x)[order][:, None]

    # the closing candidates: transmit, backup (filled per step), silent
    closing = np.zeros((cols, 3))
    closing[0, 0] = -np.inf
    closing[1:w, 0] = rewards - x
    if not options.allow_no_transmit:
        closing[:w, 2] = -np.inf
    closing[w:, :2] = 1.0
    # a step with f free channels ranks its candidates by rank[n - f:];
    # each preference reads and writes its own block of S columns and
    # fills its own action table, rows in ``order``
    reads = [(*read, np.empty((1 << n, w), dtype=np.int8)) for read in reads]
    unranked = np.int8(len(_RANKS))
    # a barred probe costs infinitely much, so it is never picked
    price = instance.costs
    if options.forbidden_probe is not None:
        price = price.copy()
        price[options.forbidden_probe] = np.inf

    VS = np.empty((1 << n, cols))  # V, then the S blocks, rows in ``order``
    for lo, hi, f, jj, kid, who, rows in _steps(n, k):
        # (mask, bidx or an S column, candidate): f probes, then closing
        cand = np.empty((hi - lo, cols, f + 3))
        cand[:, :, f:] = closing
        cand[:, :w, f + 1] = backup[lo:hi]
        if f:
            gath = VS[kid][:, m_idx]  # (pairs, cols, K)
            vals = np.einsum("fbs,sf->fb", gath, probs[:, jj])
            vals[:, :w] -= price[jj][:, None]
            cand[:, :, :f] = vals.reshape(-1, f, cols).transpose(0, 2, 1)
        best = cand[:, :w].max(axis=2)
        # the tied candidate of lowest rank; among probes the first,
        # which is the lowest channel
        tied = cand[:, :w] >= (best - TIE_TOL)[:, :, None]
        VS[lo:hi, :w] = best
        for rank, block, send_cols, A in reads:
            pick = np.where(tied, rank[n - f :], unranked).argmin(axis=2)
            VS[lo:hi, block] = cand[rows, send_cols, pick]
            A[lo:hi] = who[rows, pick]
    V = VS[pos, :w]
    dead = V == -np.inf
    out = []
    for _, block, _, A in reads:
        A = A[pos]
        A[dead] = _NONE
        out.append((A, float(VS[0, block.start])))
    return V, tuple(out)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimal value plus, on demand, an optimal decision tree.

    ``table[mask, bidx]`` is the optimal continuation value with the
    channels in ``mask`` probed and best observation ``bidx - 1`` (0:
    nothing seen yet), ``actions[mask, bidx]`` the action the tie
    preference takes there: a channel index to probe, or a negative
    code for transmit, backup or silence.  ``transmit_prob`` is the
    probability that the tree those actions describe transmits.
    """

    value: float
    instance: Instance
    options: OracleOptions
    table: np.ndarray = field(repr=False)
    actions: np.ndarray = field(repr=False)
    transmit_prob: float

    @cached_property
    def tree(self) -> DecisionTree:
        """The tree the action table describes, built from the root.  A
        node's subtree depends only on its (mask, best column, sender)
        key, so each key is built once and equal subtrees are one object.  The sender, the
        first channel on the path that showed the best state, is what a
        probed send names; a backup sends on the free allowed channel of
        highest mean (lowest index on a tie).  The tree must be worth the
        table's value, and evaluating it checks the game rules."""
        inst, opts = self.instance, self.options
        n, k = inst.n, inst.state_count
        A = self.actions
        allowed = tuple(range(n)) if opts.allowed_backups is None else opts.allowed_backups
        backups = sorted(allowed, key=lambda j: (-inst.blind_rewards[j], j))

        @cache
        def build(mask: int, bidx: int, sender: int | None):
            a = int(A[mask, bidx])
            if a >= 0:
                # a state above the best so far makes ``a`` the sender
                below = mask | 1 << a
                return Probe(
                    channel=a,
                    children=tuple(
                        build(below, max(bidx, s + 1), a if s >= bidx else sender)
                        for s in range(k)
                    ),
                )
            if a == _TRANSMIT:
                return TransmitProbed(channel=sender, state=bidx - 1)
            if a == _BACKUP:
                return TransmitBackup(
                    channel=next(j for j in backups if not (mask >> j) & 1)
                )
            if a == _SILENT:
                return NoTransmit()
            raise ExtractionDrift(f"no legal action at mask {mask}, column {bidx}")

        tree = DecisionTree(
            root=build(0, 0, None), state_count=k, n=n, names=inst.names
        )
        gain = evaluate_policy(
            inst, tree, altered_threshold=opts.altered_threshold
        ).gain
        if not abs(gain - self.value) <= 1e-9:
            raise ExtractionDrift(
                f"extracted tree is worth {gain!r}, the table {self.value!r}"
            )
        return tree


def exact_dp(instance: Instance, options: OracleOptions | None = None) -> OracleResult:
    """Optimal expected gain over every decision tree the options allow.

    ``result.value`` is exact up to float rounding and
    ``result.transmit_prob`` is read off the same pass; ``result.tree``
    is built from the action table lazily, once per distinct
    (mask, best observation, sender) key it reaches.
    """
    opts = options or OracleOptions()
    _check_options(instance, opts)
    V, ((A, transmit),) = _tabulate(instance, opts, (opts.tie_preference,))
    return OracleResult(
        value=float(V[0, 0]),
        instance=instance,
        options=opts,
        table=V,
        actions=A,
        transmit_prob=transmit,
    )


def altered_optimum(
    instance: Instance,
    threshold: float,
    *,
    tie_preference: str = "default",
) -> OracleResult:
    """Unrestricted optimum of the per-transmission-charge objective."""
    return exact_dp(
        instance,
        OracleOptions(
            altered_threshold=float(threshold),
            allow_no_transmit=True,
            tie_preference=tie_preference,
        ),
    )


# -- rate-constrained benchmark ----------------------------------------


@dataclass(frozen=True, eq=False)
class RateConstrainedBound:
    """Upper bound on the gain of any transmission-rate-``rate`` mix.

    ``value`` is the exact minimum over charges L >= 0 of the dual
    ``g(L) = L * rate + altered optimum at L``, attained at
    ``multiplier``.  ``tree_hi`` and ``tree_lo`` are optimal there and
    transmit at least and at most ``rate`` unless the minimum sits at
    an end of ``[0, max_reward]`` with no tree that reaches the rate.
    ``evaluations`` counts DP passes; the pass at the closed-form
    kink reads two tie preferences and counts once.
    """

    value: float
    multiplier: float
    rate: float
    evaluations: int
    tree_hi: DecisionTree = field(repr=False)
    tree_lo: DecisionTree = field(repr=False)


def rate_constrained_optimum(instance: Instance, rate: float) -> RateConstrainedBound:
    """Minimize the dual exactly, certified in one DP pass when it can.

    g is convex and piecewise linear with slope ``rate - transmit`` of
    the optimal tree.  One pass at L*, the minimizer of the closed-form
    dual ``weitzman_bound(L) + rate * L``, reads the prefer-transmit and
    the prefer-silent tree off one value table; trees that send at least
    and at most ``rate`` put 0 in g's subdifferential, so L* is then the
    exact minimizer whatever the closed form's accuracy.  The two trees
    seed ``lagrange._search`` (shared with ``solve_unsaturated``), with
    ends at 0 and ``max_reward``; there is no pass at L* when it lies
    outside them, as only unvalidated instances allow.  Cuts come from
    the passes' tables; only the two final trees are built.
    """
    if not 0.0 < rate < 1.0:
        raise InfeasibleRate(f"rate must lie in (0, 1), got {rate!r}")
    # the passes below do not go through exact_dp, so its checks run here
    _check_options(instance, OracleOptions())
    rmax = instance.max_reward
    evaluations = 0
    last: OracleResult | None = None

    def tabulate(L: float, *preferences: str) -> list:
        # one pass at charge L; per preference the plain gain (the
        # charged value plus the charge it paid), transmit probability
        # and result, as the cut search takes them
        nonlocal evaluations, last
        evaluations += 1
        L = float(L)
        V, reads = _tabulate(instance, OracleOptions(altered_threshold=L), preferences)
        out = []
        for preference, (A, transmit) in zip(preferences, reads):
            res = OracleResult(
                value=float(V[0, 0]),
                instance=instance,
                options=OracleOptions(altered_threshold=L, tie_preference=preference),
                table=V,
                actions=A,
                transmit_prob=transmit,
            )
            out.append((res.value + L * transmit, transmit, res))
        last = out[0][2]
        return out

    seeds = None
    if 0.0 <= (seed := _kink_price(instance, rate)) <= rmax:
        pair = tabulate(seed, "prefer-transmit", "prefer-silent")
        seeds = [_Cut(seed, *side) for side in pair]
    L, hi, lo = _search(lambda x, p: tabulate(x, p)[0], rate, seeds, 0.0, rmax)
    # g at the final price is the last pass's value
    return RateConstrainedBound(
        value=float(L * rate + last.value),
        multiplier=float(L),
        rate=float(rate),
        evaluations=evaluations,
        tree_hi=hi.payload.tree,
        tree_lo=lo.payload.tree,
    )


@dataclass(frozen=True, eq=False)
class MixCertificate:
    """A two-tree mixture meeting the rate, with its achieved gain.

    ``alpha`` of ``tree_hi`` and the rest of ``tree_lo`` transmits with
    probability ``rate`` exactly.  When ``ok`` is true its plain gain
    sits within ``gap``, at most ``GAP_TOL``, of the dual bound, so by
    weak duality both the mixture and the bound are optimal up to
    ``gap``.
    """

    ok: bool
    bound: RateConstrainedBound
    alpha: float
    tree_hi: DecisionTree | None
    tree_lo: DecisionTree | None
    transmit_hi: float
    transmit_lo: float
    gain_hi: float
    gain_lo: float
    primal_value: float
    gap: float


def dual_certificate(
    instance: Instance,
    rate: float,
    bound: RateConstrainedBound | None = None,
) -> MixCertificate:
    """Exhibit a primal mixture matching the dual bound.

    Mixes the bound's two trees, both optimal at its multiplier, so no
    DP solve happens here unless ``bound`` is omitted.  ``ok`` is false,
    with NaN fields, when their transmit probabilities do not straddle
    ``rate``.
    """
    if bound is None:
        bound = rate_constrained_optimum(instance, rate)
    g_hi = evaluate_policy(instance, bound.tree_hi)
    g_lo = evaluate_policy(instance, bound.tree_lo)
    s_hi, s_lo = g_hi.transmit_prob, g_lo.transmit_prob
    if s_lo <= rate <= s_hi:
        alpha = 1.0 if s_hi == s_lo else (rate - s_lo) / (s_hi - s_lo)
        primal = alpha * g_hi.gain + (1.0 - alpha) * g_lo.gain
        gap = bound.value - primal
        return MixCertificate(
            ok=bool(abs(gap) <= GAP_TOL),
            bound=bound,
            alpha=float(alpha),
            tree_hi=bound.tree_hi,
            tree_lo=bound.tree_lo,
            transmit_hi=float(s_hi),
            transmit_lo=float(s_lo),
            gain_hi=float(g_hi.gain),
            gain_lo=float(g_lo.gain),
            primal_value=float(primal),
            gap=float(gap),
        )
    return MixCertificate(
        ok=False,
        bound=bound,
        alpha=float("nan"),
        tree_hi=None,
        tree_lo=None,
        transmit_hi=float("nan"),
        transmit_lo=float("nan"),
        gain_hi=float("nan"),
        gain_lo=float("nan"),
        primal_value=float("nan"),
        gap=float("inf"),
    )
