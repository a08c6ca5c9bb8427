"""Shared test machinery.

Two jobs live here.  First, deterministic instance draws keyed by a
single integer so every test file can sweep seeds without sharing rng
state.  Second, slow reference evaluators that re-derive policy values
straight from the slot rules with plain Python loops over all K^n
state assignments, through slot-by-slot walkers of every policy kind
that the simulator's vectorized outcomes are also checked against.
They deliberately share no code with the package's vectorized algebra,
so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import importlib
import itertools
import math
from types import SimpleNamespace

import numpy as np

import probeopt as po
from probeopt.core import PROB_TOL
from probeopt.oracle import Probe, TransmitBackup, TransmitProbed


def draw_instance(
    seed: int,
    n_lo: int = 1,
    n_hi: int = 8,
    k_lo: int = 2,
    k_hi: int = 4,
    prob_shape: str | None = None,
    cost_regime: str | None = None,
    cost_range: tuple[float, float] = (0.0, 0.3),
) -> po.Instance:
    """One deterministic instance per seed, cycling generator knobs."""
    g = np.random.default_rng(seed)
    n = int(g.integers(n_lo, n_hi + 1))
    k = int(g.integers(k_lo, k_hi + 1))
    spec = po.GenSpec(
        n=n,
        state_count=k,
        prob_shape=prob_shape or po.PROB_SHAPES[seed % len(po.PROB_SHAPES)],
        cost_regime=cost_regime or po.COST_REGIMES[seed % len(po.COST_REGIMES)],
        cost_range=cost_range,
    )
    return po.generate(spec, g)


def restricted_oracle_value(instance: po.Instance, backup: int | None) -> float:
    """Exact optimum of the reserve-a-fallback class.

    The fallback is the only legal unprobed transmission and may never
    itself be probed.  The no-fallback sentinel forbids unprobed
    transmission entirely; stopping silent stays legal there, and with
    the bottom reward pinned at zero a forced-transmission reading
    prices identically.
    """
    if backup is None:
        opts = po.OracleOptions(allowed_backups=())
    else:
        opts = po.OracleOptions(allowed_backups=(backup,), forbidden_probe=backup)
    return po.exact_dp(instance, opts).value


# -- slow evaluation ----------------------------------------------------


def iter_assignments(n: int, k: int):
    return itertools.product(range(k), repeat=n)


def assignment_weight(instance: po.Instance, states) -> float:
    w = 1.0
    for j, s in enumerate(states):
        w *= float(instance.probs[s, j])
    return w


def _close_threshold(instance, policy, best: int | None):
    """The closing decision, restated from the documented slot rules."""
    backup = policy.backup
    blind = None if backup is None else float(instance.blind_rewards[backup])
    th = policy.threshold
    if best is None:
        if backup is None:
            return ("silent",)
        if th is not None and blind < th:
            return ("silent",)
        return ("backup", backup)
    r = float(instance.rewards[best])
    top = r if blind is None else max(r, blind)
    if th is not None and top < th:
        return ("silent",)
    if blind is None or r >= blind:
        return ("transmit", None, best)
    return ("backup", backup)


# -- slot walkers -------------------------------------------------------
#
# Each walker plays one slot from its channels' true states
# (``states[j]`` is channel j's) and returns ``(probed, action)``: the
# channels probed, in order, and the closing action, one of
# ``("transmit", j, s)``, ``("backup", j)`` or ``("silent",)``.


def run_threshold(instance, policy, states):
    """Hand-executed level-list walk: before each probe, stop if the
    best observation so far already reaches that probe's level."""
    best: int | None = None
    probed: list[int] = []
    for lev, chans in policy.levels:
        for ch in chans:
            if best is not None and best >= lev:
                return probed, _close_threshold(instance, policy, best)
            probed.append(ch)
            s = int(states[ch])
            if best is None or s > best:
                best = s
    return probed, _close_threshold(instance, policy, best)


def run_exhaust(probe_order, backup):
    """Two-state probe-until-on walker, independent of the level-list
    evaluator: probe in order, send the first channel found on, else
    send ``backup`` blind (or stay silent without one).  Returns the
    walker, a function of one slot's states that slow_report and
    walk_outcomes take in place of a policy."""

    def walk(states):
        probed = []
        for ch in probe_order:
            probed.append(ch)
            if states[ch] == 1:
                return probed, ("transmit", ch, 1)
        return probed, ("silent",) if backup is None else ("backup", backup)

    return walk


def run_tree(tree, states):
    """Descend a decision tree from its root, one probe at a time."""
    probed: list[int] = []
    node = tree.root
    while isinstance(node, Probe):
        probed.append(node.channel)
        node = node.children[int(states[node.channel])]
    if isinstance(node, TransmitProbed):
        return probed, ("transmit", node.channel, node.state)
    if isinstance(node, TransmitBackup):
        return probed, ("backup", node.channel)
    return probed, ("silent",)


def run_prefix(policy, states):
    """Probe the backbone until an observation reaches ``escape_min``;
    then run that escape's level lists on their own observations and
    close on their best find if it reaches ``send_min``, else on the
    escaped channel.  A backbone with no escape sends the fallback."""
    probed: list[int] = []
    for t, m in enumerate(policy.backbone):
        probed.append(m)
        s = int(states[m])
        if s < policy.escape_min:
            continue
        send_min, levels = policy.subtrees[t][s - policy.escape_min]
        # a probe runs only while the best find is below its level
        best, best_chan = -1, None
        for u, c in ((u, c) for u, mem in levels for c in mem):
            if best >= u:
                break
            probed.append(c)
            sc = int(states[c])
            if sc > best:
                best, best_chan = sc, c
        if best_chan is not None and best >= send_min:
            return probed, ("transmit", best_chan, best)
        return probed, ("transmit", m, s)
    return probed, ("backup", policy.backup)


def run_slot(instance, policy, states):
    """One slot of ``policy`` by its kind's walker; any other object is
    a walker itself, such as run_exhaust's."""
    if isinstance(policy, po.ThresholdPolicy):
        return run_threshold(instance, policy, states)
    if isinstance(policy, po.DecisionTree):
        return run_tree(policy, states)
    if isinstance(policy, po.PrefixTreePolicy):
        return run_prefix(policy, states)
    return policy(states)


def walk_outcomes(instance, policy, states):
    """(transmit, reward, cost, success) per slot of the channels-by-
    slots ``states``, one run_slot call per slot.  A path's probing
    cost is ``costs[list(probed)].sum()``."""
    slots = states.shape[1]
    r = instance.rewards
    transmit = np.zeros(slots, dtype=bool)
    reward = np.zeros(slots)
    cost = np.zeros(slots)
    success = np.zeros(slots, dtype=bool)
    for t, row in enumerate(states.T):
        probed, action = run_slot(instance, policy, row)
        cost[t] = instance.costs[list(probed)].sum() if probed else 0.0
        if action[0] == "transmit":
            s = int(action[2])
        elif action[0] == "backup":
            s = int(row[action[1]])
        else:
            continue
        transmit[t] = True
        reward[t] = r[s]
        success[t] = s >= 1
    return transmit, reward, cost, success


def slow_report(instance, policy, altered_threshold=None):
    """(gain, transmit_prob, probe_cost, state_mass) by full enumeration."""
    if isinstance(policy, po.MixedPolicy):
        a = policy.alpha
        g1, t1, c1, m1 = slow_report(
            instance, policy.policy_plus, altered_threshold
        )
        g0, t0, c0, m0 = slow_report(
            instance, policy.policy_minus, altered_threshold
        )
        return (
            a * g1 + (1 - a) * g0,
            a * t1 + (1 - a) * t0,
            a * c1 + (1 - a) * c0,
            a * m1 + (1 - a) * m0,
        )
    k, n = instance.state_count, instance.n
    mass = np.zeros(k)
    cost = 0.0
    for states in iter_assignments(n, k):
        w = assignment_weight(instance, states)
        if w == 0.0:
            continue
        probed, action = run_slot(instance, policy, states)
        assert len(set(probed)) == len(probed), "slow walker saw a repeat probe"
        cost += w * sum(float(instance.costs[j]) for j in probed)
        if action[0] == "transmit":
            mass[action[2]] += w
        elif action[0] == "backup":
            mass[int(states[action[1]])] += w
        else:
            assert action[0] == "silent"
    gain = float(mass @ instance.rewards) - cost
    tx = float(mass.sum())
    if altered_threshold is not None:
        gain -= float(altered_threshold) * tx
    return gain, tx, cost, mass


# -- the fallback search, one full evaluation per choice ----------------


def reference_search(instance, threshold=None):
    """The O(n^2 K) fallback search: build and evaluate each of the
    n + 1 policies from scratch, keeping the first strict best in
    visiting order (no fallback, then channels by index).

    Returns (fallback, objective, every objective in visiting order).
    """
    scores = [
        po.evaluate_policy(
            instance,
            po.reserve_backup_policy(instance, backup, threshold),
            altered_threshold=threshold,
        ).gain
        for backup in (None, *range(instance.n))
    ]
    i = int(np.argmax(scores))
    return (None if i == 0 else i - 1), scores[i], np.array(scores)


# -- the fallback search by composed probe stretches ---------------------


def _compose(keep, gain, lo, hi):
    """Fold each stretch ``[lo, hi)`` of the probe sequence into one
    step.  Returns (through, value): the chance that no probe in the
    stretch stops the run, and what its probes collect (``gain`` of
    each, counted only while every earlier one came up short).

    The stretch is covered by blocks of doubling width (each block's
    pair composed from two half blocks), so it costs O(log n) per
    stretch and never divides."""
    through = np.ones(lo.shape)
    value = np.zeros(lo.shape)
    at = lo.copy()
    left = np.maximum(hi - lo, 0)
    longest = int(left.max(initial=0))
    width = 1
    while width <= longest:
        if width > 1:
            half = width // 2
            keep, gain = (
                keep[:-half] * keep[half:],
                gain[:-half] + keep[:-half] * gain[half:],
            )
        use = np.flatnonzero(left & width)
        blk = at[use]
        value[use] += through[use] * gain[blk]
        through[use] *= keep[blk]
        at[use] += width
        width *= 2
    return through, value


def _leave_one_out(factors: np.ndarray) -> np.ndarray:
    """Product of all the factors but the one at each position."""
    out = np.ones_like(factors)
    np.cumprod(factors[:-1], out=out[1:])
    out[:-1] *= np.cumprod(factors[:0:-1])[::-1]
    return out


def reference_fallback_scores(instance, threshold=None):
    """Every fallback's search objective (no fallback first, then
    channels by index) by summing each policy's probes and stops.

    Channel b's policy is a prefix of the workspace's ``seq`` with b
    taken out: every level above b's floor f, then the floor level's
    channels whose score beats b's bar.  Its objective adds up
    - the probes, each earning its gain times the chance of reaching it;
    - runs that clear every level above a state v >= f and sit at v,
      with chance ``leave[v] - enter[v]`` and worth ``r_v - x`` whatever
      the fallback;
    - runs that end below f, which close on the fallback: its blind
      mean less the charge, when that pays.
    ``enter[v]`` and ``leave[v]`` are the chances that every channel
    above level v sits below v, and below v + 1.  The levels above b's
    own level are shared by its floor group.  Its own level splits into
    the stretches before and after it (:func:`_compose`).  A fallback
    above its floor also changes the entry chances of the levels down
    to the floor, which are taken one row at a time with it left out
    (:func:`_leave_one_out`).  The no-fallback choice goes through the
    exact evaluator."""
    ms = importlib.import_module("probeopt.multi_state")
    ws = ms._workspace(instance)
    k = instance.state_count
    x = 0.0 if threshold is None else float(threshold)
    r = instance.rewards
    blind = instance.blind_rewards
    bar = blind if threshold is None else np.maximum(blind, x)
    settle = blind if threshold is None else np.maximum(blind - x, 0.0)
    floor = np.searchsorted(r, bar, side="right")
    top, start, end, seq, tail = ws.top, ws.start, ws.end, ws.seq, ws.tail
    pos = np.full(instance.n, -1)
    pos[seq] = np.arange(seq.size)

    # each probe's chance of not stopping the run, and what it stops it
    # with less its cost and the charge, at its own level
    level = top[seq]
    num = np.cumsum((instance.probs * r[:, None])[::-1], axis=0)[::-1]
    keep = 1.0 - tail[level, seq]
    gain = num[level, seq] - instance.costs[seq] - x * tail[level, seq]
    enter = np.array([np.prod(1.0 - tail[v, seq[:s]]) for v, s in enumerate(start[:k])])
    leave = np.array(
        [np.prod(1.0 - tail[v + 1, seq[:s]]) for v, s in enumerate(start[:k])]
    )

    # where each fallback's probe sequence ends, one floor level at a time
    cut = np.zeros(instance.n, dtype=int)
    for f in np.flatnonzero(np.bincount(floor, minlength=k + 1)[:k]):
        mine = floor == f
        cut[mine] = ms._cut(ws, f, bar[mine])
    # the fallback's own level, where its stretch of it ends, and the
    # fallback's place in it (the stretch's end when it is not there)
    upper = top > floor
    own = np.where(upper, top, floor)
    own_end = np.where(upper, end[top], cut)
    gap = np.where(upper | ((top == floor) & (pos < cut)), pos, own_end)
    lift = np.flatnonzero(upper)

    through, value = _compose(
        keep,
        gain,
        np.concatenate([start[:k], start[own], gap + 1, start[floor[lift]]]),
        np.concatenate([end[:k], gap, own_end, cut[lift]]),
    )
    level_value, head, rest, close = np.split(
        np.stack([through, value]), np.cumsum([k, instance.n, instance.n]), axis=1
    )
    inner = head[1] + head[0] * rest[1]
    clear = head[0] * rest[0]

    # what the levels from t up earn whatever happens below: probes at
    # levels above t, and runs that end at t or higher
    entered = np.append(enter, 1.0)
    probe_rows = np.append(enter * level_value[1], 0.0)
    stop_rows = np.append((r - x) * (leave - enter), 0.0)
    upward = np.cumsum((probe_rows + stop_rows)[::-1])[::-1] - probe_rows

    out = upward[floor] + entered[floor] * (inner + settle * clear)
    if lift.size:
        low, high, at = floor[lift], top[lift], pos[lift]
        closing = close[1] + settle[lift] * close[0]
        rows = np.zeros(lift.size)
        for v in range(int(low.min()), int(high.max())):
            live = np.flatnonzero((low <= v) & (v < high))
            chans = seq[: start[v]]
            run_in = _leave_one_out(1.0 - tail[v, chans])[at[live]]
            run_on = _leave_one_out(1.0 - tail[v + 1, chans])[at[live]]
            here = np.where(low[live] == v, closing[live], level_value[1][v])
            rows[live] += (r[v] - x) * (run_on - run_in) + run_in * here
        out[lift] = upward[high] + entered[high] * inner[lift] + rows

    silent = po.evaluate_policy(
        instance,
        po.reserve_backup_policy(instance, None, threshold),
        altered_threshold=threshold,
    )
    return np.concatenate([[silent.gain], out])


# -- Weitzman's reservation values, straight from the instance ----------


def reservation_values(instance):
    """Each channel's reservation value: the root σ of
    ``sum_u p_u (r_u - σ)^+ = c``, found band by band from the top
    reward down (the left side falls as σ rises).  A free channel gets
    its highest reward in reach; a channel whose root lies below -1
    (it never pays to probe) gets -inf."""
    r = instance.rewards.tolist()
    out = []
    for j in range(instance.n):
        p = instance.probs[:, j].tolist()
        c = float(instance.costs[j])
        sigma = -math.inf
        mass = num = 0.0
        # on [r_{u-1}, r_u] the left side is num - mass * σ, summed over
        # the states from u up
        for u in range(len(r) - 1, -1, -1):
            mass += p[u]
            num += p[u] * r[u]
            if mass <= 0.0:
                continue
            root = (num - c) / mass
            low = r[u - 1] if u > 0 else -1.0
            if root > low:
                sigma = min(root, r[u])
                break
        out.append(sigma)
    return out


def weitzman_value(instance, backup: int, threshold=None) -> float:
    """The objective of Weitzman's index policy with ``backup``'s blind
    mean as outside option, at charge ``threshold`` per transmission:
    ``E[max(a, max_{j != backup} min(X_j, σ_j))] - x`` with
    ``a = max(mean, x)``, summed over the sorted support of the capped
    maximum (Kleinberg, Waggoner and Weyl's identity)."""
    x = 0.0 if threshold is None else float(threshold)
    a = max(float(instance.blind_rewards[backup]), x)
    sigma = np.array(reservation_values(instance))
    sigma[backup] = -math.inf
    r = instance.rewards
    cdf = np.cumsum(instance.probs, axis=0)
    points = sorted({a, *(t for t in r.tolist() if t > a), *(s for s in sigma if s > a)})
    total = 0.0
    below = 0.0
    for t in points:
        held = int(np.searchsorted(r, t, side="right"))
        f = cdf[held - 1] if held else np.zeros(instance.n)
        at_most = float(np.prod(np.where(sigma <= t, 1.0, f)))
        total += t * (at_most - below)
        below = at_most
    return total - x


# -- the level lists from a dense membership mask -----------------------


def mask_levels(instance, backup, threshold=None):
    """The probe lists of ``reserve_backup_policy``, built level by
    level from a K x n membership mask: channel j is a member at level
    u >= floor when its score there beats both the reward one level
    down and the bar (the larger of the fallback mean, 0 without one,
    and the threshold); it probes at its highest such level, and each
    level lists its members by descending score, ties by index."""
    probs, rewards, costs = instance.probs, instance.rewards, instance.costs
    k = instance.state_count
    tail = np.cumsum(probs[::-1], axis=0)[::-1]
    num = np.cumsum((probs * rewards[:, None])[::-1], axis=0)[::-1]
    safe = np.where(tail > 0.0, tail, 1.0)
    score = np.where(tail > 0.0, num / safe - costs[None, :] / safe, -np.inf)
    order = np.argsort(-score, axis=1, kind="stable")
    blind = 0.0 if backup is None else float(instance.blind_rewards[backup])
    bar = blind if threshold is None else max(blind, float(threshold))
    floor = int(np.searchsorted(rewards, bar, side="right"))
    gates = np.maximum(np.concatenate([[-1.0], rewards[:-1]]), bar)
    member = score > gates[:, None]
    member[:floor] = False
    if backup is not None:
        member[:, backup] = False
    level = np.where(member.any(axis=0), (k - 1) - np.argmax(member[::-1], axis=0), -1)
    return tuple(
        (u, tuple(int(j) for j in order[u] if level[j] == u))
        for u in range(k - 1, -1, -1)
        if (level == u).any()
    )


def argsort_sequence(instance):
    """The workspace's probe sequence from a full K x n argsort: each
    level's channels by descending score there, ties by index, keeping
    those whose top level (highest level whose score beats the reward
    one level down) it is; levels top first.  Returns (seq, start, end)
    with level u at ``seq[start[u]:end[u]]`` and an empty level K."""
    probs, rewards, costs = instance.probs, instance.rewards, instance.costs
    k = instance.state_count
    tail = np.cumsum(probs[::-1], axis=0)[::-1]
    num = np.cumsum((probs * rewards[:, None])[::-1], axis=0)[::-1]
    safe = np.where(tail > 0.0, tail, 1.0)
    score = np.where(tail > 0.0, num / safe - costs[None, :] / safe, -np.inf)
    order = np.argsort(-score, axis=1, kind="stable")
    clears = score > np.concatenate([[-1.0], rewards[:-1]])[:, None]
    top = np.where(clears.any(axis=0), (k - 1) - np.argmax(clears[::-1], axis=0), -1)
    seq = np.concatenate([order[u][top[order[u]] == u] for u in range(k - 1, -1, -1)])
    count = np.bincount(top[seq], minlength=k)
    end = np.cumsum(count[::-1])[::-1]
    return seq, np.append(end - count, 0), np.append(end, 0)


# -- the two-state fallback scan ------------------------------------------


def two_state_scan(instance):
    """Every fallback of an on/off instance scored in one sweep of the
    efficiency order: ascending cost per unit of success, free channels
    first by descending success probability, never-on channels last.

    Valid only for ``rewards[0] == 0``: a probe then pays iff the reward
    it adds when the fallback would be off beats its cost, so each
    fallback's probes are a prefix of that order, and a run that finds
    nothing on closes on the fallback.  Returns the gain of each
    fallback (by channel index), the first best fallback, its gain and
    its probe order.
    """
    assert instance.state_count == 2 and instance.rewards[0] == 0.0
    n = instance.n
    r1 = float(instance.rewards[1])
    p, c = instance.probs[1], instance.costs

    def key(j):
        if p[j] <= 0.0:
            return (2, 0.0, j)
        if c[j] <= 0.0:
            return (0, -p[j], j)
        return (1, c[j] / p[j], j)

    order = np.array(sorted(range(n), key=key), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0.0, c / np.where(p > 0.0, p, 1.0), np.inf)
    ps, cs = p[order], c[order]
    products = np.concatenate([[1.0], np.cumprod(1.0 - ps)])
    prefix = np.concatenate([[0.0], np.cumsum((ps * r1 - cs) * products[:-1])])
    # prefix length of the efficiency order passing each fallback's bar
    mfull = np.searchsorted(ratio[order], r1 * (1.0 - p), side="left")
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    blind = p * r1
    gains = np.empty(n)
    outside = pos >= mfull
    m = mfull[outside]
    gains[outside] = prefix[m] + blind[outside] * products[m]
    ins = ~outside
    q, m = pos[ins], mfull[ins]
    keep = 1.0 - p[ins]  # positive by validation, so the division is safe
    gains[ins] = (
        prefix[q] + (prefix[m] - prefix[q + 1]) / keep + blind[ins] * products[m] / keep
    )
    best = int(np.argmax(gains))
    return SimpleNamespace(
        channel_gains=gains,
        best=best,
        best_gain=float(gains[best]),
        best_probe_order=tuple(int(j) for j in order[: mfull[best]] if j != best),
    )


# -- brute-force optimum of the fixed-prefix class ----------------------


def prefix_class_optimum(instance, backup: int, escape_state: int) -> float:
    """Exhaustive best value over fixed-prefix policies with the given
    fallback and escape floor.

    Backbones are ordered tuples over the other channels; observations
    at or below the floor are discarded and the walk continues, an
    observation above it escapes into an optimal continuation on the
    not-yet-probed channels (the fallback included), priced by the
    restricted oracle on the shifted leftover system.  Exhausting the
    backbone transmits the fallback blind.  Only sensible at n <= 5.
    """
    n, k = instance.n, instance.state_count
    probs, r, costs = instance.probs, instance.rewards, instance.costs
    others = [j for j in range(n) if j != backup]
    blind = float(instance.blind_rewards[backup])
    esc_cache: dict = {}

    def escape_value(remaining: tuple, s: int) -> float:
        if s == k - 1 or not remaining:
            return 0.0
        key = (remaining, s)
        if key not in esc_cache:
            new_r = [0.0] + [float(r[t] - r[s]) for t in range(s + 1, k)]
            cols = []
            for j in remaining:
                base = float(probs[: s + 1, j].sum())
                cols.append([base] + [float(probs[t, j]) for t in range(s + 1, k)])
            sub = po.Instance.from_arrays(
                new_r,
                np.array(cols).T,
                [float(costs[j]) for j in remaining],
                validate=False,
            )
            esc_cache[key] = po.exact_dp(
                sub, po.OracleOptions(allowed_backups=())
            ).value
        return esc_cache[key]

    def backbone_value(perm) -> float:
        val, reach = 0.0, 1.0
        probed: list[int] = []
        for ch in perm:
            val -= reach * float(costs[ch])
            probed.append(ch)
            rem = tuple(j for j in range(n) if j not in probed)
            for s in range(escape_state + 1, k):
                p = float(probs[s, ch])
                if p > 0.0:
                    val += reach * p * (float(r[s]) + escape_value(rem, s))
            reach *= float(probs[: escape_state + 1, ch].sum())
        return val + reach * blind

    best = blind
    for size in range(1, len(others) + 1):
        for perm in itertools.permutations(others, size):
            best = max(best, backbone_value(perm))
    return best


def cut_escape_subtree(instance, remaining, escape_state: int, memo: dict):
    """The escape subtree as the additive search once priced it: one
    shifted instance over all n channels and its no-fallback level lists
    per escape state (``memo[escape_state]``), cut to ``remaining`` and
    priced by their stop profile under a zero bar.  Returns (value on
    the shifted scale, level lists in shifted states and host channel
    ids), and must agree exactly with ``reference_escape_subtree``."""
    ms = importlib.import_module("probeopt.multi_state")
    s = escape_state
    if s not in memo:
        probs = instance.probs
        sub = po.Instance.from_arrays(
            po.shifted_rewards(instance.rewards, s)[s:],
            np.vstack([probs[: s + 1].sum(axis=0), probs[s + 1 :]]),
            instance.costs,
            validate=False,
        )
        memo[s] = (sub, po.probe_levels(sub, None, 0.0), {})
    sub, levels, cuts = memo[s]
    hit = cuts.get(remaining)
    if hit is None:
        kept = ((u, tuple(c for c in mem if c in remaining)) for u, mem in levels)
        kept = tuple((u, mem) for u, mem in kept if mem)
        # with no fallback, a zero bar and no charge every stop is sent:
        # the gain is the stopped reward less the probing cost
        cost, stopped, _ = ms._stop_profile(ms._workspace(sub), kept)
        hit = cuts[remaining] = (float(stopped @ sub.rewards) - float(cost), kept)
    return hit


def reference_escape_subtree(instance, remaining, escape_state: int, cache=None):
    """The escape subtree built the long way: a sub-instance over just
    the ``remaining`` channels (in index order) on the shifted reward
    scale, its own no-fallback level-list policy under a zero bar, and
    that policy's lists mapped back to host states and channel ids
    (shifted state u is host state escape_state + u; the send floor is
    the first state past the escape).  Returns (value on the shifted
    scale, (send_min, levels)).  ``cache`` memoizes per (remaining set,
    escape state)."""
    key = (frozenset(remaining), escape_state)
    if cache is not None and key in cache:
        return cache[key]
    order = tuple(sorted(remaining))
    r = instance.rewards
    sub_rewards = np.concatenate([[0.0], r[escape_state + 1 :] - r[escape_state]])
    probs = instance.probs[:, order]
    sub_probs = np.vstack(
        [probs[: escape_state + 1].sum(axis=0), probs[escape_state + 1 :]]
    )
    sub = po.Instance.from_arrays(
        sub_rewards, sub_probs, instance.costs[list(order)], validate=False
    )
    policy = po.reserve_backup_policy(sub, None, 0.0)
    levels = tuple(
        (escape_state + u, tuple(order[c] for c in mem)) for u, mem in policy.levels
    )
    out = (float(po.evaluate_policy(sub, policy).gain), (escape_state + 1, levels))
    if cache is not None:
        cache[key] = out
    return out


def permutation_prefix_policy(
    instance, backup: int, escape_state: int, max_length=None, cache=None
):
    """The backbone search as a depth-first walk over ordered backbones,
    escapes priced by ``reference_escape_subtree`` at every prefix
    (``cache`` is its memo, never the package's).  Keeps the first
    strictly better prefix in walk order, so among ties the first
    backbone in lexicographic order wins, a prefix before its
    extensions.  Returns the policy and its value."""
    k = instance.state_count
    probs, r, costs = instance.probs, instance.rewards, instance.costs
    blind = float(probs[:, backup] @ r)
    cont = probs[: escape_state + 1].sum(axis=0)
    pool = [j for j in range(instance.n) if j != backup]
    cap = len(pool) if max_length is None else min(max_length, len(pool))
    everything = frozenset(range(instance.n))
    cache = {} if cache is None else cache
    found = SimpleNamespace(val=-np.inf, backbone=())

    def escape_value(m: int, remaining: frozenset) -> float:
        total = 0.0
        for s in range(escape_state + 1, k):
            p = probs[s, m]
            if p > 0.0:
                sub_val = reference_escape_subtree(instance, remaining, s, cache)[0]
                total += p * (r[s] + sub_val)
        return total

    def walk(acc: float, reach: float, used: frozenset, prefix: tuple) -> None:
        val = acc + reach * blind
        if val > found.val:
            found.val, found.backbone = val, prefix
        if len(prefix) == cap or reach <= 0.0:
            return
        for m in pool:
            if m not in used:
                taken = used | {m}
                esc = escape_value(m, everything - taken)
                walk(
                    acc + reach * (esc - costs[m]),
                    reach * float(cont[m]),
                    taken,
                    prefix + (m,),
                )

    walk(0.0, 1.0, frozenset(), ())
    subtrees = []
    for t in range(len(found.backbone)):
        rest = everything.difference(found.backbone[: t + 1])
        subtrees.append(
            tuple(
                reference_escape_subtree(instance, rest, s, cache)[1]
                for s in range(escape_state + 1, k)
            )
        )
    policy = po.PrefixTreePolicy(
        backup=backup,
        escape_min=escape_state + 1,
        backbone=found.backbone,
        subtrees=tuple(subtrees),
    )
    return policy, float(found.val)


# -- the oracle's table and tree, one mask at a time --------------------


def reference_table(instance, options=None):
    """The oracle's value table filled one mask at a time, in
    descending popcount order: V[mask, bidx] is the best continuation
    value with ``mask`` probed and best observation ``bidx - 1``."""
    opts = options or po.OracleOptions()
    n, k = instance.n, instance.state_count
    probs, costs, rewards = instance.probs, instance.costs, instance.rewards
    x = 0.0 if opts.altered_threshold is None else float(opts.altered_threshold)
    size = 1 << n
    allowed = tuple(range(n)) if opts.allowed_backups is None else opts.allowed_backups
    bb = np.full(size, -np.inf)
    idx = np.arange(size)
    for j in allowed:
        free = (idx >> j) & 1 == 0
        bb[free] = np.maximum(bb[free], instance.blind_rewards[j])
    m_idx = np.maximum(np.arange(k + 1)[:, None] - 1, np.arange(k)[None, :]) + 1
    stop_base = np.full(k + 1, -np.inf)
    stop_base[1:] = rewards - x
    if opts.allow_no_transmit:
        stop_base = np.maximum(stop_base, 0.0)
    V = np.empty((size, k + 1))
    order = np.argsort(-np.array([m.bit_count() for m in range(size)]), kind="stable")
    for mask in order:
        stop = stop_base.copy()
        if bb[mask] > -np.inf:
            stop = np.maximum(stop, bb[mask] - x)
        free = [
            j
            for j in range(n)
            if j != opts.forbidden_probe and not (mask >> j) & 1
        ]
        if free:
            gath = V[[mask | (1 << j) for j in free]][:, m_idx]  # (f, K+1, K)
            vals = np.einsum("fbs,sf->fb", gath, probs[:, free]) - costs[free][:, None]
            V[mask] = np.maximum(stop, vals.max(axis=0))
        else:
            V[mask] = stop
    return V


def reference_tree(instance, options=None, V=None):
    """An optimal tree extracted by re-pricing every legal action at
    each node against the value table and taking the tied action of
    lowest (rank, channel) under the tie preference."""
    opts = options or po.OracleOptions()
    if V is None:
        V = reference_table(instance, opts)
    n, k = instance.n, instance.state_count
    probs, costs, rewards = instance.probs, instance.costs, instance.rewards
    x = 0.0 if opts.altered_threshold is None else float(opts.altered_threshold)
    ranks = po.oracle._RANKS[opts.tie_preference]
    allowed = tuple(range(n)) if opts.allowed_backups is None else opts.allowed_backups

    def build(mask, bidx, path):
        target = V[mask, bidx]
        cands = []  # (value, (rank, channel-or-0), constructor)
        if bidx >= 1:
            b = bidx - 1
            winner = next(j for j, s in path if s == b)
            cands.append(
                (
                    rewards[b] - x,
                    (ranks["transmit"], 0),
                    lambda: po.oracle.TransmitProbed(channel=winner, state=b),
                )
            )
        pool = [j for j in allowed if not (mask >> j) & 1]
        if pool:
            ell = max(pool, key=lambda j: (instance.blind_rewards[j], -j))
            cands.append(
                (
                    float(instance.blind_rewards[ell]) - x,
                    (ranks["backup"], ell),
                    lambda: po.oracle.TransmitBackup(channel=ell),
                )
            )
        if opts.allow_no_transmit:
            cands.append((0.0, (ranks["silent"], 0), po.oracle.NoTransmit))
        for j in range(n):
            if (mask >> j) & 1 or j == opts.forbidden_probe:
                continue
            child = V[mask | (1 << j)]
            val = float(probs[:, j] @ child[np.maximum(bidx - 1, np.arange(k)) + 1])
            val -= costs[j]

            def probe_maker(j=j):
                kids = tuple(
                    build(mask | (1 << j), max(bidx - 1, s) + 1, path + ((j, s),))
                    for s in range(k)
                )
                return po.oracle.Probe(channel=j, children=kids)

            cands.append((val, (ranks["probe"], j), probe_maker))
        best = max(v for v, _, _ in cands)
        assert best >= target - 1e-9, "extraction drifted from the table"
        tied = [(key, make) for v, key, make in cands if v >= best - po.oracle.TIE_TOL]
        tied.sort(key=lambda t: t[0])
        return tied[0][1]()

    return po.DecisionTree(root=build(0, 0, ()), state_count=k, n=n, names=instance.names)


# -- grid reference for the rate-capped dual bound ----------------------


def grid_dual_bound(instance, rate: float) -> float:
    """Smallest ``L * rate + altered optimum at L`` over a fixed grid of
    charges: 0, the top reward, every reward and blind reward in between,
    and 64 evenly spaced charges on ``[0, top reward]``.

    Each term is an upper bound by weak duality, so the exact minimum
    can never lie above this.
    """
    rmax = instance.max_reward
    grid = np.concatenate(
        [
            [0.0, rmax],
            instance.rewards,
            np.asarray(instance.blind_rewards),
            np.linspace(0.0, rmax, 64),
        ]
    )
    grid = np.unique(grid[(grid >= 0.0) & (grid <= rmax)])
    return min(
        float(L) * rate + po.altered_optimum(instance, float(L)).value for L in grid
    )


# -- three-stage reference for the queue mixture --------------------------


def three_stage_unsaturated(instance, arrival_rate, slack=0.05):
    """The queue mixture by the route that preceded the kink search:
    bisection over ``candidate_thresholds`` for a bracket, then a price
    pair at most ``delta`` apart inside it (midpoint first, bisection
    if that does not straddle), with ``delta`` sized from a crude lower
    bound on the gain.  Raises ``DegenerateBound`` when that bound is
    not positive.  Searches go through ``lagrange.best_reserve_backup``
    so a counter patched there sees them all."""
    lagrange = po.lagrange
    effective = arrival_rate * (1.0 + slack)
    bracket = po.find_rate_bracket(instance, effective)
    if bracket.s_low == effective or bracket.s_high == effective:
        pair = po.select_multiplier_pair(instance, effective, bracket, 1.0)
    else:
        unpriced = po.evaluate_policy(
            instance, lagrange.best_reserve_backup(instance, None)
        ).gain
        q_lower = effective * max(unpriced, float(instance.blind_rewards.max()))
        if q_lower <= 0.0:
            raise po.DegenerateBound(
                "no positive-gain policy to size the pair separation with"
            )
        width = bracket.threshold_high - bracket.threshold_low
        delta = min(2.0 * slack * q_lower / 3.0, 0.5 * width)
        pair = po.select_multiplier_pair(instance, effective, bracket, delta)
    if pair.s_minus == pair.s_plus:
        alpha = 1.0
    else:
        alpha = (pair.s_minus - effective) / (pair.s_minus - pair.s_plus)
    return po.MixedPolicy(
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


# -- slot-by-slot references for the simulator's draws -------------------


def markov_draw_loop(source, rng, slots: int) -> np.ndarray:
    """The on/off chain stepped one slot at a time: slot 0 is on with
    the stationary rate, later slots stay on below ``1 - q10`` and turn
    on below ``q01``."""
    u = rng.random(slots)
    out = np.empty(slots, dtype=np.int8)
    on = bool(u[0] < source.rate) if slots else False
    for t in range(slots):
        if t:
            on = (u[t] < 1.0 - source.q10) if on else (u[t] < source.q01)
        out[t] = on
    return out


def draw_states_searchsorted(instance, rng, slots: int) -> np.ndarray:
    """Channel-by-channel state draw: a uniform's state is its
    right-side insertion point into the channel's cumulative
    probabilities, capped at K - 1."""
    u = rng.random((slots, instance.n))
    out = np.empty((slots, instance.n), dtype=np.int64)
    for j in range(instance.n):
        cum = np.cumsum(instance.probs[:, j])
        out[:, j] = np.minimum(
            np.searchsorted(cum, u[:, j], side="right"), instance.state_count - 1
        )
    return out


def reference_draw_states(instance, rng, slots: int) -> np.ndarray:
    """Slots-by-channels states from one ``rng.random((slots, n))``
    call, every channel mapped: a uniform u lands in the state counting
    the cumulative probabilities at or below it, capped at K - 1."""
    u = rng.random((slots, instance.n))
    cum = np.cumsum(instance.probs, axis=0)
    out = np.zeros(u.shape, dtype=np.min_scalar_type(instance.state_count - 1))
    for s in range(instance.state_count - 1):
        out += u >= cum[s]
    return out


def fixed_uniforms(u):
    """A stand-in generator whose ``random`` hands back ``u``, so a
    test can put uniforms exactly on a boundary.  Asked for a ``size``
    it returns all of ``u``; asked to fill ``out`` it writes the next
    ``len(out)`` rows of ``u``, so row blocks read ``u`` in order."""
    u = np.asarray(u, dtype=float)
    taken = 0

    def random(size=None, out=None):
        nonlocal taken
        if out is None:
            assert np.empty(size).shape == u.shape
            return u.copy()
        assert out.shape[1:] == u.shape[1:] and taken + len(out) <= len(u)
        out[...] = u[taken : taken + len(out)]
        taken += len(out)
        return out

    return SimpleNamespace(random=random)


# -- per-channel references for the instance generator and validator ------


def reference_generate(spec, rng=None) -> po.Instance:
    """The generator one channel at a time: draw a channel's
    distribution, and draw it again while its top state is (nearly)
    certain."""
    gen = importlib.import_module("probeopt.generate")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rewards = gen._rewards(spec, rng)
    cols = []
    for _ in range(spec.n):
        while True:
            p = gen._one_distribution(spec, rng)
            if p[-1] < 1.0 - 1e-9:
                break
        cols.append(p)
    return po.Instance.from_arrays(
        rewards, np.column_stack(cols), gen._costs(spec, rng)
    )


@np.errstate(invalid="ignore")  # inf - inf and inf / inf make NaN
def reference_validate(
    instance, *, allow_positive_base_reward=False, renormalize=False
) -> po.Instance:
    """The validator with one pass of scalar checks per channel."""
    tol = PROB_TOL
    violations = []
    r = instance.rewards
    k = instance.state_count

    if k < 2:
        violations.append(
            po.Violation("too-few-states", None, f"need at least 2 states, got {k}")
        )
    if instance.n < 1:
        violations.append(po.Violation("no-channels", None, "need at least one channel"))
    if not np.all(np.isfinite(r)):
        violations.append(po.Violation("non-finite", None, f"rewards = {r.tolist()!r}"))
    if k >= 1:
        if not allow_positive_base_reward and r[0] != 0.0:
            violations.append(
                po.Violation("nonzero-base-reward", None, f"rewards[0] = {r[0]!r}")
            )
        if np.any(np.diff(r) <= 0):
            violations.append(
                po.Violation(
                    "non-increasing-rewards",
                    None,
                    f"rewards must be strictly increasing, got {r.tolist()!r}",
                )
            )
        if np.any(r < 0.0) or np.any(r > 1.0 + tol):
            violations.append(
                po.Violation(
                    "reward-out-of-range", None, f"rewards outside [0, 1]: {r.tolist()!r}"
                )
            )

    seen = set()
    repaired = []
    any_repair = False
    for ch in instance.channels:
        if ch.name in seen:
            violations.append(po.Violation("duplicate-name", ch.name, "name reused"))
        seen.add(ch.name)
        if not math.isfinite(ch.cost):
            violations.append(po.Violation("non-finite", ch.name, f"cost = {ch.cost!r}"))
        if ch.cost < 0.0:
            violations.append(po.Violation("negative-cost", ch.name, f"cost = {ch.cost!r}"))
        p = ch.probs
        if p.shape != (k,):
            violations.append(
                po.Violation(
                    "bad-prob-shape",
                    ch.name,
                    f"expected {k} state probabilities, got shape {p.shape}",
                )
            )
            repaired.append(ch)
            continue
        total = float(p.sum())
        if not math.isfinite(total) and not np.all(np.isfinite(p)):
            violations.append(po.Violation("non-finite", ch.name, f"probs = {p.tolist()!r}"))
        if np.any(p < -tol) or np.any(p > 1.0 + tol):
            violations.append(
                po.Violation("prob-out-of-range", ch.name, f"probs = {p.tolist()!r}")
            )
        if abs(total - 1.0) > tol:
            if renormalize and total > tol:
                ch = po.ChannelStats(name=ch.name, cost=ch.cost, probs=p / total)
                any_repair = True
            else:
                violations.append(
                    po.Violation("probs-not-normalized", ch.name, f"mass sums to {total!r}")
                )
        if k >= 2 and float(ch.probs[-1]) >= 1.0 - tol:
            violations.append(
                po.Violation(
                    "certain-top-state", ch.name, "top state must have probability < 1"
                )
            )
        repaired.append(ch)

    if violations:
        raise po.InstanceValidationError(violations)
    if any_repair:
        return po.Instance(rewards=instance.rewards, channels=tuple(repaired))
    return instance
