"""Random and hand-built problem instances.

The random generator is deliberately plain: it exists so tests and demos
can sweep many instances, not to model any particular radio environment.
Costs are kept below 1 (a probe that costs more than the best possible
reward is never worth buying, and allowing it would only exercise
degenerate corners the solvers document separately).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, validate_instance

__all__ = ["GenSpec", "generate", "counterexample_instance"]

PROB_SHAPES = ("uniform", "spiky-top", "two-point")
COST_REGIMES = ("zero", "equal", "heterogeneous")


@dataclass(frozen=True)
class GenSpec:
    """Knobs for :func:`generate`.

    prob_shape
        "uniform": distributions drawn flat-Dirichlet.
        "spiky-top": a large (but < 1) lump on the top state, the rest
        flat-Dirichlet over the lower states.
        "two-point": mass only on state 0 and one random higher state,
        so interior states have zero probability and upper tails can be
        empty.  Exercises the undefined-tail paths on purpose.
    cost_regime
        "zero", "equal" (one shared draw), or "heterogeneous" (iid).
    cost_range
        Half-open interval the cost draws come from; must sit inside
        [0, 1).
    top_reward_one
        Pin the best state's reward to exactly 1.0 (handy when additive
        error bounds are quoted against the top reward).
    """

    n: int
    state_count: int = 2
    prob_shape: str = "uniform"
    cost_regime: str = "heterogeneous"
    cost_range: tuple[float, float] = (0.0, 0.3)
    top_reward_one: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one channel")
        if self.state_count < 2:
            raise ValueError("need at least two states")
        if self.prob_shape not in PROB_SHAPES:
            raise ValueError(f"prob_shape must be one of {PROB_SHAPES}")
        if self.cost_regime not in COST_REGIMES:
            raise ValueError(f"cost_regime must be one of {COST_REGIMES}")
        lo, hi = self.cost_range
        if not (0.0 <= lo <= hi < 1.0):
            raise ValueError("cost_range must sit inside [0, 1)")


def _rewards(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    k = spec.state_count
    while True:
        body = np.sort(rng.uniform(0.05, 1.0, size=k - 1))
        if np.all(np.diff(body) > 1e-6) and body[0] > 1e-6:
            break
    if spec.top_reward_one:
        body = body / body[-1]
    return np.concatenate([[0.0], body])


def _one_distribution(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    k = spec.state_count
    if spec.prob_shape == "uniform":
        p = rng.dirichlet(np.ones(k))
    elif spec.prob_shape == "spiky-top":
        spike = rng.uniform(0.5, 0.95)
        rest = rng.dirichlet(np.ones(k - 1)) * (1.0 - spike)
        p = np.concatenate([rest, [spike]])
    else:  # two-point
        s = int(rng.integers(1, k))
        mass = rng.uniform(0.05, 0.95)
        p = np.zeros(k)
        p[0] = 1.0 - mass
        p[s] = mass
    return p


def _costs(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    lo, hi = spec.cost_range
    if spec.cost_regime == "zero":
        return np.zeros(spec.n)
    if spec.cost_regime == "equal":
        return np.full(spec.n, rng.uniform(lo, hi))
    return rng.uniform(lo, hi, size=spec.n)


def _rows(spec: GenSpec, rng: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` distributions of the stream, one per row."""
    if spec.prob_shape == "uniform":
        # numpy fills the rows one after another, as ``count`` single
        # draws would
        return rng.dirichlet(np.ones(spec.state_count), size=count)
    return np.array([_one_distribution(spec, rng) for _ in range(count)])


def generate(spec: GenSpec, rng: np.random.Generator | int | None = None) -> Instance:
    """Draw one validated instance according to ``spec``.

    The stream contract: after the rewards, ``rng`` yields one
    distribution after another; a row whose top state is (nearly)
    certain is skipped, and the first ``n`` rows kept become channels
    1..n; the costs come last.  Rows are drawn only as many as needed,
    so the generator ends where drawing one channel at a time would
    leave it, and a (spec, seed) pair names the same instance across
    versions.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rewards = _rewards(spec, rng)
    rows = np.empty((0, spec.state_count))
    while len(rows) < spec.n:
        more = _rows(spec, rng, spec.n - len(rows))
        # skip the (measure-zero, but finite-precision) corner where the
        # top state would be certain
        rows = np.concatenate([rows, more[more[:, -1] < 1.0 - 1e-9]])
    return Instance.from_arrays(rewards, rows.T, _costs(spec, rng))


def counterexample_instance(delta: float = 0.1) -> Instance:
    """A three-channel, three-state instance on which the best decision
    tree is genuinely adaptive: which channel it probes second depends on
    what the first probe revealed, so no fixed probe order reproduces it.

    Valid for ``0 < delta < 0.15``; the shape of the optimal tree is
    pinned by tests at ``delta = 0.1``.
    """
    if not 0.0 < delta < 0.15:
        raise ValueError("delta must lie in (0, 0.15)")
    rewards = [0.0, 0.1, 1.0]
    probs = np.column_stack(
        [
            [0.49, 0.02, 0.49],
            [0.50, 0.01, 0.49],
            [0.50, 0.50 - delta, delta],
        ]
    )
    costs = [0.05885 * delta, 0.06 * delta, 0.05 * delta]
    inst = Instance.from_arrays(rewards, probs, costs, validate=False)
    return validate_instance(inst)
