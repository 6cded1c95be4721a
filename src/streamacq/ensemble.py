"""Ensemble layer: adversarial-bandit expert weighting with a control chart.

One joint decision per stream sample is drawn from a mixture of expert
advice vectors. Expert weights grow with importance-weighted reward plus an
exploration bonus, and an EWMA chart over the standardized weights reflects
them across the uniform level whenever one expert drifts out of its limits.

The solver keeps one Python float per expert for each of its weights, EWMA
statistics and Welford moments, ``n_experts`` values in all, the roster size
it is built with, which is not a :class:`SolverConfig` setting. On a few
experts numpy's per-call cost outweighs the arithmetic, so each update is one
pass over the floats. A step checks the votes once, in
:meth:`WeightedEnsemble.decide`; the :class:`JointDecision` carries them to
:meth:`WeightedEnsemble.update_weights`, which rebuilds each expert's advice
``(vote, 1 - vote)`` from them.

Each float operation is the one the array expression
``weights * exp(p_min / 2 * (gain + spread * bonus))``, the chart's Welford
and EWMA updates or the reflection would do, in the same order, so the state
keeps its bits. numpy is called twice only, where a sequential sum rounds
differently: the mixture ``weights @ advice``, and a weight total over eight
or more experts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ARM_ACQUIRE",
    "ARM_PASS",
    "N_ARMS",
    "WEIGHT_FLOOR",
    "SolverConfig",
    "JointDecision",
    "WeightedEnsemble",
]

ARM_ACQUIRE = 0
ARM_PASS = 1
N_ARMS = 2

WEIGHT_FLOOR = 1e-6

_LIMIT_WIDTH_CAP = 1e300
# far below overflow: one update multiplies a weight by at most
# e^((1 + exploration_bonus) / 2)
_RESCALE_ABOVE = 2.0 ** 512


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the bandit solver and the weight monitor."""

    horizon: int = 2000
    p_min: float | None = None
    ewma_weight: float = 0.3
    limit_width: float = 5.0
    flip_warmup: int = 10
    monitor: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.p_min is not None and not 0.0 <= self.p_min <= 1.0 / N_ARMS:
            raise ValueError(f"p_min must lie in [0, 1/{N_ARMS}]")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ValueError("ewma weight must lie in (0, 1]")
        if not (math.isfinite(self.limit_width) and self.limit_width > 0.0):
            raise ValueError(f"limit width must be positive and finite, got {self.limit_width}")
        if self.flip_warmup < 2:
            raise ValueError("flip warm-up needs at least two observations")


@dataclass(frozen=True)
class JointDecision:
    """Mixture probabilities over the two arms, the sampled arm, and the
    checked acquire-votes the probabilities were mixed from."""

    probs: tuple
    arm: int
    votes: tuple

    @property
    def acquired(self) -> bool:
        return self.arm == ARM_ACQUIRE


def _total(values) -> float:
    """``np.array(values).sum()`` bit for bit.

    numpy adds fewer than eight terms left to right, as ``sum`` does, and
    more in pairwise blocks.
    """
    return sum(values) if len(values) < 8 else float(np.array(values).sum())


class WeightedEnsemble:
    """Combines expert acquire-votes into one monitored joint policy.

    ``ewma``, ``obs_mean`` and ``obs_m2`` hold each expert's EWMA statistic
    and the chart's running (Welford) moments of the standardized weights.
    Every :meth:`ewma_step` records every expert once, so ``steps`` is also
    each expert's record count. The exploration floor ``p_min`` defaults to
    the update's ``exploration_bonus``, capped at 1/2. :meth:`set_weights` is
    the one writer of the read-only :attr:`weights`; it refreshes
    :attr:`standardized` too, so a step record reads it without arithmetic.
    """

    def __init__(self, config: SolverConfig, n_experts: int):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        self.config = config
        self.n_experts = n = n_experts
        self.exploration_bonus = math.sqrt(math.log(n) / (N_ARMS * config.horizon))
        self.p_min = (config.p_min if config.p_min is not None
                      else min(self.exploration_bonus, 1.0 / N_ARMS))
        self.set_weights([1.0] * n)
        self.ewma = [1.0 / n] * n
        self.obs_mean = [0.0] * n
        self.obs_m2 = [0.0] * n
        self.limit_width = float(config.limit_width)
        self.steps = 0
        self.flips = 0

    @property
    def weights(self) -> tuple:
        """The expert weights as a tuple of floats."""
        return self._weights

    @property
    def standardized(self) -> tuple:
        """``weights / weights.sum()`` as a tuple of floats, bit for bit."""
        return self._standardized

    def set_weights(self, weights) -> None:
        """Take ``n_experts`` positive, finite weights with a finite sum."""
        weights = tuple(map(float, weights))
        if len(weights) != self.n_experts:
            raise ValueError(f"expected {self.n_experts} weights, got {len(weights)}")
        total = _total(weights)
        # a NaN or infinite weight makes the total NaN or infinite
        if not (0.0 < min(weights) and total < math.inf):
            raise ValueError(f"weights must be positive and finite with a finite sum, "
                             f"got {weights}")
        self._weights = weights
        self._standardized = tuple([w / total for w in weights])

    # -- decision -----------------------------------------------------------

    def decide(self, votes, rng: np.random.Generator) -> JointDecision:
        """Sample one arm via inverse CDF from the weight-mixed arm
        distribution with the exploration floor; ``votes`` are the experts'
        acquire-votes in [0, 1]."""
        votes = tuple(votes)
        if len(votes) != self.n_experts:
            raise ValueError(f"expected {self.n_experts} votes, got {len(votes)}")
        advice = []
        for x in votes:
            if not 0.0 <= x <= 1.0:  # NaN fails both tests
                raise ValueError("votes must be finite and lie in [0, 1]")
            advice += (x, 1.0 - x)
        mix = (np.array(self._weights)
               @ np.array(advice).reshape(self.n_experts, N_ARMS)).tolist()
        total = _total(self._weights)
        keep, floor = 1.0 - N_ARMS * self.p_min, self.p_min
        probs = tuple([keep * (m / total) + floor for m in mix])
        u = float(rng.random())
        arm = ARM_ACQUIRE if u < probs[ARM_ACQUIRE] else ARM_PASS
        return JointDecision(probs=probs, arm=arm, votes=votes)

    # -- learning -----------------------------------------------------------

    def update_weights(self, decision: JointDecision, reward: float) -> None:
        """Exponential update from importance-weighted reward plus variance bonus.

        Reads the votes the decision was drawn from, so they are checked once
        per step, in :meth:`decide`; the arm and the probabilities are checked
        here, before any state moves.
        """
        if len(decision.votes) != self.n_experts:
            raise ValueError(f"decision carries {len(decision.votes)} votes, "
                             f"the ensemble has {self.n_experts} experts")
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {reward}")
        arm = decision.arm
        if arm not in (ARM_ACQUIRE, ARM_PASS):
            raise ValueError(f"decision arm must be {ARM_ACQUIRE} or {ARM_PASS}, got {arm!r}")
        p_acquire, p_pass = probs = decision.probs
        # decide mixes each probability to keep * share + p_min; the share can
        # exceed 1 by an ulp, so 1, not 1 - p_min, bounds it from above
        floor = self.p_min
        if not (floor <= p_acquire <= 1.0 and floor <= p_pass <= 1.0):  # NaN fails
            raise ValueError(f"decision probabilities must lie in [p_min, 1] = "
                             f"[{floor}, 1], got {probs}")
        if floor == 0.0:
            return  # exponent scale is p_min/2, so the update is exactly neutral
        scale = reward / probs[arm]  # the played arm's importance-weighted reward
        half, bonus = floor / 2.0, self.exploration_bonus
        # math.exp per expert, not np.exp: numpy's SIMD exp differs from libm's
        # in the last bit on about a quarter of random inputs, which would
        # move the exported weights
        grown = []
        for w, x in zip(self._weights, decision.votes):
            a = (x, 1.0 - x)  # the expert's advice over both arms
            spread = a[ARM_ACQUIRE] / p_acquire + a[ARM_PASS] / p_pass
            grown.append(w * math.exp(half * (a[arm] * scale + spread * bonus)))
        top = max(grown)
        if top > _RESCALE_ABOVE:
            # weights only grow between reflections; scaling them all by one
            # power of two is exact, so ratios and every export keep their bits
            shift = -math.frexp(top)[1]
            grown = [math.ldexp(w, shift) for w in grown]
        self.set_weights(grown)

    # -- monitoring ---------------------------------------------------------

    def ewma_step(self) -> bool:
        """One chart update; returns True when the weights were reflected.

        Every call records the standardized weights, refreshes each expert's
        EWMA statistic, advances the step counter, and widens the limits. When
        monitoring is on, any statistic outside its limits after warm-up
        reflects all standardized weights across the uniform level.
        """
        cfg = self.config
        level = 1.0 / self.n_experts
        lam = cfg.ewma_weight
        keep = 1.0 - lam
        self.steps = steps = self.steps + 1
        watch = cfg.monitor and steps >= cfg.flip_warmup
        # the limits are half_width times each expert's sample variance
        half_width = self.limit_width * (lam / (2.0 - lam))

        means, m2s, ewmas = [], [], []
        out_of_limits = False
        for s, mean, m2, ewma in zip(self._standardized, self.obs_mean,
                                     self.obs_m2, self.ewma):
            delta = s - mean
            mean += delta / steps
            m2 += delta * (s - mean)
            ewma = lam * s + keep * ewma
            if watch and abs(ewma - level) > half_width * (m2 / (steps - 1)):
                out_of_limits = True
            means.append(mean)
            m2s.append(m2)
            ewmas.append(ewma)
        self.obs_mean, self.obs_m2, self.ewma = means, m2s, ewmas

        if out_of_limits:
            self._reflect(level)
            self.flips += 1

        growth = steps / cfg.horizon
        if growth >= math.log(_LIMIT_WIDTH_CAP):
            self.limit_width = _LIMIT_WIDTH_CAP
        else:
            self.limit_width = min(self.limit_width * math.exp(growth), _LIMIT_WIDTH_CAP)
        return out_of_limits

    def _reflect(self, level: float) -> None:
        """Mirror standardized weights across the uniform level and reseed EWMA."""
        mirrored = [max(2.0 * level - s, WEIGHT_FLOOR) for s in self._standardized]
        share = _total(mirrored)
        self.ewma = [m / share for m in mirrored]
        total = _total(self._weights)
        self.set_weights([m * total for m in self.ewma])
