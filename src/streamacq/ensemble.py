"""Ensemble layer: adversarial-bandit expert weighting with a control chart.

One joint decision per stream sample is drawn from a mixture of expert
advice vectors. Expert weights grow with importance-weighted reward plus an
exploration bonus, and an EWMA chart over the standardized weights reflects
them across the uniform level whenever one expert drifts out of its limits.

The solver keeps its per-expert state as arrays of length ``n_experts``, the
roster size it is built with, which is not a :class:`SolverConfig` setting. A
step builds and checks the advice matrix once, in :meth:`WeightedEnsemble.decide`;
the :class:`JointDecision` carries it to :meth:`WeightedEnsemble.update_weights`.

On arrays of a few entries numpy's per-call cost outweighs the arithmetic,
so the per-expert updates run in one pass over Python floats and write the
arrays back. Each float operation is the one the array expression
``weights * exp(p_min / 2 * (gain + spread * bonus))`` or the chart's Welford
and EWMA updates would do, in the same order, so the state keeps its bits.
Only the mixture ``weights @ advice`` stays a numpy call: a sequential dot
rounds differently from it.
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
    "RewardSpec",
    "SolverConfig",
    "JointDecision",
    "WeightedEnsemble",
    "step_reward",
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
class RewardSpec:
    """Reward scale for acquired labels.

    ``informative`` pays for a label the model got wrong, ``redundant`` for a
    label it already predicted. The signed variant feeds threshold agents,
    which treat a redundant acquisition as a penalty.
    """

    informative: float = 1.0
    redundant: float = 0.5

    def __post_init__(self):
        # update_weights accepts rewards in [0, 1]; zero is the pass reward
        for name, level in (("informative", self.informative),
                            ("redundant", self.redundant)):
            if not 0.0 < level <= 1.0:
                raise ValueError(f"{name} reward must lie in (0, 1], got {level}")
        if self.redundant >= self.informative:
            raise ValueError("redundant reward must stay below informative")

    @property
    def signed_redundant(self) -> float:
        return -self.redundant


def step_reward(acquired: bool, predicted: int, label: int,
                spec: RewardSpec = RewardSpec()) -> float:
    """Reward for one stream step; passing earns nothing."""
    if not acquired:
        return 0.0
    return spec.informative if predicted != label else spec.redundant


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
    per-expert advice matrix the probabilities were mixed from."""

    probs: np.ndarray
    arm: int
    advice: np.ndarray

    @property
    def acquired(self) -> bool:
        return self.arm == ARM_ACQUIRE


class WeightedEnsemble:
    """Combines expert acquire-votes into one monitored joint policy.

    ``obs_mean`` and ``obs_m2`` are the chart's running (Welford) moments of
    the standardized weights. Every :meth:`ewma_step` records every expert
    once, so ``steps`` is also each expert's record count. The exploration
    floor ``p_min`` defaults to the update's ``exploration_bonus``, capped at 1/2.
    """

    def __init__(self, config: SolverConfig, n_experts: int):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        self.config = config
        self.n_experts = n = n_experts
        self.exploration_bonus = math.sqrt(math.log(n) / (N_ARMS * config.horizon))
        self.p_min = (config.p_min if config.p_min is not None
                      else min(self.exploration_bonus, 1.0 / N_ARMS))
        self.weights = np.ones(n)
        self.ewma = np.full(n, 1.0 / n)
        self.obs_mean = np.zeros(n)
        self.obs_m2 = np.zeros(n)
        self.limit_width = float(config.limit_width)
        self.steps = 0
        self.flips = 0

    # -- decision -----------------------------------------------------------

    def advice_matrix(self, votes) -> np.ndarray:
        """Per-expert advice over both arms from acquire-votes in [0, 1]."""
        v = np.asarray(votes, dtype=float)
        if v.shape != (self.n_experts,):
            raise ValueError(f"expected {self.n_experts} votes, got shape {v.shape}")
        if not all(0.0 <= x <= 1.0 for x in v.tolist()):  # NaN fails both tests
            raise ValueError("votes must be finite and lie in [0, 1]")
        advice = np.empty((self.n_experts, N_ARMS))
        advice[:, ARM_ACQUIRE] = v
        np.subtract(1.0, v, out=advice[:, ARM_PASS])
        return advice

    def _total(self, weights: list) -> float:
        """``self.weights.sum()`` bit for bit, given ``self.weights.tolist()``.

        numpy adds fewer than eight terms left to right, as ``sum`` does, and
        more in pairwise blocks.
        """
        return sum(weights) if len(weights) < 8 else float(self.weights.sum())

    def decide(self, votes, rng: np.random.Generator) -> JointDecision:
        """Sample one arm via inverse CDF from the weight-mixed arm
        distribution with the exploration floor."""
        advice = self.advice_matrix(votes)
        total = self._total(self.weights.tolist())
        keep, floor = 1.0 - N_ARMS * self.p_min, self.p_min
        probs = [keep * (m / total) + floor for m in (self.weights @ advice).tolist()]
        u = float(rng.random())
        arm = ARM_ACQUIRE if u < probs[ARM_ACQUIRE] else ARM_PASS
        return JointDecision(probs=np.array(probs), arm=arm, advice=advice)

    # -- learning -----------------------------------------------------------

    def update_weights(self, decision: JointDecision, reward: float) -> None:
        """Exponential update from importance-weighted reward plus variance bonus.

        Reads the advice the decision was drawn from, so the votes are built
        and checked once per step, in :meth:`decide`.
        """
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {reward}")
        if self.p_min == 0.0:
            return  # exponent scale is p_min/2, so the update is exactly neutral
        arm = decision.arm
        p_acquire, p_pass = probs = decision.probs.tolist()
        scale = reward / probs[arm]  # the played arm's importance-weighted reward
        half, bonus = self.p_min / 2.0, self.exploration_bonus
        # math.exp per expert, not np.exp: numpy's SIMD exp differs from libm's
        # in the last bit on about a quarter of random inputs, which would
        # move the exported weights
        grown = []
        for w, a in zip(self.weights.tolist(), decision.advice.tolist()):
            spread = a[ARM_ACQUIRE] / p_acquire + a[ARM_PASS] / p_pass
            grown.append(w * math.exp(half * (a[arm] * scale + spread * bonus)))
        self.weights[:] = grown
        top, low = max(grown), min(grown)
        if top > _RESCALE_ABOVE:
            # weights only grow between reflections; scaling them all by one
            # power of two is exact, so ratios and every export keep their bits
            np.ldexp(self.weights, -math.frexp(top)[1], out=self.weights)
            low = float(self.weights.min())
        if not (0.0 < low and top < math.inf):
            raise FloatingPointError("expert weight left (0, inf)")

    # -- monitoring ---------------------------------------------------------

    def standardized_weights(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    @property
    def variance(self) -> np.ndarray:
        """Sample variance of each expert's recorded standardized weights;
        zero below two records."""
        if self.steps < 2:
            return np.zeros(self.n_experts)
        return self.obs_m2 / (self.steps - 1)

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
        weights = self.weights.tolist()
        total = self._total(weights)
        self.steps = steps = self.steps + 1
        watch = cfg.monitor and steps >= cfg.flip_warmup
        # the limits are half_width times each expert's sample variance
        half_width = self.limit_width * (lam / (2.0 - lam))

        standardized, means, m2s, ewmas = [], [], [], []
        out_of_limits = False
        for w, mean, m2, ewma in zip(weights, self.obs_mean.tolist(),
                                     self.obs_m2.tolist(), self.ewma.tolist()):
            s = w / total
            delta = s - mean
            mean += delta / steps
            m2 += delta * (s - mean)
            ewma = lam * s + keep * ewma
            if watch and abs(ewma - level) > half_width * (m2 / (steps - 1)):
                out_of_limits = True
            standardized.append(s)
            means.append(mean)
            m2s.append(m2)
            ewmas.append(ewma)
        self.obs_mean[:] = means
        self.obs_m2[:] = m2s
        self.ewma = np.array(ewmas)

        if out_of_limits:
            self._reflect(np.array(standardized), level)
            self.flips += 1

        growth = steps / cfg.horizon
        if growth >= math.log(_LIMIT_WIDTH_CAP):
            self.limit_width = _LIMIT_WIDTH_CAP
        else:
            self.limit_width = min(
                self.limit_width * math.exp(growth), _LIMIT_WIDTH_CAP
            )
        return out_of_limits

    def _reflect(self, standardized: np.ndarray, level: float) -> None:
        """Mirror standardized weights across the uniform level and reseed EWMA."""
        mirrored = np.maximum(2.0 * level - standardized, WEIGHT_FLOOR)
        mirrored /= mirrored.sum()
        self.weights = mirrored * self.weights.sum()
        self.ewma = mirrored
