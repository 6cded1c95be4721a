"""Ensemble layer: adversarial-bandit expert weighting with a control chart.

One joint decision per stream sample is drawn from a mixture of expert
advice vectors. Expert weights grow with importance-weighted reward plus an
exploration bonus, and an EWMA chart over the standardized weights reflects
them across the uniform level whenever one expert drifts out of its limits.
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
    "ExpertState",
    "JointDecision",
    "WeightedEnsemble",
    "step_reward",
]

ARM_ACQUIRE = 0
ARM_PASS = 1
N_ARMS = 2

WEIGHT_FLOOR = 1e-6

_LIMIT_WIDTH_CAP = 1e300


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

    n_experts: int
    horizon: int = 2000
    p_min: float | None = None
    confidence: float = 0.1
    ewma_weight: float = 0.3
    limit_width: float = 5.0
    flip_warmup: int = 10
    monitor: bool = True

    def __post_init__(self):
        if self.n_experts < 1:
            raise ValueError("need at least one expert")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.p_min is not None and not 0.0 <= self.p_min <= 1.0 / N_ARMS:
            raise ValueError(f"p_min must lie in [0, 1/{N_ARMS}]")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence level must lie in (0, 1)")
        if not 0.0 < self.ewma_weight <= 1.0:
            raise ValueError("ewma weight must lie in (0, 1]")
        if self.limit_width <= 0.0:
            raise ValueError("limit width must be positive")
        if self.flip_warmup < 2:
            raise ValueError("flip warm-up needs at least two observations")

    @property
    def resolved_p_min(self) -> float:
        """Exploration floor; the default vanishes for a single expert."""
        if self.p_min is not None:
            return self.p_min
        return min(math.sqrt(math.log(self.n_experts) / (N_ARMS * self.horizon)),
                   1.0 / N_ARMS)

    @property
    def exploration_bonus(self) -> float:
        """Variance bonus multiplier in the weight update exponent."""
        return math.sqrt(math.log(self.n_experts) / (N_ARMS * self.horizon))


@dataclass
class ExpertState:
    """One expert's weight, EWMA statistic, and running moments.

    The moments cover every standardized weight the monitor has recorded,
    tracked incrementally so variance never needs a second pass.
    """

    weight: float = 1.0
    ewma: float = 0.0
    obs_count: int = 0
    obs_mean: float = 0.0
    obs_m2: float = 0.0

    def record(self, value: float) -> None:
        self.obs_count += 1
        delta = value - self.obs_mean
        self.obs_mean += delta / self.obs_count
        self.obs_m2 += delta * (value - self.obs_mean)

    @property
    def variance(self) -> float:
        """Sample variance of recorded values; zero below two observations."""
        if self.obs_count < 2:
            return 0.0
        return self.obs_m2 / (self.obs_count - 1)


@dataclass(frozen=True)
class JointDecision:
    """Mixture probabilities over the two arms plus the sampled arm."""

    probs: np.ndarray
    arm: int

    @property
    def acquired(self) -> bool:
        return self.arm == ARM_ACQUIRE


class WeightedEnsemble:
    """Combines expert acquire-votes into one monitored joint policy."""

    def __init__(self, config: SolverConfig):
        self.config = config
        self.experts = [ExpertState(weight=1.0, ewma=1.0 / config.n_experts)
                        for _ in range(config.n_experts)]
        self.limit_width = float(config.limit_width)
        self.steps = 0
        self.flips = 0

    # -- decision -----------------------------------------------------------

    def advice_matrix(self, votes) -> np.ndarray:
        """Per-expert advice over both arms from acquire-votes in [0, 1]."""
        v = np.asarray(votes, dtype=float)
        if v.shape != (self.config.n_experts,):
            raise ValueError(f"expected {self.config.n_experts} votes, got shape {v.shape}")
        if not np.all(np.isfinite(v)) or np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("votes must be finite and lie in [0, 1]")
        return np.column_stack([v, 1.0 - v])

    def arm_probabilities(self, votes) -> np.ndarray:
        """Weight-mixed arm distribution with the exploration floor."""
        advice = self.advice_matrix(votes)
        weights = np.array([e.weight for e in self.experts])
        mix = weights @ advice / weights.sum()
        p_min = self.config.resolved_p_min
        return (1.0 - N_ARMS * p_min) * mix + p_min

    def decide(self, votes, rng: np.random.Generator) -> JointDecision:
        """Sample one arm from the mixed distribution via inverse CDF."""
        probs = self.arm_probabilities(votes)
        u = float(rng.random())
        arm = ARM_ACQUIRE if u < probs[ARM_ACQUIRE] else ARM_PASS
        return JointDecision(probs=probs, arm=arm)

    # -- learning -----------------------------------------------------------

    def update_weights(self, votes, decision: JointDecision, reward: float) -> None:
        """Exponential update from importance-weighted reward plus variance bonus."""
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward must lie in [0, 1], got {reward}")
        advice = self.advice_matrix(votes)
        if self.config.resolved_p_min == 0.0:
            return  # exponent scale is p_min/2, so the update is exactly neutral
        probs = decision.probs
        reward_hat = np.zeros(N_ARMS)
        reward_hat[decision.arm] = reward / probs[decision.arm]
        gain = advice @ reward_hat
        spread = (advice / probs).sum(axis=1)
        bonus = self.config.exploration_bonus
        scale = self.config.resolved_p_min / 2.0
        for expert, g, v in zip(self.experts, gain, spread):
            expert.weight *= math.exp(scale * (g + v * bonus))
            if not math.isfinite(expert.weight) or expert.weight <= 0.0:
                raise FloatingPointError("expert weight left (0, inf)")

    # -- monitoring ---------------------------------------------------------

    def standardized_weights(self) -> np.ndarray:
        total = sum(e.weight for e in self.experts)
        return np.array([e.weight / total for e in self.experts])

    def ewma_step(self) -> bool:
        """One chart update; returns True when the weights were reflected.

        Every call records the standardized weights, refreshes each expert's
        EWMA statistic, widens the limits, and advances the step counter. When
        monitoring is on, any statistic outside its limits after warm-up
        reflects all standardized weights across the uniform level.
        """
        cfg = self.config
        n = cfg.n_experts
        level = 1.0 / n
        lam = cfg.ewma_weight
        standardized = self.standardized_weights()

        for expert, s in zip(self.experts, standardized):
            expert.record(s)
            expert.ewma = lam * s + (1.0 - lam) * expert.ewma

        flipped = False
        if cfg.monitor and all(e.obs_count >= cfg.flip_warmup for e in self.experts):
            half_width = self.limit_width * (lam / (2.0 - lam))
            out = any(
                abs(e.ewma - level) > half_width * e.variance
                for e in self.experts
            )
            if out:
                self._reflect(standardized, level)
                flipped = True
                self.flips += 1

        self.steps += 1
        growth = self.steps / cfg.horizon
        if growth >= math.log(_LIMIT_WIDTH_CAP):
            self.limit_width = _LIMIT_WIDTH_CAP
        else:
            self.limit_width = min(
                self.limit_width * math.exp(growth), _LIMIT_WIDTH_CAP
            )
        return flipped

    def _reflect(self, standardized: np.ndarray, level: float) -> None:
        """Mirror standardized weights across the uniform level and reseed EWMA."""
        total = sum(e.weight for e in self.experts)
        mirrored = np.maximum(2.0 * level - standardized, WEIGHT_FLOOR)
        mirrored /= mirrored.sum()
        for expert, s in zip(self.experts, mirrored):
            expert.weight = s * total
            expert.ewma = s
