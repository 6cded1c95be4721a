"""Ensemble layer: adversarial-bandit expert weighting with a control chart.

One joint decision per stream sample is drawn from a mixture of expert
advice vectors. Expert weights grow with importance-weighted reward plus an
exploration bonus, and an EWMA chart over the standardized weights reflects
them across the uniform level whenever one expert drifts out of its limits.

The solver keeps one value per expert for each of its weights, EWMA
statistics and Welford moments, ``n_experts`` values in all, the roster size
it is built with, which is not a :class:`SolverConfig` setting. A step builds
and checks the advice matrix once, in :meth:`WeightedEnsemble.decide`; the
:class:`JointDecision` carries it to :meth:`WeightedEnsemble.update_weights`.

On a few experts numpy's per-call cost outweighs the arithmetic, so the
per-expert state lives in lists of Python floats, and the updates run one
pass over them. The attributes ``weights``, ``ewma``, ``obs_mean`` and
``obs_m2`` read the lists as fresh read-only arrays and assign arrays back.
Each float operation is the one the array expression
``weights * exp(p_min / 2 * (gain + spread * bonus))`` or the chart's Welford
and EWMA updates would do, in the same order, so the state keeps its bits.
Only the mixture ``weights @ advice`` is a numpy call: a sequential dot
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


class _ExpertValues:
    """A per-expert state kept as a list of floats in ``_<name>``; read as a
    fresh read-only array, assigned from anything of ``n_experts`` floats."""

    def __set_name__(self, owner, name):
        self.name, self.key = name, "_" + name

    def __get__(self, ensemble, owner=None):
        if ensemble is None:
            return self
        values = np.array(getattr(ensemble, self.key))
        values.flags.writeable = False
        return values

    def _floats(self, ensemble, values) -> list:
        v = np.asarray(values, dtype=float)
        if v.shape != (ensemble.n_experts,):
            raise ValueError(f"{self.name} needs {ensemble.n_experts} values, "
                             f"got shape {v.shape}")
        return v.tolist()

    def __set__(self, ensemble, values):
        setattr(ensemble, self.key, self._floats(ensemble, values))


class _Weights(_ExpertValues):
    """The expert weights; assigning them refreshes their standardized shares."""

    def __set__(self, ensemble, values):
        ensemble._adopt(self._floats(ensemble, values))


class WeightedEnsemble:
    """Combines expert acquire-votes into one monitored joint policy.

    ``obs_mean`` and ``obs_m2`` are the chart's running (Welford) moments of
    the standardized weights. Every :meth:`ewma_step` records every expert
    once, so ``steps`` is also each expert's record count. The exploration
    floor ``p_min`` defaults to the update's ``exploration_bonus``, capped at 1/2.
    :attr:`standardized` holds ``weights / weights.sum()`` as floats, refreshed
    whenever the weights change, so a step record reads it without arithmetic.
    """

    weights = _Weights()
    ewma = _ExpertValues()
    obs_mean = _ExpertValues()
    obs_m2 = _ExpertValues()

    def __init__(self, config: SolverConfig, n_experts: int):
        if n_experts < 1:
            raise ValueError("need at least one expert")
        self.config = config
        self.n_experts = n = n_experts
        self.exploration_bonus = math.sqrt(math.log(n) / (N_ARMS * config.horizon))
        self.p_min = (config.p_min if config.p_min is not None
                      else min(self.exploration_bonus, 1.0 / N_ARMS))
        self._adopt([1.0] * n)
        self._ewma = [1.0 / n] * n
        self._obs_mean = [0.0] * n
        self._obs_m2 = [0.0] * n
        self.limit_width = float(config.limit_width)
        self.steps = 0
        self.flips = 0

    def _total(self, weights: list) -> float:
        """``np.array(weights).sum()`` bit for bit.

        numpy adds fewer than eight terms left to right, as ``sum`` does, and
        more in pairwise blocks.
        """
        return sum(weights) if len(weights) < 8 else float(np.array(weights).sum())

    def _adopt(self, weights: list) -> None:
        """Take ``weights`` as the expert weights, and their standardized shares."""
        total = self._total(weights)
        self._weights = weights
        self._standardized = tuple([w / total for w in weights])

    @property
    def standardized(self) -> tuple:
        """``weights / weights.sum()`` as a tuple of floats, bit for bit; kept
        up to date by every change of the weights."""
        return self._standardized

    # -- decision -----------------------------------------------------------

    def advice_matrix(self, votes) -> np.ndarray:
        """Per-expert advice over both arms from acquire-votes in [0, 1],
        checked and laid out in one pass, then made an array in one call."""
        flat = []
        for x in votes:
            if not 0.0 <= x <= 1.0:  # NaN fails both tests
                raise ValueError("votes must be finite and lie in [0, 1]")
            flat += (x, 1.0 - x)
        advice = np.array(flat, dtype=float)
        if advice.shape != (N_ARMS * self.n_experts,):
            raise ValueError(f"expected {self.n_experts} votes, got shape {np.shape(votes)}")
        return advice.reshape(self.n_experts, N_ARMS)

    def decide(self, votes, rng: np.random.Generator) -> JointDecision:
        """Sample one arm via inverse CDF from the weight-mixed arm
        distribution with the exploration floor."""
        advice = self.advice_matrix(votes)
        total = self._total(self._weights)
        keep, floor = 1.0 - N_ARMS * self.p_min, self.p_min
        mix = (np.array(self._weights) @ advice).tolist()
        probs = [keep * (m / total) + floor for m in mix]
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
        for w, a in zip(self._weights, decision.advice.tolist()):
            spread = a[ARM_ACQUIRE] / p_acquire + a[ARM_PASS] / p_pass
            grown.append(w * math.exp(half * (a[arm] * scale + spread * bonus)))
        top, low = max(grown), min(grown)
        if top > _RESCALE_ABOVE:
            # weights only grow between reflections; scaling them all by one
            # power of two is exact, so ratios and every export keep their bits
            shift = -math.frexp(top)[1]
            grown = [math.ldexp(w, shift) for w in grown]
            low = min(grown)
        if not (0.0 < low and top < math.inf):
            raise FloatingPointError("expert weight left (0, inf)")
        self._adopt(grown)

    # -- monitoring ---------------------------------------------------------

    def standardized_weights(self) -> np.ndarray:
        """``weights / weights.sum()``: :attr:`standardized` as an array."""
        return np.array(self._standardized)

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
        self.steps = steps = self.steps + 1
        watch = cfg.monitor and steps >= cfg.flip_warmup
        # the limits are half_width times each expert's sample variance
        half_width = self.limit_width * (lam / (2.0 - lam))

        means, m2s, ewmas = [], [], []
        out_of_limits = False
        for s, mean, m2, ewma in zip(self._standardized, self._obs_mean,
                                     self._obs_m2, self._ewma):
            delta = s - mean
            mean += delta / steps
            m2 += delta * (s - mean)
            ewma = lam * s + keep * ewma
            if watch and abs(ewma - level) > half_width * (m2 / (steps - 1)):
                out_of_limits = True
            means.append(mean)
            m2s.append(m2)
            ewmas.append(ewma)
        self._obs_mean, self._obs_m2, self._ewma = means, m2s, ewmas

        if out_of_limits:
            self._reflect(level)
            self.flips += 1

        growth = steps / cfg.horizon
        if growth >= math.log(_LIMIT_WIDTH_CAP):
            self.limit_width = _LIMIT_WIDTH_CAP
        else:
            self.limit_width = min(
                self.limit_width * math.exp(growth), _LIMIT_WIDTH_CAP
            )
        return out_of_limits

    def _reflect(self, level: float) -> None:
        """Mirror standardized weights across the uniform level and reseed EWMA."""
        mirrored = np.maximum(2.0 * level - np.array(self._standardized), WEIGHT_FLOOR)
        mirrored /= mirrored.sum()
        self._adopt((mirrored * self._total(self._weights)).tolist())
        self._ewma = mirrored.tolist()
