"""Acquisition agents: two exploration criteria, a reinforced certainty
threshold with an epsilon floor, and the stream baselines.

Every agent votes with a probability in [0, 1] for acquiring the current
sample.  The two exploration agents share one sliding window per run.  The
stream runner pushes every sample that reaches the vote into it, acquired or
not, before the agents vote; each exploration agent then compares the newest
member, the sample, with the ``length`` members before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SlidingWindow

__all__ = [
    "AcquisitionContext",
    "Agent",
    "LowDensityAgent",
    "SpaceFillingAgent",
    "CertaintyThresholdAgent",
    "RandomBaseline",
    "UncertaintyBaseline",
    "local_sparsity",
    "random_baseline_rate",
    "uncertainty_vote",
]

THRESHOLD_FLOOR = 1e-6


@dataclass
class AcquisitionContext:
    """Everything an agent may inspect before voting on one stream sample."""

    features: np.ndarray
    certainty: float


def local_sparsity(window: SlidingWindow, k: int | None = None) -> int:
    """Count members closer to every co-member than to the newest member.

    Among the ``k`` members before the newest (all when ``None``), a member
    contributes when its farthest co-member distance is strictly below its
    distance to the newest member; a high count means the newest member lies
    in a region the window covers sparsely.
    """
    to_new, block = window.candidate(k)
    # fmax skips the NaN diagonal.  Distances are never negative, so starting
    # from 0 changes no farthest distance and gives a lone member, which has
    # no co-members, 0.  The block is symmetric, so the column reduction,
    # numpy's faster loop over a row-major block, gives each member's farthest.
    far = np.fmax.reduce(block, axis=0, initial=0.0)
    return int(np.count_nonzero(far < to_new))


def random_baseline_rate(budget: int, stream_len: int) -> float:
    """Constant per-step acquisition probability that spends the budget uniformly."""
    if stream_len <= 0:
        raise ValueError("stream length must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    return min(budget / stream_len, 1.0)


def uncertainty_vote(certainty: float, threshold: float) -> float:
    """All-or-nothing vote: acquire strictly below the certainty threshold."""
    return 1.0 if certainty < threshold else 0.0


class Agent:
    """Stream-agent interface; subclasses override what they need."""

    name = "agent"

    def propose(self, ctx: AcquisitionContext) -> float:
        raise NotImplementedError

    def reinforce(self, signed_reward: float) -> None:
        """Feedback after an acquisition this agent voted for."""


class _WindowAgent(Agent):
    """An agent that votes on the newest member of a shared window against the
    ``length`` members before it; the window keeps one slot for the newest."""

    def __init__(self, window: SlidingWindow, length: int, name: str):
        if not 1 <= length < window.capacity:
            raise ValueError(
                f"window length must lie in [1, {window.capacity - 1}], got {length}")
        self.window = window
        self.length = int(length)
        self.name = name


class LowDensityAgent(_WindowAgent):
    """Votes for samples that fall where the recent stream is sparse.

    The raw vote is ``lsf / (L * sparsity_level)`` clipped to 1, where L is
    the window length and lsf is :func:`local_sparsity` of the sample, the
    window's newest member, against the L members before it.
    """

    def __init__(self, window: SlidingWindow, length: int, sparsity_level: float,
                 name: str = "ld"):
        if not 0.0 < sparsity_level <= 1.0:
            raise ValueError(f"sparsity level must lie in (0, 1], got {sparsity_level}")
        super().__init__(window, length, name)
        self.sparsity_level = float(sparsity_level)

    def propose(self, ctx: AcquisitionContext) -> float:
        if len(self.window) < 2:
            return 1.0  # no density evidence before the sample
        score = local_sparsity(self.window, self.length)
        return min(1.0, score / (self.length * self.sparsity_level))


class SpaceFillingAgent(_WindowAgent):
    """Votes for samples that would fill a gap in the window's coverage.

    The raw vote is the distance from the sample, the window's newest member,
    to its nearest among the ``length`` members before it, scaled by the
    largest nearest-neighbour distance inside those members.
    """

    def __init__(self, window: SlidingWindow, length: int, name: str = "spf"):
        if length < 2:
            raise ValueError("space-filling window needs length >= 2")
        super().__init__(window, length, name)

    def propose(self, ctx: AcquisitionContext) -> float:
        if len(self.window) < 3:
            return 1.0  # spread undefined below two members before the sample
        to_new, block = self.window.candidate(self.length)
        gap = float(to_new.min())
        # fmin skips the NaN diagonal; the block is symmetric, as in local_sparsity
        spread = float(np.fmin.reduce(block, axis=0, initial=math.nan).max())
        if spread == 0.0:  # window collapsed onto one location
            return 1.0 if gap > 0.0 else 0.0
        return min(1.0, gap / spread)


class CertaintyThresholdAgent(Agent):
    """Votes to acquire while the model is uncertain; feedback moves the bar.

    A positive reward (the acquired label contradicted the model) raises the
    threshold so the agent keeps acquiring; the signed penalty lowers it. The
    vote never drops below an ``epsilon`` floor of forced acquisition.
    """

    def __init__(self, threshold: float, learning_rate: float,
                 penalty: float = -0.5, name: str = "ral", epsilon: float = 0.0):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
        if not (math.isfinite(learning_rate) and learning_rate > 0.0):
            raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
        if not (math.isfinite(penalty) and penalty < 0.0):
            raise ValueError("the penalty enters the update signed (negative)")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        self.threshold = float(threshold)
        self.learning_rate = float(learning_rate)
        self.penalty = float(penalty)
        self.epsilon = float(epsilon)
        self.name = name

    def propose(self, ctx: AcquisitionContext) -> float:
        vote = uncertainty_vote(ctx.certainty, self.threshold)
        return self.epsilon + (1.0 - self.epsilon) * vote

    def reinforce(self, signed_reward: float) -> None:
        if not math.isfinite(signed_reward):
            raise ValueError("reward must be finite")
        factor = 1.0 + self.learning_rate * (1.0 - 2.0 ** (signed_reward / self.penalty))
        self.threshold = min(self.threshold * factor, 1.0)
        self.threshold = max(self.threshold, THRESHOLD_FLOOR)


class RandomBaseline(Agent):
    """Acquires at a constant rate, blind to the sample."""

    def __init__(self, rate: float, name: str = "rs"):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {rate}")
        self.rate = float(rate)
        self.name = name

    def propose(self, ctx: AcquisitionContext) -> float:
        return self.rate


class UncertaintyBaseline(Agent):
    """Acquires whenever model certainty sits strictly below a fixed threshold."""

    def __init__(self, threshold: float = 0.7, name: str = "us"):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
        self.threshold = float(threshold)
        self.name = name

    def propose(self, ctx: AcquisitionContext) -> float:
        return uncertainty_vote(ctx.certainty, self.threshold)
