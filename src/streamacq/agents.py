"""Acquisition agents: two exploration criteria, a reinforced certainty
threshold with an epsilon floor, and the stream baselines.

Every agent votes with a probability in [0, 1] for acquiring the current
sample.  The two exploration agents share one sliding window per run.  The
stream runner pushes every sample that reaches the vote into it, acquired or
not, before the agents vote; each exploration agent then compares the newest
member, the sample, with the ``length`` members before it.  The window hands
it those members' distances to the sample and each one's farthest or nearest
co-member among them, so a vote costs O(length), not a pass over the
``length`` x ``length`` distances.

The certainty-threshold agent is the uncertainty baseline's strict-below vote
with a bar that feedback moves and an epsilon floor.

An agent carries no name: the harness builds every roster with one builder,
and a roster is positional, in the order its strategy lists its agents.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
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
    in a region the window covers sparsely.  A lone member's farthest
    distance is 0, so any separation from the newest member counts it.
    """
    to_new, far = window.farthest(k)
    return int(np.count_nonzero(far < to_new))


class Agent(ABC):
    """Stream-agent interface: a subclass defines ``propose``."""

    @abstractmethod
    def propose(self, ctx: AcquisitionContext) -> float:
        """The agent's vote in [0, 1] for acquiring ``ctx``'s sample."""

    def reinforce(self, signed_reward: float) -> None:
        """Feedback after an acquisition this agent voted for."""


class _WindowAgent(Agent):
    """An agent that votes on the newest member of a shared window against the
    ``length`` members before it; the window keeps one slot for the newest."""

    def __init__(self, window: SlidingWindow, length: int):
        if not 1 <= length < window.capacity:
            raise ValueError(
                f"window length must lie in [1, {window.capacity - 1}], got {length}")
        self.window = window
        self.length = int(length)


class LowDensityAgent(_WindowAgent):
    """Votes for samples that fall where the recent stream is sparse.

    The raw vote is ``lsf / (L * sparsity_level)`` clipped to 1, where L is
    the window length and lsf is :func:`local_sparsity` of the sample, the
    window's newest member, against the L members before it.
    """

    def __init__(self, window: SlidingWindow, length: int, sparsity_level: float):
        if not 0.0 < sparsity_level <= 1.0:
            raise ValueError(f"sparsity level must lie in (0, 1], got {sparsity_level}")
        super().__init__(window, length)
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

    def __init__(self, window: SlidingWindow, length: int):
        if length < 2:
            raise ValueError("space-filling window needs length >= 2")
        super().__init__(window, length)

    def propose(self, ctx: AcquisitionContext) -> float:
        if len(self.window) < 3:
            return 1.0  # spread undefined below two members before the sample
        to_new, near = self.window.nearest(self.length)
        gap = float(to_new.min())
        spread = float(near.max())
        if spread == 0.0:  # window collapsed onto one location
            return 1.0 if gap > 0.0 else 0.0
        return min(1.0, gap / spread)


class UncertaintyBaseline(Agent):
    """Acquires whenever model certainty sits strictly below a fixed threshold."""

    def __init__(self, threshold: float = 0.7):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
        self.threshold = float(threshold)

    def _vote(self, certainty: float) -> float:
        """All-or-nothing: acquire strictly below the threshold."""
        return 1.0 if certainty < self.threshold else 0.0

    def propose(self, ctx: AcquisitionContext) -> float:
        return self._vote(ctx.certainty)


class CertaintyThresholdAgent(UncertaintyBaseline):
    """The uncertainty vote with a moving bar and an ``epsilon`` floor.

    A positive reward (the acquired label contradicted the model) raises the
    threshold so the agent keeps acquiring; the signed penalty lowers it. The
    vote never drops below an ``epsilon`` floor of forced acquisition.
    """

    def __init__(self, threshold: float, learning_rate: float,
                 penalty: float = -0.5, epsilon: float = 0.0):
        super().__init__(threshold)
        if not (math.isfinite(learning_rate) and learning_rate > 0.0):
            raise ValueError(f"learning rate must be positive and finite, got {learning_rate}")
        if not (math.isfinite(penalty) and penalty < 0.0):
            raise ValueError("the penalty enters the update signed (negative)")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        self.learning_rate = float(learning_rate)
        self.penalty = float(penalty)
        self.epsilon = float(epsilon)

    def propose(self, ctx: AcquisitionContext) -> float:
        # _vote, not the base propose: a stream step's agent calls stay unnested
        return self.epsilon + (1.0 - self.epsilon) * self._vote(ctx.certainty)

    def reinforce(self, signed_reward: float) -> None:
        if not math.isfinite(signed_reward):
            raise ValueError("reward must be finite")
        factor = 1.0 + self.learning_rate * (1.0 - 2.0 ** (signed_reward / self.penalty))
        self.threshold = min(self.threshold * factor, 1.0)
        self.threshold = max(self.threshold, THRESHOLD_FLOOR)


class RandomBaseline(Agent):
    """Acquires at the constant rate that spends ``budget`` labels evenly over
    ``stream_len`` steps, blind to the sample."""

    def __init__(self, budget: int, stream_len: int):
        if stream_len <= 0:
            raise ValueError(f"stream length must be positive, got {stream_len}")
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        self.rate = min(budget / stream_len, 1.0)

    def propose(self, ctx: AcquisitionContext) -> float:
        return self.rate
