"""Tests for the acquisition agents and stream baselines."""

import numpy as np
import pytest

from streamacq.agents import (
    THRESHOLD_FLOOR,
    AcquisitionContext,
    CertaintyThresholdAgent,
    LowDensityAgent,
    RandomBaseline,
    SpaceFillingAgent,
    UncertaintyBaseline,
    local_sparsity,
    random_baseline_rate,
    uncertainty_vote,
)
from streamacq.core import SlidingWindow


def make_context(features, certainty=0.5):
    return AcquisitionContext(features=np.asarray(features, dtype=float),
                              certainty=certainty)


class TestLocalSparsity:
    def test_far_point_counts_both_members(self):
        win = SlidingWindow.from_points([[0.0, 0.0], [1.0, 0.0]])
        assert local_sparsity(win, [10.0, 0.0]) == 2

    def test_interior_point_counts_none(self):
        win = SlidingWindow.from_points([[0.0, 0.0], [4.0, 0.0]])
        assert local_sparsity(win, [2.0, 0.0]) == 0

    def test_singleton_window_counts_any_distinct_point(self):
        # a lone member has no co-member distance, so any separation counts
        win = SlidingWindow.from_points([[0.0]])
        assert local_sparsity(win, [1.0]) == 1
        assert local_sparsity(win, [0.0]) == 0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            local_sparsity(SlidingWindow(5), [0.0])

    def test_dimension_mismatch_rejected(self):
        win = SlidingWindow.from_points([[0.0, 0.0]])
        with pytest.raises(ValueError):
            local_sparsity(win, [0.0])

    def test_count_matches_direct_definition(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            pts = rng.normal(size=(int(rng.integers(2, 12)), 3))
            x = rng.normal(size=3)
            win = SlidingWindow.from_points(pts)
            expected = 0
            for j in range(len(pts)):
                others = [np.linalg.norm(pts[j] - pts[k])
                          for k in range(len(pts)) if k != j]
                if max(others) < np.linalg.norm(pts[j] - x):
                    expected += 1
            assert local_sparsity(win, x) == expected


class TestHelpers:
    def test_random_baseline_rate(self):
        assert random_baseline_rate(48, 480) == pytest.approx(0.1)
        assert random_baseline_rate(10, 5) == 1.0
        with pytest.raises(ValueError):
            random_baseline_rate(1, 0)
        with pytest.raises(ValueError):
            random_baseline_rate(-1, 10)

    def test_uncertainty_vote_is_strict(self):
        assert uncertainty_vote(0.69, 0.7) == 1.0
        assert uncertainty_vote(0.7, 0.7) == 0.0
        assert uncertainty_vote(0.71, 0.7) == 0.0


def pushed(capacity, points=()):
    """A window of ``capacity`` holding ``points``, pushed oldest first."""
    win = SlidingWindow(capacity)
    for p in points:
        win.push(p)
    return win


class TestLowDensityAgent:
    def test_empty_window_votes_full(self):
        agent = LowDensityAgent(SlidingWindow(10), 10, sparsity_level=0.1)
        assert agent.propose(make_context([1.0, 1.0])) == 1.0

    def test_vote_scales_with_sparsity_count(self):
        agent = LowDensityAgent(pushed(10, [[0.0, 0.0], [1.0, 0.0]]), 10,
                                sparsity_level=0.5)
        # lsf=2 against L*delta=5
        assert agent.propose(make_context([10.0, 0.0])) == pytest.approx(0.4)
        assert agent.propose(make_context([0.5, 0.0])) == 0.0

    def test_vote_clipped_at_one(self):
        agent = LowDensityAgent(pushed(10, [[0.0, 0.0], [1.0, 0.0]]), 10,
                                sparsity_level=0.01)
        assert agent.propose(make_context([10.0, 0.0])) == 1.0

    def test_reads_only_its_newest_members(self):
        """An agent of length 3 on a window of 5 votes as on a window of 3."""
        points = [[float(i), 0.0] for i in range(5)]
        shared = LowDensityAgent(pushed(5, points), 3, sparsity_level=0.5)
        alone = LowDensityAgent(pushed(3, points), 3, sparsity_level=0.5)
        assert len(shared.window) == 5
        for x in ([0.0, 0.0], [2.5, 0.0], [9.0, 0.0], [3.0, 7.0]):
            assert shared.propose(make_context(x)) == alone.propose(make_context(x))

    def test_vote_evaluated_before_insertion(self):
        win = pushed(4, [[0.0, 0.0], [1.0, 0.0]])
        agent = LowDensityAgent(win, 4, sparsity_level=0.5)
        ctx = make_context([10.0, 0.0])
        first = agent.propose(ctx)
        win.push(ctx.features)
        assert first == pytest.approx(1.0)
        # once the far point joined the window the same location looks dense
        assert agent.propose(ctx) < first

    def test_sparsity_level_validation(self):
        with pytest.raises(ValueError):
            LowDensityAgent(SlidingWindow(10), 10, sparsity_level=0.0)
        with pytest.raises(ValueError):
            LowDensityAgent(SlidingWindow(10), 10, sparsity_level=1.5)

    @pytest.mark.parametrize("length", [0, 11])
    def test_length_must_fit_the_window(self, length):
        with pytest.raises(ValueError, match=r"window length must lie in \[1, 10\]"):
            LowDensityAgent(SlidingWindow(10), length, sparsity_level=0.5)


class TestSpaceFillingAgent:
    def test_under_two_members_votes_full(self):
        win = SlidingWindow(5)
        agent = SpaceFillingAgent(win, 5)
        assert agent.propose(make_context([0.0])) == 1.0
        win.push([0.0])
        assert agent.propose(make_context([9.0])) == 1.0

    def test_gap_over_spread(self):
        agent = SpaceFillingAgent(pushed(5, [[0.0, 0.0], [2.0, 0.0]]), 5)
        # nearest gap 1, spread 2
        assert agent.propose(make_context([1.0, 0.0])) == pytest.approx(0.5)

    def test_vote_clipped_at_one(self):
        agent = SpaceFillingAgent(pushed(5, [[0.0, 0.0], [2.0, 0.0]]), 5)
        assert agent.propose(make_context([50.0, 0.0])) == 1.0

    def test_collapsed_window(self):
        agent = SpaceFillingAgent(pushed(5, [[1.0, 1.0], [1.0, 1.0]]), 5)
        assert agent.propose(make_context([1.0, 1.0])) == 0.0
        assert agent.propose(make_context([1.0, 2.0])) == 1.0

    def test_reads_only_its_newest_members(self):
        # the oldest member [0, 0] lies outside the agent's newest two
        agent = SpaceFillingAgent(pushed(3, [[0.0, 0.0], [4.0, 0.0], [6.0, 0.0]]), 2)
        # nearest gap 1 (to [4, 0]), spread 2 (between [4, 0] and [6, 0])
        assert agent.propose(make_context([3.0, 0.0])) == pytest.approx(0.5)

    def test_capacity_validation(self):
        """The length needs two members and must fit the window's capacity."""
        with pytest.raises(ValueError):
            SpaceFillingAgent(SlidingWindow(5), 1)
        with pytest.raises(ValueError):
            SpaceFillingAgent(SlidingWindow(5), 6)


class TestCertaintyThresholdAgent:
    def test_vote_is_strict_threshold(self):
        agent = CertaintyThresholdAgent(threshold=0.95, learning_rate=0.01)
        assert agent.propose(make_context([0.0], certainty=0.94)) == 1.0
        assert agent.propose(make_context([0.0], certainty=0.95)) == 0.0

    def test_informative_reward_raises_threshold(self):
        agent = CertaintyThresholdAgent(threshold=0.95, learning_rate=0.01)
        agent.reinforce(1.0)
        assert agent.threshold == pytest.approx(0.957125)

    def test_redundant_penalty_lowers_threshold(self):
        agent = CertaintyThresholdAgent(threshold=0.95, learning_rate=0.01)
        agent.reinforce(-0.5)
        assert agent.threshold == pytest.approx(0.9405)

    def test_threshold_capped_at_one(self):
        agent = CertaintyThresholdAgent(threshold=1.0, learning_rate=0.5)
        agent.reinforce(1.0)
        assert agent.threshold == 1.0

    def test_threshold_floored(self):
        agent = CertaintyThresholdAgent(threshold=1e-6, learning_rate=0.9)
        for _ in range(200):
            agent.reinforce(-0.5)
        assert agent.threshold >= THRESHOLD_FLOOR

    def test_validation(self):
        with pytest.raises(ValueError):
            CertaintyThresholdAgent(threshold=0.0, learning_rate=0.01)
        with pytest.raises(ValueError):
            CertaintyThresholdAgent(threshold=0.9, learning_rate=0.0)
        with pytest.raises(ValueError):
            CertaintyThresholdAgent(threshold=0.9, learning_rate=0.1, penalty=0.5)
        agent = CertaintyThresholdAgent(threshold=0.9, learning_rate=0.1)
        with pytest.raises(ValueError):
            agent.reinforce(float("nan"))

    def test_epsilon_floor(self):
        agent = CertaintyThresholdAgent(threshold=0.9, learning_rate=0.01, epsilon=0.01)
        # at or above the threshold the vote is the floor; below it, certain
        assert agent.propose(make_context([0.0], certainty=0.95)) == 0.01
        assert agent.propose(make_context([0.0], certainty=0.9)) == 0.01
        assert agent.propose(make_context([0.0], certainty=0.5)) == 1.0
        agent = CertaintyThresholdAgent(threshold=0.9, learning_rate=0.01, epsilon=1.0)
        assert agent.propose(make_context([0.0], certainty=0.95)) == 1.0

    def test_epsilon_leaves_reinforce_unchanged(self):
        agent = CertaintyThresholdAgent(threshold=0.95, learning_rate=0.01, epsilon=0.2)
        agent.reinforce(1.0)
        assert agent.threshold == pytest.approx(0.957125)
        assert agent.epsilon == 0.2

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            CertaintyThresholdAgent(threshold=0.9, learning_rate=0.01, epsilon=epsilon)


class TestBaselines:
    def test_random_baseline_votes_its_rate(self):
        agent = RandomBaseline(rate=0.1)
        assert agent.propose(make_context([0.0], certainty=0.99)) == 0.1
        with pytest.raises(ValueError):
            RandomBaseline(rate=1.2)

    def test_uncertainty_baseline(self):
        agent = UncertaintyBaseline()
        assert agent.threshold == 0.7
        assert agent.propose(make_context([0.0], certainty=0.69)) == 1.0
        assert agent.propose(make_context([0.0], certainty=0.70)) == 0.0
