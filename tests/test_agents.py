"""Tests for the acquisition agents and stream baselines."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamacq.agents import (
    THRESHOLD_FLOOR,
    AcquisitionContext,
    CertaintyThresholdAgent,
    LowDensityAgent,
    RandomBaseline,
    SpaceFillingAgent,
    UncertaintyBaseline,
    local_sparsity,
)
from streamacq.core import SlidingWindow


def make_context(features, certainty=0.5):
    return AcquisitionContext(features=np.asarray(features, dtype=float),
                              certainty=certainty)


def with_candidate(points, x):
    """A window of ``points`` with room for ``x``, then ``x`` pushed."""
    win = SlidingWindow.from_points(points, capacity=len(points) + 1)
    win.push(x)
    return win


class TestLocalSparsity:
    def test_far_point_counts_both_members(self):
        win = with_candidate([[0.0, 0.0], [1.0, 0.0]], [10.0, 0.0])
        assert local_sparsity(win) == 2

    def test_interior_point_counts_none(self):
        win = with_candidate([[0.0, 0.0], [4.0, 0.0]], [2.0, 0.0])
        assert local_sparsity(win) == 0

    def test_singleton_window_counts_any_distinct_point(self):
        # a lone member has no co-member distance, so any separation counts
        assert local_sparsity(with_candidate([[0.0]], [1.0])) == 1
        assert local_sparsity(with_candidate([[0.0]], [0.0])) == 0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window is empty"):
            local_sparsity(SlidingWindow(5))

    def test_dimension_mismatch_rejected(self):
        """The candidate enters through the push, which checks its dimension."""
        with pytest.raises(ValueError, match="dimension mismatch"):
            with_candidate([[0.0, 0.0]], [0.0])

    def test_count_matches_direct_definition(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            pts = rng.normal(size=(int(rng.integers(2, 12)), 3))
            x = rng.normal(size=3)
            win = with_candidate(pts, x)
            expected = 0
            for j in range(len(pts)):
                others = [np.linalg.norm(pts[j] - pts[k])
                          for k in range(len(pts)) if k != j]
                if max(others) < np.linalg.norm(pts[j] - x):
                    expected += 1
            assert local_sparsity(win) == expected

    def test_count_matches_a_rescan_of_the_pushed_points(self):
        """The count equals a rescan of the pushed points with the push's
        distance formula, lone members at 0, for every k, empty and singleton
        spans included, on windows with duplicate points and tied distances."""
        def rescan(members, k):
            *before, new = members
            before = before[len(before) - min(len(before) if k is None else k, len(before)):]
            count = 0
            for j, p in enumerate(before):
                others = np.array([q for i, q in enumerate(before) if i != j]).reshape(-1, 2)
                far = np.sqrt(((others - p) ** 2).sum(axis=1)).max(initial=0.0)
                count += far < np.sqrt(((p - new) ** 2).sum())
            return count

        rng = np.random.default_rng(15)
        for trial in range(40):
            capacity = int(rng.integers(1, 12))
            win, members = SlidingWindow(capacity), []
            for _ in range(int(rng.integers(1, 3 * capacity + 2))):
                v = np.round(rng.normal(size=2), int(rng.integers(0, 2)))
                win.push(v)
                members = [*members, v][-capacity:]
                for k in [None, *range(capacity)]:
                    assert local_sparsity(win, k) == rescan(members, k), trial


def pushed(capacity, points=()):
    """A window of ``capacity`` holding ``points``, pushed oldest first."""
    win = SlidingWindow(capacity)
    for p in points:
        win.push(p)
    return win


def vote(agent, x):
    """Push ``x`` into the agent's window, as the stream runner does, then vote."""
    agent.window.push(x)
    return agent.propose(make_context(x))


def voter(make, points, capacity, *args, **kwargs):
    """``make(window, ...)`` on a fresh window of ``points`` for every vote."""
    return lambda x: vote(make(pushed(capacity, points), *args, **kwargs), x)


class TestLowDensityAgent:
    def test_empty_window_votes_full(self):
        """The sample alone in the window: no density evidence yet."""
        agent = LowDensityAgent(SlidingWindow(11), 10, sparsity_level=0.1)
        assert vote(agent, [1.0, 1.0]) == 1.0

    def test_vote_scales_with_sparsity_count(self):
        propose = voter(LowDensityAgent, [[0.0, 0.0], [1.0, 0.0]], 11, 10,
                        sparsity_level=0.5)
        # lsf=2 against L*delta=5
        assert propose([10.0, 0.0]) == pytest.approx(0.4)
        assert propose([0.5, 0.0]) == 0.0

    def test_vote_clipped_at_one(self):
        propose = voter(LowDensityAgent, [[0.0, 0.0], [1.0, 0.0]], 11, 10,
                        sparsity_level=0.01)
        assert propose([10.0, 0.0]) == 1.0

    def test_reads_only_its_newest_members(self):
        """An agent of length 3 on a window of 5 votes as on a window of 3."""
        points = [[float(i), 0.0] for i in range(5)]
        shared = voter(LowDensityAgent, points, 6, 3, sparsity_level=0.5)
        alone = voter(LowDensityAgent, points, 4, 3, sparsity_level=0.5)
        for x in ([0.0, 0.0], [2.5, 0.0], [9.0, 0.0], [3.0, 7.0]):
            assert shared(x) == alone(x)

    def test_vote_evaluated_before_insertion(self):
        """The sample is compared with the members before it, not with itself."""
        agent = LowDensityAgent(pushed(5, [[0.0, 0.0], [1.0, 0.0]]), 4,
                                sparsity_level=0.5)
        first = vote(agent, [10.0, 0.0])
        assert first == pytest.approx(1.0)
        # once the far point joined the window the same location looks dense
        assert vote(agent, [10.0, 0.0]) < first

    def test_sparsity_level_validation(self):
        with pytest.raises(ValueError):
            LowDensityAgent(SlidingWindow(11), 10, sparsity_level=0.0)
        with pytest.raises(ValueError):
            LowDensityAgent(SlidingWindow(11), 10, sparsity_level=1.5)

    @pytest.mark.parametrize("length", [0, 11])
    def test_length_must_fit_the_window(self, length):
        """The window keeps one slot beyond the length for the sample."""
        with pytest.raises(ValueError, match=r"window length must lie in \[1, 10\]"):
            LowDensityAgent(SlidingWindow(11), length, sparsity_level=0.5)


class TestSpaceFillingAgent:
    def test_under_two_members_votes_full(self):
        agent = SpaceFillingAgent(SlidingWindow(6), 5)
        assert vote(agent, [0.0]) == 1.0
        assert vote(agent, [9.0]) == 1.0

    def test_gap_over_spread(self):
        propose = voter(SpaceFillingAgent, [[0.0, 0.0], [2.0, 0.0]], 6, 5)
        # nearest gap 1, spread 2
        assert propose([1.0, 0.0]) == pytest.approx(0.5)

    def test_vote_clipped_at_one(self):
        propose = voter(SpaceFillingAgent, [[0.0, 0.0], [2.0, 0.0]], 6, 5)
        assert propose([50.0, 0.0]) == 1.0

    def test_collapsed_window(self):
        propose = voter(SpaceFillingAgent, [[1.0, 1.0], [1.0, 1.0]], 6, 5)
        assert propose([1.0, 1.0]) == 0.0
        assert propose([1.0, 2.0]) == 1.0

    def test_reads_only_its_newest_members(self):
        # the oldest member [0, 0] lies outside the agent's newest two
        agent = SpaceFillingAgent(pushed(4, [[0.0, 0.0], [4.0, 0.0], [6.0, 0.0]]), 2)
        # nearest gap 1 (to [4, 0]), spread 2 (between [4, 0] and [6, 0])
        assert vote(agent, [3.0, 0.0]) == pytest.approx(0.5)

    def test_capacity_validation(self):
        """The length needs two members and must leave the window a slot for
        the sample."""
        with pytest.raises(ValueError):
            SpaceFillingAgent(SlidingWindow(5), 1)
        with pytest.raises(ValueError, match=r"window length must lie in \[1, 4\]"):
            SpaceFillingAgent(SlidingWindow(5), 5)


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

    @given(threshold=st.floats(0.0, 1.0, exclude_min=True),
           learning_rate=st.floats(1e-6, 1.0),
           epsilon=st.floats(0.0, 1.0), data=st.data())
    def test_vote_is_the_floored_uncertainty_vote(self, threshold, learning_rate,
                                                  epsilon, data):
        """Bit for bit ``e + (1 - e)`` times the uncertainty baseline's vote at
        the same threshold, at the threshold itself too."""
        certainty = data.draw(st.just(threshold) | st.floats(0.5, 1.0))
        ctx = make_context([0.0], certainty=certainty)
        vote = CertaintyThresholdAgent(threshold, learning_rate, epsilon=epsilon).propose(ctx)
        expected = epsilon + (1.0 - epsilon) * UncertaintyBaseline(threshold).propose(ctx)
        assert vote.hex() == expected.hex()

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, float("nan")])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            CertaintyThresholdAgent(threshold=0.9, learning_rate=0.01, epsilon=epsilon)


class TestBaselines:
    def test_random_baseline_votes_its_rate(self):
        agent = RandomBaseline(48, 480)
        assert agent.propose(make_context([0.0], certainty=0.99)) == 0.1
        assert RandomBaseline(10, 5).rate == 1.0  # a budget above the stream
        with pytest.raises(ValueError, match="stream length must be positive"):
            RandomBaseline(1, 0)
        with pytest.raises(ValueError, match="budget must be nonnegative"):
            RandomBaseline(-1, 10)

    def test_uncertainty_baseline(self):
        agent = UncertaintyBaseline()
        assert agent.threshold == 0.7
        assert agent.propose(make_context([0.0], certainty=0.69)) == 1.0
        assert agent.propose(make_context([0.0], certainty=0.70)) == 0.0
        assert agent.propose(make_context([0.0], certainty=0.71)) == 0.0
