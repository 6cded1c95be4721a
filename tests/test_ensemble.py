"""Tests for the weighted expert ensemble and its monitoring chart."""

import math

import numpy as np
import pytest

from streamacq.ensemble import (
    ARM_ACQUIRE,
    ARM_PASS,
    N_ARMS,
    WEIGHT_FLOOR,
    ExpertState,
    JointDecision,
    RewardSpec,
    SolverConfig,
    WeightedEnsemble,
    step_reward,
)


class StubGenerator:
    """Deterministic stand-in for a numpy Generator; returns fixed uniforms."""

    def __init__(self, value=0.0):
        self.value = value

    def random(self):
        return self.value


def make_ensemble(n_experts, weights=None, **kwargs):
    ens = WeightedEnsemble(SolverConfig(n_experts=n_experts, **kwargs))
    if weights is not None:
        for expert, w in zip(ens.experts, weights):
            expert.weight = float(w)
    return ens


class TestRewardSpec:
    def test_defaults_and_signed_view(self):
        spec = RewardSpec()
        assert spec.informative == 1.0
        assert spec.redundant == 0.5
        assert spec.signed_redundant == -0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RewardSpec(informative=0.0)
        with pytest.raises(ValueError):
            RewardSpec(informative=0.5, redundant=0.5)
        with pytest.raises(ValueError):
            RewardSpec(informative=1.5)
        RewardSpec(informative=1.0, redundant=0.999)

    def test_step_reward_cases(self):
        assert step_reward(True, predicted=0, label=1) == 1.0
        assert step_reward(True, predicted=1, label=1) == 0.5
        assert step_reward(False, predicted=0, label=1) == 0.0


class TestSolverConfig:
    def test_default_exploration_floor(self):
        cfg = SolverConfig(n_experts=6)
        assert cfg.resolved_p_min == pytest.approx(math.sqrt(math.log(6) / (2 * 2000)))

    def test_single_expert_floor_vanishes(self):
        assert SolverConfig(n_experts=1).resolved_p_min == 0.0

    def test_floor_capped_at_half(self):
        cfg = SolverConfig(n_experts=50, horizon=1)
        assert cfg.resolved_p_min == 0.5

    def test_explicit_floor_wins(self):
        assert SolverConfig(n_experts=6, p_min=0.1).resolved_p_min == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n_experts=0)
        with pytest.raises(ValueError):
            SolverConfig(n_experts=2, p_min=0.6)
        with pytest.raises(ValueError):
            SolverConfig(n_experts=2, ewma_weight=0.0)
        with pytest.raises(ValueError):
            SolverConfig(n_experts=2, flip_warmup=1)


class TestExpertState:
    def test_running_variance_matches_numpy(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=40)
        state = ExpertState()
        for v in values:
            state.record(float(v))
        assert state.variance == pytest.approx(np.var(values, ddof=1))

    def test_variance_zero_below_two_observations(self):
        state = ExpertState()
        assert state.variance == 0.0
        state.record(0.4)
        assert state.variance == 0.0


class TestDecide:
    def test_symmetric_experts_split_evenly(self):
        ens = make_ensemble(2, p_min=0.1)
        probs = ens.arm_probabilities([1.0, 0.0])
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_weighted_mixture_hand_value(self):
        ens = make_ensemble(2, weights=[3.0, 1.0], p_min=0.1)
        probs = ens.arm_probabilities([1.0, 0.0])
        np.testing.assert_allclose(probs, [0.7, 0.3])

    def test_consensus_without_floor(self):
        ens = make_ensemble(3, p_min=0.0)
        decision = ens.decide([1.0, 1.0, 1.0], StubGenerator(0.999999))
        np.testing.assert_allclose(decision.probs, [1.0, 0.0])
        assert decision.acquired

    def test_sampling_uses_acquire_probability(self):
        ens = make_ensemble(2, p_min=0.1)
        assert ens.decide([1.0, 0.0], StubGenerator(0.49)).arm == ARM_ACQUIRE
        assert ens.decide([1.0, 0.0], StubGenerator(0.51)).arm == ARM_PASS

    def test_probability_invariants_over_random_states(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            ens = make_ensemble(n, weights=rng.uniform(0.01, 100.0, size=n))
            p_min = ens.config.resolved_p_min
            probs = ens.arm_probabilities(rng.uniform(0.0, 1.0, size=n))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= p_min - 1e-15)
            assert np.all(probs <= 1.0 - p_min + 1e-15)

    def test_vote_validation(self):
        ens = make_ensemble(2)
        with pytest.raises(ValueError):
            ens.arm_probabilities([0.5])
        with pytest.raises(ValueError):
            ens.arm_probabilities([0.5, 1.5])
        with pytest.raises(ValueError):
            ens.arm_probabilities([0.5, float("nan")])


class TestUpdateWeights:
    def test_importance_weighted_gain_hand_value(self):
        """Full credit at even odds multiplies the weight by e^0.1."""
        ens = make_ensemble(1, p_min=0.1)
        decision = JointDecision(probs=np.array([0.5, 0.5]), arm=ARM_ACQUIRE)
        ens.update_weights([1.0], decision, reward=1.0)
        assert ens.experts[0].weight == pytest.approx(math.exp(0.1))

    def test_zero_reward_leaves_single_expert_unchanged(self):
        ens = make_ensemble(1, p_min=0.1)
        decision = JointDecision(probs=np.array([0.5, 0.5]), arm=ARM_ACQUIRE)
        ens.update_weights([1.0], decision, reward=0.0)
        assert ens.experts[0].weight == 1.0

    def test_wrong_arm_vote_gets_no_gain(self):
        ens = make_ensemble(1, p_min=0.1)
        decision = JointDecision(probs=np.array([0.5, 0.5]), arm=ARM_ACQUIRE)
        ens.update_weights([0.0], decision, reward=1.0)
        assert ens.experts[0].weight == 1.0

    def test_vanishing_floor_is_a_no_op(self):
        ens = make_ensemble(1)  # auto floor resolves to zero
        decision = JointDecision(probs=np.array([1.0, 0.0]), arm=ARM_ACQUIRE)
        ens.update_weights([1.0], decision, reward=1.0)
        assert ens.experts[0].weight == 1.0

    def test_reward_validation(self):
        ens = make_ensemble(2)
        decision = JointDecision(probs=np.array([0.5, 0.5]), arm=ARM_ACQUIRE)
        with pytest.raises(ValueError):
            ens.update_weights([1.0, 0.0], decision, reward=1.5)

    def test_weights_stay_positive_over_random_steps(self):
        """Long random interaction never drives a weight out of (0, inf)."""
        rng = np.random.default_rng(2718)
        ens = make_ensemble(3)
        rewards = np.array([0.0, 0.5, 1.0])
        for _ in range(10_000):
            votes = rng.uniform(0.0, 1.0, size=3)
            decision = ens.decide(votes, rng)
            reward = float(rng.choice(rewards)) if decision.acquired else 0.0
            ens.update_weights(votes, decision, reward)
            ens.ewma_step()
            for expert in ens.experts:
                assert expert.weight > 0.0
                assert math.isfinite(expert.weight)


class TestEwmaChart:
    def test_statistic_update_hand_value(self):
        ens = make_ensemble(2, weights=[9.0, 1.0], monitor=False)
        ens.ewma_step()
        assert ens.experts[0].ewma == pytest.approx(0.3 * 0.9 + 0.7 * 0.5)
        assert ens.experts[1].ewma == pytest.approx(0.3 * 0.1 + 0.7 * 0.5)

    def test_out_of_limits_reflects_all_weights(self):
        ens = make_ensemble(2, weights=[9.0, 1.0], flip_warmup=2)
        for expert in ens.experts:  # pretend warm-up already passed
            expert.obs_count = 10
            expert.obs_m2 = 9 * 0.01  # running variance 0.01
        flipped = ens.ewma_step()
        assert flipped
        assert ens.flips == 1
        np.testing.assert_allclose(ens.standardized_weights(), [0.1, 0.9])
        # total decision power is preserved by the reflection
        assert sum(e.weight for e in ens.experts) == pytest.approx(10.0)
        # the statistic restarts from the reflected weights
        assert ens.experts[0].ewma == pytest.approx(0.1)
        assert ens.experts[1].ewma == pytest.approx(0.9)

    def test_inside_limits_changes_nothing(self):
        ens = make_ensemble(2, weights=[1.02, 0.98], flip_warmup=2)
        for expert in ens.experts:
            expert.obs_count = 10
            expert.obs_m2 = 9 * 1.0  # huge variance, huge limits
        assert not ens.ewma_step()
        np.testing.assert_allclose(ens.standardized_weights(), [0.51, 0.49])

    def test_warmup_blocks_early_flips(self):
        ens = make_ensemble(2, weights=[9.0, 1.0], flip_warmup=5)
        for _ in range(4):
            assert not ens.ewma_step()

    def test_monitor_disabled_never_flips(self):
        ens = make_ensemble(2, weights=[9.0, 1.0], monitor=False)
        for _ in range(50):
            assert not ens.ewma_step()
        assert ens.flips == 0

    def test_reflection_clamps_and_renormalizes(self):
        """A dominant expert reflects below zero and lands on the floor."""
        weights = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
        ens = make_ensemble(6, weights=weights, flip_warmup=2)
        for expert in ens.experts:
            expert.obs_count = 10
            expert.obs_m2 = 0.0  # zero variance, zero-width limits
        assert ens.ewma_step()
        standardized = ens.standardized_weights()
        assert standardized.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(standardized > 0.0)
        assert standardized[0] == min(standardized)
        raw = 2.0 / 6.0 - np.asarray(weights)
        raw_clamped = np.maximum(raw, WEIGHT_FLOOR)
        np.testing.assert_allclose(standardized, raw_clamped / raw_clamped.sum())
        assert sum(e.weight for e in ens.experts) == pytest.approx(1.0)

    def test_limits_widen_every_step(self):
        ens = make_ensemble(2, horizon=100, monitor=False)
        widths = [ens.limit_width]
        for _ in range(5):
            ens.ewma_step()
            widths.append(ens.limit_width)
        growth = np.diff(np.log(widths))
        np.testing.assert_allclose(growth, (np.arange(5) + 1) / 100.0)

    def test_limit_width_capped(self):
        ens = make_ensemble(2, horizon=1, monitor=False)
        for _ in range(800):
            ens.ewma_step()
        assert ens.limit_width <= 1e300

    def test_favored_expert_dominates_without_monitoring(self):
        """All credit to one expert makes its share nondecreasing, the other's
        nonincreasing, once monitoring is off."""
        ens = make_ensemble(2, monitor=False)
        stub = StubGenerator(0.0)  # always lands on the acquire arm
        votes = [1.0, 0.0]
        favored, other = [], []
        for _ in range(300):
            decision = ens.decide(votes, stub)
            assert decision.acquired
            ens.update_weights(votes, decision, reward=1.0)
            ens.ewma_step()
            share = ens.standardized_weights()
            favored.append(share[0])
            other.append(share[1])
        assert ens.flips == 0
        assert np.all(np.diff(favored) >= -1e-15)
        assert np.all(np.diff(other) <= 1e-15)
        assert favored[-1] > favored[0]
