"""Tests for the weighted expert ensemble and its monitoring chart."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from streamacq.ensemble import (
    ARM_ACQUIRE,
    ARM_PASS,
    N_ARMS,
    WEIGHT_FLOOR,
    JointDecision,
    SolverConfig,
    WeightedEnsemble,
)


class StubGenerator:
    """Deterministic stand-in for a numpy Generator; returns fixed uniforms."""

    def __init__(self, value=0.0):
        self.value = value

    def random(self):
        return self.value


def make_ensemble(n_experts, weights=None, **kwargs):
    ens = WeightedEnsemble(SolverConfig(**kwargs), n_experts)
    if weights is not None:
        ens.set_weights(weights)
    return ens


def even_odds_acquire(votes):
    """An acquire decision at probabilities (0.5, 0.5) on the given votes."""
    return JointDecision(probs=(0.5, 0.5), arm=ARM_ACQUIRE, votes=tuple(votes))


def chart_variance(ens):
    """Sample variance of each expert's recorded standardized weights, from
    the chart's Welford moments; zero below two records."""
    if ens.steps < 2:
        return np.zeros(ens.n_experts)
    return np.array(ens.obs_m2) / (ens.steps - 1)


class TestSolverConfig:
    def test_default_exploration_floor(self):
        ens = make_ensemble(6)
        assert ens.p_min == pytest.approx(math.sqrt(math.log(6) / (2 * 2000)))

    def test_single_expert_floor_vanishes(self):
        assert make_ensemble(1).p_min == 0.0

    def test_floor_capped_at_half(self):
        assert make_ensemble(50, horizon=1).p_min == 0.5

    def test_explicit_floor_wins(self):
        assert make_ensemble(6, p_min=0.1).p_min == 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one expert"):
            WeightedEnsemble(SolverConfig(), 0)
        with pytest.raises(ValueError):
            SolverConfig(p_min=0.6)
        with pytest.raises(ValueError):
            SolverConfig(ewma_weight=0.0)
        with pytest.raises(ValueError):
            SolverConfig(flip_warmup=1)


class TestChartVariance:
    def test_running_variance_matches_numpy(self):
        rng = np.random.default_rng(8)
        ens = make_ensemble(3, monitor=False)
        recorded = []
        for _ in range(40):
            ens.set_weights(rng.uniform(0.01, 10.0, size=3))
            recorded.append(np.array(ens.standardized))
            ens.ewma_step()
        assert ens.steps == 40
        np.testing.assert_allclose(chart_variance(ens), np.var(recorded, axis=0, ddof=1),
                                   rtol=1e-12)

    def test_variance_zero_below_two_records(self):
        """One record leaves the chart's M2 at exactly zero."""
        ens = make_ensemble(2, weights=[3.0, 1.0], monitor=False)
        np.testing.assert_array_equal(ens.obs_m2, [0.0, 0.0])
        ens.ewma_step()
        np.testing.assert_array_equal(ens.obs_m2, [0.0, 0.0])


class TestDecide:
    def test_symmetric_experts_split_evenly(self):
        ens = make_ensemble(2, p_min=0.1)
        probs = ens.decide([1.0, 0.0], StubGenerator()).probs
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_weighted_mixture_hand_value(self):
        ens = make_ensemble(2, weights=[3.0, 1.0], p_min=0.1)
        probs = ens.decide([1.0, 0.0], StubGenerator()).probs
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
            p_min = ens.p_min
            probs = np.array(ens.decide(rng.uniform(0.0, 1.0, size=n), StubGenerator()).probs)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= p_min - 1e-15)
            assert np.all(probs <= 1.0 - p_min + 1e-15)

    def test_vote_validation(self):
        ens = make_ensemble(2)
        with pytest.raises(ValueError):
            ens.decide([0.5], StubGenerator())
        with pytest.raises(ValueError):
            ens.decide([0.5, 1.5], StubGenerator())
        with pytest.raises(ValueError):
            ens.decide([0.5, float("nan")], StubGenerator())


class TestStateAttributes:
    def test_weight_assignments_are_checked(self):
        ens = make_ensemble(3)
        ens.set_weights([0.5, 0.25, 0.125])
        assert_same_bits(ens.weights, [0.5, 0.25, 0.125])
        assert all(type(w) is float for w in ens.weights)
        with pytest.raises(ValueError, match="expected 3 weights, got 2"):
            ens.set_weights([0.5, 0.25])
        with pytest.raises(AttributeError):
            ens.weights = [0.5, 0.25, 0.125]

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0],
                                         [-1.0, 2.0], [0.0, 0.0], [0.0, 1.0],
                                         [1e308, 1e308]],
                             ids=["nan", "nan-last", "inf", "negative", "zeros", "one-zero",
                                  "sum-overflows"])
    def test_weights_that_break_the_solver_are_rejected(self, weights):
        """A NaN, infinite or non-positive weight, or a sum that overflows,
        fails with a message and leaves the weights as they were."""
        ens = make_ensemble(2, weights=[3.0, 1.0])
        with pytest.raises(ValueError, match="positive and finite"):
            ens.set_weights(weights)
        assert ens.weights == (3.0, 1.0) and ens.standardized == (0.75, 0.25)

    def test_standardized_follows_every_weight_change(self):
        """After an assignment, an update, a rescale and a reflection,
        ``standardized`` holds ``weights / weights.sum()`` bit for bit."""
        ens = make_ensemble(3, weights=[2.0 ** 511, 1.0, 3.0], horizon=1,
                            limit_width=0.01, flip_warmup=2)

        def check():
            weights = np.array(ens.weights)
            assert all(type(s) is float for s in ens.standardized)
            assert_same_bits(ens.standardized, weights / weights.sum())

        check()
        rng = np.random.default_rng(5)
        for _ in range(40):
            ens.update_weights(ens.decide(rng.random(3).tolist(), rng), float(rng.random()))
            check()
            ens.ewma_step()
            check()
        assert ens.flips > 0 and max(ens.weights) < 2.0 ** 511


class TestUpdateWeights:
    def test_importance_weighted_gain_hand_value(self):
        """Full credit at even odds multiplies the weight by e^0.1."""
        ens = make_ensemble(1, p_min=0.1)
        ens.update_weights(even_odds_acquire([1.0]), reward=1.0)
        assert ens.weights[0] == pytest.approx(math.exp(0.1))

    def test_zero_reward_leaves_single_expert_unchanged(self):
        ens = make_ensemble(1, p_min=0.1)
        ens.update_weights(even_odds_acquire([1.0]), reward=0.0)
        assert ens.weights[0] == 1.0

    def test_wrong_arm_vote_gets_no_gain(self):
        ens = make_ensemble(1, p_min=0.1)
        ens.update_weights(even_odds_acquire([0.0]), reward=1.0)
        assert ens.weights[0] == 1.0

    def test_vanishing_floor_is_a_no_op(self):
        ens = make_ensemble(1)  # auto floor resolves to zero
        decision = JointDecision(probs=(1.0, 0.0), arm=ARM_ACQUIRE, votes=(1.0,))
        ens.update_weights(decision, reward=1.0)
        assert ens.weights[0] == 1.0

    def test_reward_validation(self):
        ens = make_ensemble(2)
        with pytest.raises(ValueError):
            ens.update_weights(even_odds_acquire([1.0, 0.0]), reward=1.5)

    def test_decision_for_another_roster_size_is_rejected(self):
        """A decision built for two experts fails on a three-expert ensemble
        before any state moves."""
        ens = make_ensemble(3, weights=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="decision carries 2 votes, the ensemble has 3"):
            ens.update_weights(even_odds_acquire([1.0, 0.0]), reward=1.0)
        assert ens.weights == (1.0, 2.0, 3.0)
        assert ens.standardized == tuple(w / 6.0 for w in (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("probs, arm, message", [
        ((1.0, 0.0), ARM_ACQUIRE, r"probabilities must lie in \[p_min, 1\] = \[0.1, 1\]"),
        ((0.5, math.nan), ARM_ACQUIRE, r"probabilities must lie in \[p_min, 1\]"),
        ((0.5, 0.5), -1, "decision arm must be 0 or 1, got -1"),
    ], ids=["zero-probability", "nan-probability", "negative-arm"])
    def test_hand_built_decision_is_rejected_before_any_state_moves(self, probs, arm, message):
        """A decision ``decide`` could not have made fails with a message: a
        zero probability would divide by zero, a NaN would reach the weights,
        and arm -1 would read the pass probability as the played arm's."""
        ens = make_ensemble(2, weights=[1.0, 3.0], p_min=0.1)
        with pytest.raises(ValueError, match=message):
            ens.update_weights(JointDecision(probs=probs, arm=arm, votes=(1.0, 0.0)),
                               reward=1.0)
        assert ens.weights == (1.0, 3.0)
        assert ens.standardized == (0.25, 0.75)

    def test_weights_stay_positive_over_random_steps(self):
        """Long random interaction never drives a weight out of (0, inf)."""
        rng = np.random.default_rng(2718)
        ens = make_ensemble(3)
        rewards = np.array([0.0, 0.5, 1.0])
        for _ in range(10_000):
            votes = rng.uniform(0.0, 1.0, size=3)
            decision = ens.decide(votes, rng)
            reward = float(rng.choice(rewards)) if decision.acquired else 0.0
            ens.update_weights(decision, reward)
            ens.ewma_step()
            assert np.all(np.array(ens.weights) > 0.0)
            assert np.all(np.isfinite(ens.weights))

    def test_long_stream_at_horizon_one_keeps_its_bits(self):
        """At ``horizon=1`` a weight can grow by e^0.8 per step, which would
        overflow within a few thousand steps; the weights are rescaled by
        powers of two instead, so an ensemble started at weights 2^-600
        lower, which rescales at other steps, exports the same bits at every
        step."""
        rng = np.random.default_rng(31)
        ens = make_ensemble(2, horizon=1)
        low = make_ensemble(2, weights=[2.0 ** -600] * 2, horizon=1)
        for _ in range(4000):
            votes = rng.uniform(0.0, 1.0, size=2)
            u = float(rng.random())
            decisions = [e.decide(votes, StubGenerator(u)) for e in (ens, low)]
            assert_same_bits(decisions[1].probs, decisions[0].probs)
            reward = float(rng.random()) if decisions[0].acquired else 0.0
            for e, decision in zip((ens, low), decisions):
                e.update_weights(decision, reward)
                e.ewma_step()
            assert np.all(np.isfinite(ens.weights))
            assert_same_bits(low.standardized, ens.standardized)
        assert max(ens.weights) < 2.0 ** 600


class TestEwmaChart:
    def test_statistic_update_hand_value(self):
        ens = make_ensemble(2, weights=[9.0, 1.0], monitor=False)
        ens.ewma_step()
        assert ens.ewma[0] == pytest.approx(0.3 * 0.9 + 0.7 * 0.5)
        assert ens.ewma[1] == pytest.approx(0.3 * 0.1 + 0.7 * 0.5)

    def test_out_of_limits_reflects_all_weights(self):
        ens = make_ensemble(2, weights=[9.0, 1.0], flip_warmup=2)
        ens.steps = 10  # pretend warm-up already passed
        ens.obs_m2 = [9 * 0.01] * 2  # running variance 0.01
        flipped = ens.ewma_step()
        assert flipped
        assert ens.flips == 1
        np.testing.assert_allclose(ens.standardized, [0.1, 0.9])
        # total decision power is preserved by the reflection
        assert np.array(ens.weights).sum() == pytest.approx(10.0)
        # the statistic restarts from the reflected weights
        assert ens.ewma[0] == pytest.approx(0.1)
        assert ens.ewma[1] == pytest.approx(0.9)

    def test_inside_limits_changes_nothing(self):
        ens = make_ensemble(2, weights=[1.02, 0.98], flip_warmup=2)
        ens.steps = 10
        ens.obs_m2 = [9 * 1.0] * 2  # huge variance, huge limits
        assert not ens.ewma_step()
        np.testing.assert_allclose(ens.standardized, [0.51, 0.49])

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
        ens.steps = 10
        ens.obs_m2 = [0.0] * 6  # zero variance, zero-width limits
        assert ens.ewma_step()
        standardized = np.array(ens.standardized)
        assert standardized.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(standardized > 0.0)
        assert standardized[0] == min(standardized)
        raw = 2.0 / 6.0 - np.asarray(weights)
        raw_clamped = np.maximum(raw, WEIGHT_FLOOR)
        np.testing.assert_allclose(standardized, raw_clamped / raw_clamped.sum())
        assert np.array(ens.weights).sum() == pytest.approx(1.0)

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
            ens.update_weights(decision, reward=1.0)
            ens.ewma_step()
            share = ens.standardized
            favored.append(share[0])
            other.append(share[1])
        assert ens.flips == 0
        assert np.all(np.diff(favored) >= -1e-15)
        assert np.all(np.diff(other) <= 1e-15)
        assert favored[-1] > favored[0]


@dataclass
class ReferenceExpert:
    """One expert's weight, EWMA statistic and Welford moments, as scalars."""

    weight: float = 1.0
    ewma: float = 0.0
    obs_count: int = 0
    obs_mean: float = 0.0
    obs_m2: float = 0.0

    def record(self, value):
        self.obs_count += 1
        delta = value - self.obs_mean
        self.obs_mean += delta / self.obs_count
        self.obs_m2 += delta * (value - self.obs_mean)

    @property
    def variance(self):
        if self.obs_count < 2:
            return 0.0
        return self.obs_m2 / (self.obs_count - 1)


class ReferenceEnsemble:
    """The solver written out one expert at a time: Python sums, ``math.exp``
    per expert, a Welford record per expert, and a per-expert reflection.
    The array solver must reproduce it bit for bit."""

    def __init__(self, config, n_experts):
        self.config = config
        self.n_experts = n_experts
        self.bonus = math.sqrt(math.log(n_experts) / (N_ARMS * config.horizon))
        self.p_min = (config.p_min if config.p_min is not None
                      else min(self.bonus, 1.0 / N_ARMS))
        self.experts = [ReferenceExpert(weight=1.0, ewma=1.0 / n_experts)
                        for _ in range(n_experts)]
        self.limit_width = float(config.limit_width)
        self.steps = 0
        self.flips = 0

    def standardized_weights(self):
        total = sum(e.weight for e in self.experts)
        return np.array([e.weight / total for e in self.experts])

    def decide(self, votes, u):
        v = np.asarray(votes, dtype=float)
        advice = np.column_stack([v, 1.0 - v])
        weights = np.array([e.weight for e in self.experts])
        mix = weights @ advice / weights.sum()
        probs = (1.0 - N_ARMS * self.p_min) * mix + self.p_min
        return probs, (ARM_ACQUIRE if u < probs[ARM_ACQUIRE] else ARM_PASS)

    def update_weights(self, votes, probs, arm, reward):
        if self.p_min == 0.0:
            return
        v = np.asarray(votes, dtype=float)
        advice = np.column_stack([v, 1.0 - v])
        reward_hat = np.zeros(N_ARMS)
        reward_hat[arm] = reward / probs[arm]
        gain = advice @ reward_hat
        spread = (advice / probs).sum(axis=1)
        scale = self.p_min / 2.0
        for expert, g, s in zip(self.experts, gain, spread):
            expert.weight *= math.exp(scale * (g + s * self.bonus))

    def ewma_step(self):
        cfg = self.config
        level = 1.0 / self.n_experts
        lam = cfg.ewma_weight
        standardized = self.standardized_weights()
        for expert, s in zip(self.experts, standardized):
            expert.record(s)
            expert.ewma = lam * s + (1.0 - lam) * expert.ewma
        flipped = False
        if cfg.monitor and all(e.obs_count >= cfg.flip_warmup for e in self.experts):
            half_width = self.limit_width * (lam / (2.0 - lam))
            if any(abs(e.ewma - level) > half_width * e.variance for e in self.experts):
                total = sum(e.weight for e in self.experts)
                mirrored = np.maximum(2.0 * level - standardized, WEIGHT_FLOOR)
                mirrored /= mirrored.sum()
                for expert, s in zip(self.experts, mirrored):
                    expert.weight = s * total
                    expert.ewma = s
                flipped = True
                self.flips += 1
        self.steps += 1
        growth = self.steps / cfg.horizon
        if growth >= math.log(1e300):
            self.limit_width = 1e300
        else:
            self.limit_width = min(self.limit_width * math.exp(growth), 1e300)
        return flipped


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


def run_against_reference(config, n_experts, votes, rewards, uniforms):
    """Drive both solvers through the same steps, comparing every state bit;
    returns the number of flips."""
    ens = WeightedEnsemble(config, n_experts)
    ref = ReferenceEnsemble(config, n_experts)
    for step_votes, reward, u in zip(votes, rewards, uniforms):
        decision = ens.decide(step_votes, StubGenerator(u))
        probs, arm = ref.decide(step_votes, u)
        assert_same_bits(decision.probs, probs)
        assert decision.arm == arm
        ens.update_weights(decision, reward)
        ref.update_weights(step_votes, probs, arm, reward)
        assert ens.ewma_step() == ref.ewma_step()
        assert_same_bits(ens.weights, [e.weight for e in ref.experts])
        assert_same_bits(ens.ewma, [e.ewma for e in ref.experts])
        assert_same_bits(ens.obs_mean, [e.obs_mean for e in ref.experts])
        assert_same_bits(ens.obs_m2, [e.obs_m2 for e in ref.experts])
        assert_same_bits(chart_variance(ens), [e.variance for e in ref.experts])
        assert_same_bits(ens.standardized, ref.standardized_weights())
        assert all(e.obs_count == ens.steps for e in ref.experts)
        assert (ens.steps, ens.flips, ens.limit_width) == (ref.steps, ref.flips, ref.limit_width)
    return ref.flips


@st.composite
def solver_runs(draw):
    n = draw(st.integers(1, 6))
    config = SolverConfig(
        horizon=draw(st.integers(1, 3000)),
        p_min=draw(st.one_of(st.none(), st.floats(1e-3, 0.5))),
        ewma_weight=draw(st.floats(0.05, 1.0)),
        limit_width=draw(st.floats(1e-3, 10.0)),
        flip_warmup=draw(st.integers(2, 12)),
        monitor=draw(st.booleans()),
    )
    steps = draw(st.integers(1, 60))
    unit = st.floats(0.0, 1.0)
    votes = draw(hnp.arrays(np.float64, (steps, n), elements=unit))
    rewards = draw(hnp.arrays(np.float64, steps, elements=unit))
    uniforms = draw(hnp.arrays(np.float64, steps,
                               elements=st.floats(0.0, 1.0, exclude_max=True)))
    return config, n, votes, rewards, uniforms


class TestArrayStateMatchesPerExpertReference:
    @settings(max_examples=200, deadline=None)
    @given(solver_runs())
    def test_bit_identical_over_random_runs(self, run):
        run_against_reference(*run)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bit_identical_through_flips(self, n):
        """The default chart over random votes and rewards flips often; every
        flip and every state after it match the reference."""
        rng = np.random.default_rng(n)
        steps = 2000
        flips = run_against_reference(
            SolverConfig(), n, rng.random((steps, n)), rng.random(steps),
            rng.random(steps))
        assert flips > 0


def array_update_weights(ens, decision, reward):
    """:meth:`WeightedEnsemble.update_weights` as array expressions, the form
    the float pass must match bit for bit; returns whether it rescaled."""
    if ens.p_min == 0.0:
        return False
    votes = np.array(decision.votes)
    advice = np.column_stack([votes, 1.0 - votes])
    probs, arm = np.array(decision.probs), decision.arm
    gain = advice[:, arm] * (reward / probs[arm])
    spread = (advice / probs).sum(axis=1)
    exponent = ens.p_min / 2.0 * (gain + spread * ens.exploration_bonus)
    weights = np.array(ens.weights) * [math.exp(x) for x in exponent.tolist()]
    top = float(weights.max())
    rescaled = top > 2.0 ** 512
    if rescaled:
        weights = np.ldexp(weights, -math.frexp(top)[1])
    ens.set_weights(weights)
    return rescaled


def array_ewma_step(ens):
    """:meth:`WeightedEnsemble.ewma_step` as array expressions."""
    cfg = ens.config
    level = 1.0 / ens.n_experts
    lam = cfg.ewma_weight
    weights = np.array(ens.weights)
    standardized = weights / weights.sum()
    ens.steps += 1
    delta = standardized - np.array(ens.obs_mean)
    ens.obs_mean = np.array(ens.obs_mean) + delta / ens.steps
    ens.obs_m2 = np.array(ens.obs_m2) + delta * (standardized - ens.obs_mean)
    ens.ewma = lam * standardized + (1.0 - lam) * np.array(ens.ewma)
    flipped = False
    if cfg.monitor and ens.steps >= cfg.flip_warmup:
        half_width = ens.limit_width * (lam / (2.0 - lam))
        if np.any(np.abs(ens.ewma - level) > half_width * (ens.obs_m2 / (ens.steps - 1))):
            mirrored = np.maximum(2.0 * level - standardized, WEIGHT_FLOOR)
            mirrored /= mirrored.sum()
            ens.set_weights(mirrored * weights.sum())
            ens.ewma = mirrored
            flipped = True
            ens.flips += 1
    growth = ens.steps / cfg.horizon
    if growth >= math.log(1e300):
        ens.limit_width = 1e300
    else:
        ens.limit_width = min(ens.limit_width * math.exp(growth), 1e300)
    return flipped


def run_against_arrays(config, weights, steps):
    """Drive the solver and a copy running :func:`array_update_weights` and
    :func:`array_ewma_step` through the same ``(votes, acquire_share, arm,
    reward)`` steps, comparing every state bit; returns (flips, rescales)."""
    n = len(weights)
    ens, ref = WeightedEnsemble(config, n), WeightedEnsemble(config, n)
    ens.set_weights(weights)
    ref.set_weights(weights)
    rescales = 0
    # each arm's share mixed with the exploration floor as decide mixes it,
    # so every probability lies in [p_min, 1]
    keep, floor = 1.0 - N_ARMS * ens.p_min, ens.p_min
    for votes, acquire_share, arm, reward in steps:
        probs = (keep * acquire_share + floor, keep * (1.0 - acquire_share) + floor)
        decision = JointDecision(probs=probs, arm=arm, votes=tuple(votes))
        ens.update_weights(decision, reward)
        rescales += array_update_weights(ref, decision, reward)
        assert_same_bits(ens.weights, ref.weights)
        assert ens.ewma_step() == array_ewma_step(ref)
        for name in ("weights", "ewma", "obs_mean", "obs_m2"):
            assert_same_bits(getattr(ens, name), getattr(ref, name))
        assert (ens.steps, ens.flips, ens.limit_width) == (ref.steps, ref.flips, ref.limit_width)
    return ens.flips, rescales


@st.composite
def float_solver_runs(draw):
    n = draw(st.integers(1, 8))
    config = SolverConfig(
        horizon=draw(st.integers(1, 3000)),
        p_min=draw(st.one_of(st.none(), st.floats(1e-3, 0.5))),
        ewma_weight=draw(st.floats(0.05, 1.0)),
        limit_width=draw(st.floats(1e-3, 10.0)),
        flip_warmup=draw(st.integers(2, 6)),
        monitor=draw(st.booleans()),
    )
    # powers of two up to just below the rescale level, so a step can cross it
    weights = [2.0 ** e for e in draw(st.lists(st.floats(-40.0, 511.9), min_size=n,
                                               max_size=n))]
    unit = st.floats(0.0, 1.0)
    steps = draw(st.lists(st.tuples(st.lists(unit, min_size=n, max_size=n),
                                    st.floats(0.01, 0.99), st.sampled_from([ARM_ACQUIRE, ARM_PASS]),
                                    unit),
                          min_size=1, max_size=30))
    return config, weights, steps


class TestFloatPassMatchesArrayExpressions:
    """The per-expert float pass of update_weights and ewma_step keeps the
    bits of the array expressions it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(float_solver_runs())
    def test_bit_identical_over_random_states(self, run):
        run_against_arrays(*run)

    @pytest.mark.parametrize("monitor", [True, False], ids=["monitor", "no-monitor"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_bit_identical_through_reflections_and_rescales(self, n, monitor):
        """At ``horizon = 1`` weights started near 2^512 cross the rescale
        level; a narrow chart on top flips often."""
        rng = np.random.default_rng(100 + n)
        config = SolverConfig(horizon=1, limit_width=0.01, flip_warmup=2, monitor=monitor)
        weights = (2.0 ** rng.uniform(500.0, 511.9, size=n)).tolist()
        steps = [(rng.random(n).tolist(), float(rng.uniform(0.05, 0.95)),
                  int(rng.integers(2)), float(rng.random())) for _ in range(200)]
        flips, rescales = run_against_arrays(config, weights, steps)
        assert rescales > 0
        assert (flips > 0) == monitor
