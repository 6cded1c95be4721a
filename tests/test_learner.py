"""Tests for the deterministic logistic-regression base learner."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from streamacq.learner import (
    L1_SOFT_THRESHOLD,
    LearnerConfig,
    LogisticModel,
    fit_logistic,
    loss_gradient,
    loss_value,
    predicted_class,
)


def random_instance(rng, penalty="none", strength=0.0):
    n = int(rng.integers(5, 51))
    p = int(rng.integers(1, 6))
    X = rng.normal(size=(n, p))
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    w = rng.normal(size=p)
    if penalty == "l1":
        # keep coordinates away from the subgradient kink
        w = np.sign(w) * (np.abs(w) + 1e-2)
    b = float(rng.normal())
    return X, y, w, b, LearnerConfig(penalty=penalty, strength=strength)


def finite_difference_gradient(w, b, X, y, config, h=1e-6):
    gw = np.empty_like(w)
    for j in range(w.size):
        up, dn = w.copy(), w.copy()
        up[j] += h
        dn[j] -= h
        gw[j] = (loss_value(up, b, X, y, config) - loss_value(dn, b, X, y, config)) / (2 * h)
    gb = (loss_value(w, b + h, X, y, config) - loss_value(w, b - h, X, y, config)) / (2 * h)
    return gw, gb


class TestLearnerConfig:
    def test_defaults(self):
        cfg = LearnerConfig()
        assert cfg.penalty == "none"
        assert cfg.strength == 0.0
        assert cfg.max_iter == 500
        assert cfg.grad_tol == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            LearnerConfig(penalty="ridge")
        with pytest.raises(ValueError):
            LearnerConfig(strength=-1.0)
        with pytest.raises(ValueError):
            LearnerConfig(max_iter=0)


class TestPrediction:
    def test_zero_model_is_uninformative(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        np.testing.assert_allclose(model.predict_proba([1.0, -2.0, 0.5]), [0.5, 0.5])

    def test_log_odds_three(self):
        """A weight of ln 3 on a unit input puts 0.75 on the positive class."""
        model = LogisticModel(weights=np.array([math.log(3.0)]), bias=0.0)
        np.testing.assert_allclose(model.predict_proba([1.0]), [0.25, 0.75], atol=1e-12)
        assert model.predict([1.0]) == 1
        assert model.certainty([1.0]) == pytest.approx(0.75)

    def test_tie_breaks_to_class_zero(self):
        model = LogisticModel(weights=np.zeros(1), bias=0.0)
        assert model.predict([5.0]) == 0

    def test_predicted_class_ties_go_to_class_zero(self):
        assert predicted_class(np.array([0.5, 0.5])) == 0
        assert predicted_class(np.array([0.25, 0.75])) == 1
        np.testing.assert_array_equal(
            predicted_class(np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])), [0, 1, 0])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        model = LogisticModel(weights=rng.normal(size=4), bias=0.3)
        X = rng.normal(size=(200, 4)) * 10.0
        proba = model.predict_proba_batch(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0.0)

    def test_degenerate_model(self):
        model = fit_logistic(np.array([[0.0], [1.0]]), np.array([1, 1]))
        assert model.degenerate_class == 1
        np.testing.assert_allclose(model.predict_proba([3.0]), [1e-3, 0.999])
        assert model.predict([3.0]) == 1
        assert model.certainty([3.0]) == pytest.approx(0.999)

    def test_rejects_non_finite_input(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            model.predict_proba([np.nan, 0.0])

    def test_rejects_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            model.predict([1.0])


class TestFit:
    def test_separable_pair_is_learned(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = fit_logistic(X, y)
        np.testing.assert_array_equal(model.predict_batch(X), y)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            fit_logistic(np.zeros((2, 1)), np.array([0, 2]))

    @pytest.mark.parametrize("X, y", [
        (np.array([[0.0], [np.nan]]), np.array([0, 1])),
        (np.array([[np.inf], [1.0]]), np.array([0, 1])),
        (np.array([[-np.inf], [1.0]]), np.array([0, 1])),
        (np.zeros((3, 2)), np.array([0, 1])),
        (np.zeros((2, 2)), np.array([[0], [1]])),
        (np.array([0.0, 1.0]), np.array([0, 1])),
        (np.zeros((2, 1)), np.array([0.0, 0.5])),
        (np.zeros((2, 1)), np.array([-1, 1])),
    ], ids=["nan", "inf", "-inf", "short-labels", "2d-labels", "1d-design",
            "fractional-label", "negative-label"])
    def test_inputs_checked_at_the_boundary(self, X, y):
        with pytest.raises(ValueError):
            fit_logistic(X, y)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        a = fit_logistic(X, y)
        b = fit_logistic(X, y)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_loss_never_increases_along_descent(self):
        rng = np.random.default_rng(21)
        for penalty, strength in (("none", 0.0), ("l2", 0.1)):
            X = rng.normal(size=(30, 3))
            y = rng.integers(0, 2, size=30)
            trace = []
            fit_logistic(X, y, LearnerConfig(penalty=penalty, strength=strength),
                         loss_trace=trace)
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-12), f"loss rose under {penalty}"

    def test_l1_descent_trends_down(self):
        """Subgradient steps may wobble at the kink scale but the objective
        must still fall overall."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        trace = []
        fit_logistic(X, y, LearnerConfig(penalty="l1", strength=0.05),
                     loss_trace=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-3)
        assert trace[-1] < trace[0]

    def test_parameters_finite(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(25, 4)) * 5.0
        y = rng.integers(0, 2, size=25)
        model = fit_logistic(X, y, LearnerConfig(penalty="l2", strength=1.0))
        assert np.all(np.isfinite(model.weights))
        assert math.isfinite(model.bias)


class TestGradient:
    def test_matches_finite_differences(self):
        """Analytic gradients agree with central differences on random instances."""
        rng = np.random.default_rng(1234)
        cases = [("none", 0.0)] * 8 + [("l2", 0.5)] * 6 + [("l1", 0.3)] * 6
        for penalty, strength in cases:
            X, y, w, b, cfg = random_instance(rng, penalty, strength)
            gw, gb = loss_gradient(w, b, X, y, cfg)
            fw, fb = finite_difference_gradient(w, b, X, y, cfg)
            scale = max(1.0, float(np.abs(fw).max()), abs(fb))
            assert np.abs(gw - fw).max() / scale < 1e-5
            assert abs(gb - fb) / scale < 1e-5

    def test_bias_is_unpenalized(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        w = np.array([0.4])
        plain = loss_gradient(w, 2.0, X, y, LearnerConfig())[1]
        ridge = loss_gradient(w, 2.0, X, y, LearnerConfig(penalty="l2", strength=5.0))[1]
        assert plain == pytest.approx(ridge)


def reference_fit(X, y, config, loss_trace):
    """The descent of :func:`fit_logistic` through the public, validating calls."""
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    lipschitz = (float((X * X).sum()) + n) / (4.0 * n)
    if config.penalty == "l2":
        lipschitz += config.strength
    step = 0.1 / (1.0 + lipschitz)
    for _ in range(config.max_iter):
        loss_trace.append(loss_value(w, b, X, y, config))
        gw, gb = loss_gradient(w, b, X, y, config)
        if float(np.sqrt(gw @ gw + gb * gb)) < config.grad_tol:
            break
        w = w - step * gw
        b = b - step * gb
        if config.penalty == "l1":
            w = np.sign(w) * np.maximum(np.abs(w) - L1_SOFT_THRESHOLD, 0.0)
    loss_trace.append(loss_value(w, b, X, y, config))
    return w, b


@st.composite
def pools(draw):
    n = draw(st.integers(1, 150))
    p = draw(st.integers(1, 16))
    X = draw(hnp.arrays(np.float64, (n, p),
                        elements=st.floats(-50.0, 50.0, allow_nan=False)))
    one_class = draw(st.booleans())
    y = (np.full(n, draw(st.integers(0, 1))) if one_class
         else draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1))))
    penalty = draw(st.sampled_from(("none", "l1", "l2")))
    strength = 0.0 if penalty == "none" else draw(st.floats(0.0, 2.0))
    return X, y, LearnerConfig(penalty=penalty, strength=strength)


class TestFitMatchesValidatingReference:
    @settings(max_examples=60, deadline=None)
    @given(pools())
    def test_bit_identical_to_a_loop_over_public_calls(self, pool):
        X, y, config = pool
        trace = []
        model = fit_logistic(X, y, config, loss_trace=trace)
        if np.unique(y).size == 1:
            assert model.degenerate_class == int(y[0])
            assert model.grad_norm is None
            assert trace == []
            return
        expected_trace = []
        w, b = reference_fit(X, y, config, expected_trace)
        assert np.array_equal(model.weights, w)
        assert model.bias == b
        assert trace == expected_trace
        gw, gb = loss_gradient(w, b, X, y, config)
        assert model.grad_norm == float(np.sqrt(gw @ gw + gb * gb))
        if config.penalty != "l1":
            assert np.all(np.diff(np.asarray(trace)) <= 1e-12)
