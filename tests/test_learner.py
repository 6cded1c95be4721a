"""Tests for the deterministic logistic-regression base learner."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from streamacq.learner import (
    LearnerConfig,
    LogisticModel,
    _STOP_BLOCK,
    _sigmoid,
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

    def test_strength_without_a_penalty_rejected(self):
        with pytest.raises(ValueError, match="penalty 'none' takes no regularization strength"):
            LearnerConfig(penalty="none", strength=5.0)

    @pytest.mark.parametrize("kwargs", [
        {"strength": math.nan},
        {"strength": math.inf},
        {"grad_tol": math.nan},
        {"grad_tol": -1e-6},
    ], ids=["nan-strength", "inf-strength", "nan-grad-tol", "negative-grad-tol"])
    def test_non_finite_or_negative_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LearnerConfig(penalty="l2", **kwargs)


class TestPrediction:
    def test_zero_model_is_uninformative(self):
        model = LogisticModel(weights=np.zeros(3), bias=0.0)
        np.testing.assert_allclose(model.predict_proba([1.0, -2.0, 0.5]), [0.5, 0.5])

    def test_log_odds_three(self):
        """A weight of ln 3 on a unit input puts 0.75 on the positive class."""
        model = LogisticModel(weights=np.array([math.log(3.0)]), bias=0.0)
        np.testing.assert_allclose(model.predict_proba([1.0]), [0.25, 0.75], atol=1e-12)
        assert model.predict([1.0]) == 1
        assert model.predict_proba([1.0]).max() == pytest.approx(0.75)

    def test_tie_breaks_to_class_zero(self):
        model = LogisticModel(weights=np.zeros(1), bias=0.0)
        assert model.predict([5.0]) == 0

    def test_predicted_class_ties_go_to_class_zero(self):
        assert not predicted_class(0.5)
        assert predicted_class(0.75)
        np.testing.assert_array_equal(predicted_class(np.array([0.5, 0.8, 0.1])),
                                      [False, True, False])

    @given(st.one_of(st.floats(0.0, 1.0), st.just(math.nan)),
           hnp.arrays(np.float64, st.integers(0, 20),
                      elements=st.one_of(st.floats(0.0, 1.0), st.just(math.nan))))
    @example(0.5, np.array([0.5, math.nan, 0.5 - 2.0**-54]))
    def test_predicted_class_is_the_larger_probability(self, p1, batch):
        """``p1 > 1/2`` decides as ``p1 > 1 - p1`` does, for a float and an
        array alike, NaN included."""
        assert predicted_class(p1) == (p1 > 1.0 - p1)
        np.testing.assert_array_equal(predicted_class(batch),
                                      batch > np.subtract(1.0, batch))

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
        assert model.predict_proba([3.0]).max() == pytest.approx(0.999)

    def test_rejects_non_finite_input(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            model.predict_proba([np.nan, 0.0])

    def test_rejects_dimension_mismatch(self):
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(ValueError):
            model.predict([1.0])


@st.composite
def one_row_models(draw):
    """A model and a row of dimension 1-16. The bias puts the log-odds near a
    drawn target: anywhere in [-800, 800], around either clip edge
    (|z| = 27.63, where expit meets 1e-12), or past exp's overflow at -709.8.
    One draw in eight is a one-class model of either class."""
    p = draw(st.integers(1, 16))
    v = draw(hnp.arrays(np.float64, p, elements=st.floats(-100.0, 100.0)))
    w = draw(hnp.arrays(np.float64, p, elements=st.floats(-10.0, 10.0)))
    if draw(st.integers(0, 7)) == 0:
        return LogisticModel(np.zeros(p), 0.0, degenerate_class=draw(st.integers(0, 1))), v
    target = draw(st.one_of(st.floats(-800.0, 800.0), st.floats(-27.7, -27.55),
                            st.floats(27.55, 27.7), st.floats(-712.0, -698.0)))
    return LogisticModel(w, target - float(v @ w)), v


class TestOneRowPrediction:
    @settings(max_examples=1000, deadline=None)
    @given(one_row_models())
    def test_scalar_row_has_the_bits_of_the_batch_row(self, drawn):
        model, v = drawn
        batch = model.predict_proba_batch(v[None, :])[0]
        assert model.positive_proba(v) == batch[1]
        assert model.predict_proba(v).tobytes() == batch.tobytes()

    def test_clip_edges_and_overflow(self):
        model = LogisticModel(np.ones(1), 0.0)
        for z, p1 in [(-800.0, 1e-12), (-28.0, 1e-12), (28.0, 1.0 - 1e-12),
                      (800.0, 1.0 - 1e-12), (-math.inf, 1e-12), (math.inf, 1.0 - 1e-12)]:
            model.bias = z
            assert model.positive_proba(np.zeros(1)) == p1


CLIP_EDGE = math.log(1e-12 / (1.0 - 1e-12))  # expit(CLIP_EDGE) == PROBA_CLIP, about -27.63


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.one_of(
        st.floats(-800.0, 800.0), st.floats(CLIP_EDGE - 0.1, CLIP_EDGE + 0.1),
        st.floats(-CLIP_EDGE - 0.1, -CLIP_EDGE + 0.1), st.floats(-712.0, -698.0))))
    @example(np.array([-800.0, -745.2, -709.79, -709.78, -700.0, CLIP_EDGE, -0.0, 0.0,
                       -CLIP_EDGE, 800.0]))
    def test_numpy_sigmoid_stays_within_a_few_ulps_of_expit(self, z):
        """numpy's exp and libm's each round within about an ulp, and the
        sum and the quotient after it can widen the gap a little."""
        expected = expit(z)
        got = _sigmoid(z.copy(), out=np.empty_like(z))
        apart = np.abs(got.view(np.int64) - expected.view(np.int64))
        assert apart.max() <= 8, z[apart.argmax()]


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
            losses = prefix_losses(X, y, LearnerConfig(penalty=penalty, strength=strength))
            diffs = np.diff(losses)
            assert np.all(diffs <= 1e-12), f"loss rose under {penalty}"

    def test_l1_descent_trends_down(self):
        """The proximal step never raises the objective, and it falls overall."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        losses = prefix_losses(X, y, LearnerConfig(penalty="l1", strength=0.05))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)
        assert losses[-1] < losses[0]

    def test_strong_l1_zeroes_every_weight(self):
        """Past the largest gradient entry at zero weights, the lasso solution
        has no weights; the fit finds it rather than ascending."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        config = LearnerConfig(penalty="l1", strength=1e4)
        model = fit_logistic(X, y, config)
        assert np.all(model.weights == 0.0)
        assert (loss_value(model.weights, model.bias, X, y, config)
                <= loss_value(np.zeros(3), 0.0, X, y, config))

    def test_strong_l1_reports_the_gradient_mapping(self):
        """With every weight at 0, the gradient mapping the fit stops on is
        the bias gradient alone: the threshold absorbs the zeroed weights'
        smooth gradient, which the L1 subgradient would count."""
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        config = LearnerConfig(penalty="l1", strength=1e4)
        model = fit_logistic(X, y, config)
        assert np.all(model.weights == 0.0)
        gw, gb = loss_gradient(model.weights, model.bias, X, y, config)
        assert model.grad_norm == abs(gb)
        assert model.grad_norm < 1e-3 < float(np.sqrt(gw @ gw))

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


def reference_sigmoid(z):
    """``1 / (1 + exp(-z))`` in numpy, 0 where ``exp(-z)`` overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def reference_gradient(w, b, X, y, config):
    """The allocating gradient expression, independent of the learner's code."""
    resid = (reference_sigmoid(X @ w + b) - y) / X.shape[0]
    gw = X.T @ resid
    gb = float(resid.sum())
    if config.penalty == "l2":
        gw = gw + config.strength * w
    elif config.penalty == "l1":
        gw = gw + config.strength * np.sign(w)
    return gw, gb


def prefix_losses(X, y, config):
    """The loss at the zero start and after each of the first ``max_iter``
    moves, each read off a fit capped at that many moves."""
    p = X.shape[1]
    return np.array([loss_value(np.zeros(p), 0.0, X, y, config)] + [
        loss_value(model.weights, model.bias, X, y, config)
        for model in (fit_logistic(X, y, replace(config, max_iter=k))
                      for k in range(1, config.max_iter + 1))])


def soft_threshold(w, by):
    """The proximal map of ``by * |w|_1``."""
    return np.sign(w) * np.maximum(np.abs(w) - by, 0.0)


def stop_tested(moved, config):
    """Whether the stop is tested on move ``moved`` (counted from 0): the
    last move of each block of ``_STOP_BLOCK``, and the last before
    ``max_iter``. A move that passes the test is not applied."""
    return (moved + 1) % _STOP_BLOCK == 0 or moved + 1 == config.max_iter


def reference_fit(X, y, config):
    """The descent of :func:`fit_logistic`, one fresh array per operation;
    returns the parameters and the number of moves applied. Under L1 the
    gradient is the smooth part's, the step is followed by the soft
    threshold, and the stop test reads the gradient mapping."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p = X.shape[1]
    w = np.zeros(p)
    b = 0.0
    step = descent_step(X, config)
    l1 = config.penalty == "l1"
    smooth = replace(config, penalty="none", strength=0.0) if l1 else config
    for moved in range(config.max_iter):
        gw, gb = reference_gradient(w, b, X, y, smooth)
        after = w - step * gw
        if l1:
            after = soft_threshold(after, step * config.strength)
            gw = (w - after) / step
        if stop_tested(moved, config) and float(np.sqrt(gw @ gw + gb * gb)) < config.grad_tol:
            return w, b, moved
        w = after
        b = b - step * gb
    return w, b, config.max_iter


def descent_step(X, config):
    """The fixed step of :func:`fit_logistic`: 0.1 / (1 + Lipschitz bound)."""
    n = X.shape[0]
    lipschitz = (float((X * X).sum()) + n) / (4.0 * n)
    if config.penalty == "l2":
        lipschitz += config.strength
    return 0.1 / (1.0 + lipschitz)


def augmented_reference_fit(X, y, config, path=None, move_norms=None):
    """The descent of :func:`fit_logistic` on the sign-folded design, one fresh
    array per operation and the stop test of :func:`stop_tested`: the bias is
    the last entry of ``theta``, and the rows of positive labels are negated
    so the residual is the sigmoid alone, taken as ``1/2 + tanh(z/2)/2``. The
    design is halved, so its product with ``theta`` is ``z/2``; the step, the
    1/n and the outer 1/2 ride in the negated design below ``theta``, whose
    column sum and ``theta`` meet two trailing 1s of the residual, so one
    product is the next iterate. L2 then takes ``step * strength * theta``
    off the new weights; L1 soft-thresholds them by ``step * strength``. The
    move is ``theta`` minus the new iterate. Returns the parameters and the
    number of moves applied.
    ``path``, when given, receives ``theta`` at the start and after each
    move; ``move_norms`` receives the norm of each move, tested or not, which
    the stop test compares with ``step * grad_tol``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    step = descent_step(X, config)
    F = np.column_stack([X, np.ones(n)]) * (0.5 - y)[:, None]
    B = F * (step / n)
    B = np.vstack([B, B.sum(axis=0)])
    theta = np.zeros(p + 1)
    moved = 0
    while moved < config.max_iter:
        if path is not None:
            path.append(theta.copy())
        after = np.append(np.tanh(F @ theta), [1.0, 1.0]) @ np.vstack([-B, theta])
        if config.penalty == "l2":
            after[:p] = after[:p] - (step * config.strength) * theta[:p]
        elif config.penalty == "l1":
            after[:p] = soft_threshold(after[:p], step * config.strength)
        move = theta - after
        norm = float(np.sqrt(move @ move))
        if move_norms is not None:
            move_norms.append(norm)
        if stop_tested(moved, config) and norm < step * config.grad_tol:
            break
        theta = after
        moved += 1
    if path is not None and moved == config.max_iter:
        path.append(theta.copy())
    return theta[:p], float(theta[p]), moved


def assert_fits_reference(X, y, config, path=None):
    """The fit equals the sign-folded reference bit for bit, parameters,
    gradient norm (under L1 the gradient mapping's) and number of moves."""
    w, b, moved = augmented_reference_fit(X, y, config, path)
    l1 = config.penalty == "l1"
    smooth = replace(config, penalty="none", strength=0.0) if l1 else config
    gw, gb = reference_gradient(w, b, X, np.asarray(y, dtype=float), smooth)
    if l1:  # the gradient mapping the stop test reads
        step = descent_step(X, config)
        gw = (w - soft_threshold(w - step * gw, step * config.strength)) / step
    model = fit_logistic(X, y, config)
    assert np.array_equal(model.weights, w)
    assert model.bias == b
    assert model.grad_norm == float(np.sqrt(gw @ gw + gb * gb))
    assert model.n_iter == moved
    return model


@st.composite
def pools(draw, strengths=st.floats(0.0, 2.0)):
    n = draw(st.integers(1, 150))
    p = draw(st.integers(1, 16))
    X = draw(hnp.arrays(np.float64, (n, p),
                        elements=st.floats(-50.0, 50.0, allow_nan=False)))
    one_class = draw(st.booleans())
    y = (np.full(n, draw(st.integers(0, 1))) if one_class
         else draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1))))
    penalty = draw(st.sampled_from(("none", "l1", "l2")))
    strength = 0.0 if penalty == "none" else draw(strengths)
    return X, y, LearnerConfig(penalty=penalty, strength=strength)


@settings(max_examples=60, deadline=None)
@given(pools(strengths=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e4), st.just(1e4))))
def test_a_fit_never_ends_above_its_zero_start(pool):
    """For every penalty, strong ones included, the descent ends no higher
    than the zero weights it starts from."""
    X, y, config = pool
    model = fit_logistic(X, y, config)
    start = loss_value(np.zeros(X.shape[1]), 0.0, X, y, config)
    assert loss_value(model.weights, model.bias, X, y, config) <= start + 1e-12


class TestFitMatchesAllocatingReference:
    @settings(max_examples=60, deadline=None)
    @given(pools(), st.integers(1, LearnerConfig().max_iter))
    def test_bit_identical_to_the_allocating_loop(self, pool, cap):
        X, y, config = pool
        if np.unique(y).size == 1:
            model = fit_logistic(X, y, config)
            assert model.degenerate_class == int(y[0])
            assert model.grad_norm is None
            assert model.n_iter == 0
            return
        path = []
        model = assert_fits_reference(X, y, config, path)
        # a fit capped at `cap` moves keeps the first moves of the full one
        capped = assert_fits_reference(X, y, replace(config, max_iter=cap))
        assert capped.n_iter <= min(cap, model.n_iter)
        assert np.array_equal(np.append(capped.weights, capped.bias), path[capped.n_iter])
        losses = [loss_value(theta[:-1], theta[-1], X, y, config) for theta in path]
        assert np.all(np.diff(losses) <= 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pools(), st.floats(-5.0, 5.0))
    def test_public_gradient_matches_the_allocating_expression(self, pool, b):
        X, y, config = pool
        w = np.linspace(-1.0, 1.0, X.shape[1])
        gw, gb = loss_gradient(w, b, X, y, config)
        rw, rb = reference_gradient(w, b, X, y.astype(float), config)
        assert np.array_equal(gw, rw)
        assert gb == rb

    @settings(max_examples=60, deadline=None)
    @given(pools())
    def test_agrees_with_the_mean_gradient_descent(self, pool):
        """Folding the bias, step and 1/n into the design moves only rounding:
        same iteration count, parameters equal to 1e-9 of the largest one."""
        X, y, config = pool
        if np.unique(y).size == 1:
            return
        w, b, moved = reference_fit(X, y, config)
        model = fit_logistic(X, y, config)
        expected = np.append(w, b)
        got = np.append(model.weights, model.bias)
        assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()
        assert model.n_iter == moved

    def test_strong_ridge_stops_at_the_gradient_tolerance(self):
        """The loop breaks where the mean-gradient reference does: on the last
        move of a block, at parameters whose gradient norm is under ``grad_tol``."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        config = LearnerConfig(penalty="l2", strength=5.0, grad_tol=1e-2)
        model = assert_fits_reference(X, y, config)
        assert model.n_iter == reference_fit(X, y, config)[2]
        assert model.n_iter < config.max_iter
        assert (model.n_iter + 1) % _STOP_BLOCK == 0
        assert model.grad_norm < config.grad_tol

    def test_fits_share_no_buffer(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, size=30)
        first = fit_logistic(X, y)
        kept = first.weights.copy()
        fit_logistic(X[::-1].copy(), 1 - y)
        np.testing.assert_array_equal(first.weights, kept)


def grad_tol_stopping_at(X, y, config, iteration):
    """A ``grad_tol`` under which a stop test after every move would stop at
    move ``iteration``: midway between that move's norm and the smallest one
    before it."""
    norms = []
    augmented_reference_fit(X, y, replace(config, grad_tol=0.0, max_iter=iteration + 1),
                            move_norms=norms)
    earlier = min(norms[:iteration], default=2.0 * norms[iteration] + 1.0)
    assert norms[iteration] < earlier * (1.0 - 1e-6), "no grad_tol stops at this iteration"
    return 0.5 * (norms[iteration] + earlier) / descent_step(X, config)


@settings(max_examples=40, deadline=None)
@given(pools(), st.integers(1, LearnerConfig().max_iter), st.floats(1e-6, 1.0))
def test_a_stopped_fit_ends_within_a_block_of_the_per_move_stop(pool, cap, share):
    """The move norm never grows along the descent, so a fit tested once per
    block stops on the first tested move from the one a test after every move
    would stop on, fewer than ``_STOP_BLOCK`` moves later, and its gradient
    norm is under ``grad_tol``. The tolerance is ``share`` of the first move's
    norm over the step."""
    X, y, config = pool
    if np.unique(y).size == 1:
        return
    config = replace(config, max_iter=cap)
    norms = []
    augmented_reference_fit(X, y, replace(config, grad_tol=0.0), move_norms=norms)
    step = descent_step(X, config)
    config = replace(config, grad_tol=share * norms[0] / step)
    first = next((k for k, norm in enumerate(norms) if norm < step * config.grad_tol), None)
    model = assert_fits_reference(X, y, config)
    if first is None:
        assert model.n_iter == cap
    else:
        assert first <= model.n_iter < first + _STOP_BLOCK
        assert model.grad_norm < config.grad_tol


def stop_test_pool():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 3)) * 2.0
    y = (X @ np.array([1.0, -0.5, 0.25]) + rng.normal(size=40) > 0).astype(int)
    return X, y


EACH_PENALTY = pytest.mark.parametrize("penalty, strength",
                                      [("none", 0.0), ("l2", 0.1), ("l1", 0.01)])


class TestBlockStopTest:
    """The stop is tested on the last move of each block: a fit whose move
    norm falls under the tolerance stops at the end of that block, on either
    side of a block boundary, with and without a penalty."""

    @EACH_PENALTY
    @pytest.mark.parametrize("iteration, stop", [(0, _STOP_BLOCK - 1),
                                                 (_STOP_BLOCK - 1, _STOP_BLOCK - 1),
                                                 (_STOP_BLOCK, 2 * _STOP_BLOCK - 1),
                                                 (_STOP_BLOCK + 1, 2 * _STOP_BLOCK - 1),
                                                 (None, 3 * _STOP_BLOCK + 7)],
                             ids=["first", "block-end", "next-block", "next-block-second",
                                  "never"])
    def test_stops_at_the_reference_iteration(self, penalty, strength, iteration, stop):
        """``iteration`` is the move a test after every move would stop on."""
        X, y = stop_test_pool()
        config = LearnerConfig(penalty=penalty, strength=strength, max_iter=3 * _STOP_BLOCK + 7)
        if iteration is None:
            config = replace(config, grad_tol=0.0)
        else:
            config = replace(config, grad_tol=grad_tol_stopping_at(X, y, config, iteration))
        model = assert_fits_reference(X, y, config)
        assert model.n_iter == stop

    @EACH_PENALTY
    @pytest.mark.parametrize("stops", [False, True], ids=["never-stops", "stops"])
    def test_a_capped_fit_keeps_the_first_moves_of_a_longer_one(self, penalty, strength,
                                                                 stops):
        """``max_iter=k`` gives the longer fit's parameters after its first
        moves, on both sides of a block boundary. Under a tolerance a test
        after every move would stop on at move ``_STOP_BLOCK + 1``, the longer
        fit stops at its second block's end, and a capped fit stops on its
        last move from that move on."""
        X, y = stop_test_pool()
        config = LearnerConfig(penalty=penalty, strength=strength, max_iter=2 * _STOP_BLOCK + 2,
                               grad_tol=0.0)
        if stops:
            config = replace(config, grad_tol=grad_tol_stopping_at(X, y, config, _STOP_BLOCK + 1))
        path = []
        full = assert_fits_reference(X, y, config, path)
        assert full.n_iter == (2 * _STOP_BLOCK - 1 if stops else config.max_iter)
        # each cap, and where it stops when the longer fit does
        for cap, stop in ((1, 1), (2, 2), (_STOP_BLOCK - 1, _STOP_BLOCK - 1),
                          (_STOP_BLOCK, _STOP_BLOCK), (_STOP_BLOCK + 1, _STOP_BLOCK + 1),
                          (_STOP_BLOCK + 2, _STOP_BLOCK + 1),
                          (2 * _STOP_BLOCK, 2 * _STOP_BLOCK - 1),
                          (2 * _STOP_BLOCK + 1, 2 * _STOP_BLOCK - 1)):
            capped = fit_logistic(X, y, replace(config, max_iter=cap))
            assert capped.n_iter == (stop if stops else cap)
            assert np.array_equal(np.append(capped.weights, capped.bias), path[capped.n_iter])

    @EACH_PENALTY
    def test_a_norm_on_the_tolerance_stops_with_the_reference(self, penalty, strength):
        """A tolerance exactly on a block's last move norm does not stop the
        fit there, and one ulp above it does: the test is a strict ``<``."""
        X, y = stop_test_pool()
        config = LearnerConfig(penalty=penalty, strength=strength, max_iter=4 * _STOP_BLOCK)
        step = descent_step(X, config)
        norms = []
        augmented_reference_fit(X, y, replace(config, grad_tol=0.0), move_norms=norms)
        checked = [0, 0]  # tolerances on a norm, one ulp above one
        for end in range(_STOP_BLOCK - 1, config.max_iter, _STOP_BLOCK):
            for above, tol, stop in (
                    (0, norms[end], min(end + _STOP_BLOCK, config.max_iter)),
                    (1, float(np.nextafter(norms[end], math.inf)), end)):
                grad_tol = tol / step
                if step * grad_tol == tol:
                    model = assert_fits_reference(X, y, replace(config, grad_tol=grad_tol))
                    assert model.n_iter == stop
                    checked[above] += 1
        assert min(checked) >= 2


class TestIterateParity:
    """The loop's two iterate buffers take turns, so odd and even move counts
    end in different buffers. Each cap, on both sides of a block boundary,
    gives the reference's bits, and a fit stopped on its last move returns
    the iterate that move starts from."""

    @EACH_PENALTY
    @pytest.mark.parametrize("cap", [1, 2, _STOP_BLOCK - 1, _STOP_BLOCK, _STOP_BLOCK + 1,
                                     LearnerConfig().max_iter - 1])
    def test_each_move_count_ends_in_the_reference_iterate(self, penalty, strength, cap):
        X, y = stop_test_pool()
        config = LearnerConfig(penalty=penalty, strength=strength, max_iter=cap, grad_tol=0.0)
        path = []
        capped = assert_fits_reference(X, y, config, path)
        assert capped.n_iter == cap
        assert np.array_equal(np.append(capped.weights, capped.bias), path[cap])
        # only the test on the last move, the cap-th, passes
        stopped = assert_fits_reference(
            X, y, replace(config, grad_tol=grad_tol_stopping_at(X, y, config, cap - 1)))
        assert stopped.n_iter == cap - 1
        assert np.array_equal(np.append(stopped.weights, stopped.bias), path[cap - 1])
        kept = capped.weights.copy()
        again = fit_logistic(X, y, config)
        assert not np.shares_memory(capped.weights, again.weights)
        assert not np.shares_memory(capped.weights, stopped.weights)
        again.weights[:] = np.nan
        assert np.array_equal(capped.weights, kept)
