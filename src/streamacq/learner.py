"""Deterministic binary logistic regression, built for frequent full refits.

The optimizer is fixed (zero init, full-batch proximal gradient descent, step
0.1/(1 + Lipschitz bound), 500-iteration cap, gradient-norm stop at 1e-6) so
that fitting the same pool twice gives bit-identical parameters.

A fit validates its inputs once, at its boundary, and then descends on a
design built once per fit. In ``[X | 1]`` the column of ones meets the bias,
the last entry of ``theta = [w, b]``, and each row whose label is 1 is
negated. For such a row ``sigmoid(z) - 1 = -sigmoid(-z)``, so the residual of
every row is ``sigmoid(row . theta)`` and the labels drop out of the loop. The
loop takes the sigmoid as ``1/2 + tanh(z/2)/2``: ``forward`` is the signed
design halved, so ``forward . theta`` is ``z/2``. Two copies of the signed
design times ``-step / (2n)`` (the step, the 1/n of the mean loss and the
outer 1/2, negated) each carry a row that holds its column sum and a last
row that holds an iterate; the residual buffer ends in two 1s that meet
those rows, so its product with the copy holding ``theta`` is ``theta``
minus the step-scaled gradient, bias included. A move is then three numpy
calls on buffers allocated once per fit: ``forward.dot(theta)``, ``tanh`` and
that product, written into the other copy's last row; the copies swap after
each move. L2 takes ``step * strength * theta`` off the new iterate's
weights. L1 takes the proximal step: the new iterate's weights are
soft-thresholded by ``step * strength``. The move the stop test reads is the
difference of the last two iterates, so under L1 it sees the threshold.

The gradient-norm stop is tested once per block of ``_STOP_BLOCK`` moves,
and at ``max_iter``, on the block's last move alone: when its norm is under
``step * grad_tol`` the fit ends at the iterate that move starts from. The
fitted parameters are copied out, so no model holds on to the buffers.  The
loss is convex and the step below 1/L, so the move norm never grows along the
descent, and a fit stops at most one block after a test on every move would.

The negated rows, the tanh form and the folded column sum and iterate group the
floating-point operations differently from the mean gradient of
:func:`loss_gradient`, so the fitted parameters agree with that descent to
rounding, not bit for bit. After the loop, one public :func:`loss_gradient`
call (which checks the inputs a second time) reports the gradient norm at the
fitted parameters; under L1 it gives the smooth gradient, and the norm is the
gradient mapping's, which vanishes at a lasso solution.

Scoring and :func:`loss_gradient` take the sigmoid as ``1 / (1 + exp(-z))``
with numpy's ``exp``. A test set is scored by
:meth:`LogisticModel.predict_proba_batch`; one row is scored in scalar math by
:meth:`LogisticModel.positive_proba`, with the same floating-point operations
as the batch row, so the two agree bit for bit. The module needs numpy alone;
scipy, which costs a stream run more memory than the rest of it, stays out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "LearnerConfig",
    "LogisticModel",
    "predicted_class",
    "fit_logistic",
    "loss_value",
    "loss_gradient",
]

PROBA_CLIP = 1e-12  # keep probabilities strictly inside (0, 1)
DEGENERATE_CONFIDENCE = 1e-3  # one-class pools predict the seen class at 1 - this
_SIGMOID_ZERO_BELOW = -700.0  # exp(-z) stays finite above this
_STOP_BLOCK = 50  # descent moves between gradient-norm stop tests

PENALTIES = ("none", "l1", "l2")


@dataclass(frozen=True)
class LearnerConfig:
    penalty: str = "none"
    strength: float = 0.0
    max_iter: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}, got {self.penalty!r}")
        if not (math.isfinite(self.strength) and self.strength >= 0):
            raise ValueError(
                f"regularization strength must be finite and nonnegative, got {self.strength}")
        if self.penalty == "none" and self.strength != 0.0:
            raise ValueError(
                f"penalty 'none' takes no regularization strength, got {self.strength}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")


def predicted_class(p1: float | np.ndarray) -> bool | np.ndarray:
    """Whether class 1 is predicted from its probability ``p1`` (a float or an
    array): ``p1 > 1/2``, so a tie, and NaN, go to class 0.

    The same as ``p1 > 1 - p1`` bit for bit: ``1 - p1`` is exact for ``p1 >=
    1/2`` (Sterbenz) and rounds to at least 1/2 below it.
    """
    return p1 > 0.5


@dataclass
class LogisticModel:
    """Fitted model; ``degenerate_class`` is set when the pool had one class only.

    ``grad_norm`` is the norm of the loss gradient at the fitted parameters
    (under L1, of the gradient mapping the fit's stop test reads), set by
    :func:`fit_logistic` when it iterated; ``n_iter`` is the number of
    descent moves the fit applied, ``max_iter`` when it never stopped.
    """

    weights: np.ndarray
    bias: float
    degenerate_class: Optional[int] = None
    grad_norm: Optional[float] = None
    n_iter: int = 0

    def positive_proba(self, v: np.ndarray) -> float:
        """Class-1 probability of one checked row: a finite 1-d float array of
        the model's dimension.

        Scalar math with the bits of the row :meth:`predict_proba_batch` gives:
        the 1-d ``v @ weights`` rounds as the one-row product does, and
        ``1 / (1 + exp(-z))`` takes numpy's ``exp``, which gives a scalar the
        bits it gives the same value in an array.
        """
        if self.degenerate_class is not None:
            return (1.0 - DEGENERATE_CONFIDENCE if self.degenerate_class == 1
                    else DEGENERATE_CONFIDENCE)
        z = float(v @ self.weights) + self.bias
        # exp(-z) overflows near z = -709.8, where the sigmoid is 0; any z
        # below about -27.6 clips to PROBA_CLIP either way
        p1 = 0.0 if z < _SIGMOID_ZERO_BELOW else 1.0 / (1.0 + float(np.exp(-z)))
        # p1 first: a NaN stays NaN, as np.maximum/np.minimum keep it
        return min(max(p1, PROBA_CLIP), 1.0 - PROBA_CLIP)

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities of one sample, through :meth:`positive_proba`."""
        v = np.asarray(x, dtype=float)
        if v.ndim != 1 or v.size != self.weights.size:
            raise ValueError(f"expected a 1-d feature vector of {self.weights.size} values, "
                             f"got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("inputs have non-finite entries")
        p1 = self.positive_proba(v)
        return np.array([1.0 - p1, p1])

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.weights.size:
            raise ValueError("expected an (n, p) array matching the model dimension")
        if not np.isfinite(X).all():
            raise ValueError("inputs have non-finite entries")
        proba = np.empty((X.shape[0], 2))
        p1 = proba[:, 1]
        if self.degenerate_class is not None:
            p1[:] = (1.0 - DEGENERATE_CONFIDENCE if self.degenerate_class == 1
                     else DEGENERATE_CONFIDENCE)
        else:
            _sigmoid(X @ self.weights + self.bias, out=p1)
            np.maximum(p1, PROBA_CLIP, out=p1)
            np.minimum(p1, 1.0 - PROBA_CLIP, out=p1)
        np.subtract(1.0, p1, out=proba[:, 0])
        return proba

    def predict(self, x) -> int:
        return int(predicted_class(self.predict_proba(x)[1]))

    def predict_batch(self, X) -> np.ndarray:
        return predicted_class(self.predict_proba_batch(X)[:, 1]).astype(int)


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` into ``out``, overwriting ``z``; 0 where ``exp(-z)``
    overflows."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=out)


def _validated_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d design matrix, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty pool")
    if y.shape != (X.shape[0],):
        raise ValueError("label vector length does not match the design matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("design matrix has non-finite entries")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    return X, y.astype(float)


def loss_value(weights, bias, X, y, config: LearnerConfig) -> float:
    """Mean negative log-likelihood plus the configured penalty (bias unpenalized)."""
    X, y = _validated_xy(X, y)
    w = np.asarray(weights, dtype=float)
    z = X @ w + bias
    nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
    if config.penalty == "l2":
        nll += 0.5 * config.strength * float(w @ w)
    elif config.penalty == "l1":
        nll += config.strength * float(np.abs(w).sum())
    return nll


def loss_gradient(weights, bias, X, y, config: LearnerConfig) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`loss_value` w.r.t. (weights, bias).

    For L1 this is a subgradient with sign(0) taken as 0; :func:`fit_logistic`
    descends on the smooth part alone and thresholds instead.
    """
    X, y = _validated_xy(X, y)
    w = np.asarray(weights, dtype=float)
    z = X @ w + bias
    resid = (_sigmoid(z, out=z) - y) / X.shape[0]
    gw = X.T @ resid
    if config.penalty == "l2":
        gw += config.strength * w
    elif config.penalty == "l1":
        gw += config.strength * np.sign(w)
    return gw, float(resid.sum())


def _soft_threshold(w: np.ndarray, by: float, scratch: np.ndarray) -> None:
    """Shrink ``w`` in place toward zero by ``by``: the proximal map of ``by * |w|_1``."""
    np.abs(w, out=scratch)
    scratch -= by
    np.maximum(scratch, 0.0, out=scratch)
    np.sign(w, out=w)
    w *= scratch


def fit_logistic(X, y, config: LearnerConfig = LearnerConfig()) -> LogisticModel:
    """Fit from scratch.  A single-class pool yields a constant degenerate model.

    The inputs are validated here, once; the loop runs in buffers allocated once per fit.
    """
    X, y = _validated_xy(X, y)
    n, p = X.shape
    if y.min() == y.max():
        return LogisticModel(np.zeros(p), 0.0, degenerate_class=int(y[0]))
    # gradient Lipschitz bound for the mean logistic loss with a bias column
    lipschitz = (float((X * X).sum()) + n) / (4.0 * n)
    if config.penalty == "l2":
        lipschitz += config.strength
    step = 0.1 / (1.0 + lipschitz)
    half_signs = 0.5 - y
    forward = np.empty((n, p + 1))
    np.multiply(X, half_signs[:, None], out=forward[:, :p])
    forward[:, p] = half_signs
    # the negated step-scaled rows, their column sum, and an iterate; the two
    # copies take turns holding the iterate a move starts from
    design = np.empty((n + 2, p + 1))
    np.multiply(forward, -step / n, out=design[:n])
    design[:n].sum(axis=0, out=design[n])
    design[n + 1] = 0.0
    other = design.copy()
    theta, after = design[n + 1], other[n + 1]
    # tanh(z / 2) of each row, then the 1s that meet the column sum and the iterate
    resid = np.ones(n + 2)
    z, scratch = resid[:n], np.empty(p)
    l2, l1 = config.penalty == "l2", config.penalty == "l1"
    tanh = np.tanh  # a local name: the loop calls it 500 times per fit
    shrink = step * config.strength
    tol = step * config.grad_tol
    done = 0
    while done < config.max_iter:
        count = min(_STOP_BLOCK, config.max_iter - done)
        for _ in range(count):
            forward.dot(theta, out=z)
            tanh(z, out=z)
            resid.dot(design, out=after)  # theta minus the step-scaled gradient
            if l2:
                np.multiply(theta[:p], shrink, out=scratch)
                after[:p] -= scratch
            elif l1:
                _soft_threshold(after[:p], shrink, scratch)
            design, other, theta, after = other, design, after, theta
        done += count
        move = after - theta  # the block's last move, from `after` to `theta`
        if math.sqrt(move.dot(move)) < tol:
            theta, done = after, done - 1  # end where that move starts
            break
    w, b = theta[:p].copy(), float(theta[p])
    # through the public entry point, so the perfbench trace, which counts
    # loss_gradient calls, still sees the final gradient of every iterating fit
    gw, gb = loss_gradient(w, b, X, y, LearnerConfig() if l1 else config)
    if l1:  # the gradient mapping the stop test reads, (w - prox(w - step * gw)) / step
        after = w - step * gw
        _soft_threshold(after, shrink, scratch)
        gw = (w - after) / step
    return LogisticModel(w, b, grad_norm=math.sqrt(float(gw.dot(gw)) + gb * gb),
                         n_iter=done)
