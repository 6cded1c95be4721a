"""Deterministic binary logistic regression, built for frequent full refits.

The optimizer is fixed (zero init, full-batch gradient descent, step
0.1/(1 + Lipschitz bound), 500-iteration cap, gradient-norm stop at 1e-6) so
that fitting the same pool twice gives bit-identical parameters.

A fit validates its inputs once, at its boundary, and then descends on an
augmented design built once per fit: in ``forward = [X | 1]`` the column of
ones meets the bias, the last entry of ``theta = [w, b]``, and
``backward = forward * (step / n)`` folds the step and the 1/n of the mean
loss into the transposed product. An iteration is then six numpy calls on
buffers allocated once per fit, and it allocates nothing: ``forward.dot(theta)``,
``expit``, ``- y``, the product with ``backward`` (the step-scaled gradient,
bias included), its squared norm for the stop test, and ``theta -= move``; a
penalty adds its term to the weight part of the move. This groups the
floating-point operations differently from the mean gradient of
:func:`loss_gradient`, so the fitted parameters agree with that descent to
rounding, not bit for bit. After the loop, one public :func:`loss_gradient`
call (which checks the inputs a second time) reports the gradient norm at the
fitted parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

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
L1_SOFT_THRESHOLD = 1e-8

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
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if not self.grad_tol >= 0:
            raise ValueError(f"grad_tol must be nonnegative, got {self.grad_tol}")


def predicted_class(proba: np.ndarray) -> np.ndarray:
    """Class with the larger probability along the last axis; a tie goes to class 0."""
    return (proba[..., 1] > proba[..., 0]).astype(int)


@dataclass
class LogisticModel:
    """Fitted model; ``degenerate_class`` is set when the pool had one class only.

    ``grad_norm`` is the norm of the loss gradient at the fitted parameters,
    set by :func:`fit_logistic` when it iterated.
    """

    weights: np.ndarray
    bias: float
    degenerate_class: Optional[int] = None
    grad_norm: Optional[float] = None

    def predict_proba(self, x) -> np.ndarray:
        """Class probabilities of one sample; the batch path on a one-row batch."""
        v = np.asarray(x, dtype=float)
        if v.ndim != 1 or v.size != self.weights.size:
            raise ValueError(f"expected a 1-d feature vector of {self.weights.size} values, "
                             f"got shape {v.shape}")
        return self.predict_proba_batch(v[None, :])[0]

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
            expit(X @ self.weights + self.bias, out=p1)
            np.maximum(p1, PROBA_CLIP, out=p1)
            np.minimum(p1, 1.0 - PROBA_CLIP, out=p1)
        np.subtract(1.0, p1, out=proba[:, 0])
        return proba

    def predict(self, x) -> int:
        return int(predicted_class(self.predict_proba(x)))

    def predict_batch(self, X) -> np.ndarray:
        return predicted_class(self.predict_proba_batch(X))


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
    return _loss(np.asarray(weights, dtype=float), bias, X, y, config)


def _loss(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
          config: LearnerConfig) -> float:
    """The arithmetic of :func:`loss_value` on already-validated float arrays."""
    z = X @ w + b
    nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
    if config.penalty == "l2":
        nll += 0.5 * config.strength * float(w @ w)
    elif config.penalty == "l1":
        nll += config.strength * float(np.abs(w).sum())
    return nll


def loss_gradient(weights, bias, X, y, config: LearnerConfig) -> tuple[np.ndarray, float]:
    """Analytic gradient of :func:`loss_value` w.r.t. (weights, bias).

    For L1 this is a subgradient with sign(0) taken as 0.
    """
    X, y = _validated_xy(X, y)
    w = np.asarray(weights, dtype=float)
    resid = (expit(X @ w + bias) - y) / X.shape[0]
    gw = X.T @ resid
    if config.penalty == "l2":
        gw += config.strength * w
    elif config.penalty == "l1":
        gw += config.strength * np.sign(w)
    return gw, float(resid.sum())


def fit_logistic(X, y, config: LearnerConfig = LearnerConfig(),
                 loss_trace: Optional[list] = None) -> LogisticModel:
    """Fit from scratch.  A single-class pool yields a constant degenerate model.

    The inputs are validated here, once; the loop iterates on the augmented
    design in buffers allocated once per fit.
    """
    X, y = _validated_xy(X, y)
    n, p = X.shape
    present = np.unique(y)
    if present.size == 1:
        return LogisticModel(np.zeros(p), 0.0, degenerate_class=int(present[0]))
    # gradient Lipschitz bound for the mean logistic loss with a bias column
    lipschitz = (float((X * X).sum()) + n) / (4.0 * n)
    if config.penalty == "l2":
        lipschitz += config.strength
    step = 0.1 / (1.0 + lipschitz)
    forward = np.ones((n, p + 1))
    forward[:, :p] = X
    backward = forward * (step / n)
    theta = np.zeros(p + 1)
    w = theta[:p]
    z, move, scratch = np.empty(n), np.empty(p + 1), np.empty(p)
    move_w = move[:p]
    shrink = step * config.strength
    tol = step * config.grad_tol
    for _ in range(config.max_iter):
        if loss_trace is not None:
            loss_trace.append(_loss(w, theta[p], X, y, config))
        forward.dot(theta, out=z)
        expit(z, out=z)
        z -= y
        z.dot(backward, out=move)
        if config.penalty == "l2":
            np.multiply(w, shrink, out=scratch)
            move_w += scratch
        elif config.penalty == "l1":
            np.sign(w, out=scratch)
            scratch *= shrink
            move_w += scratch
        if math.sqrt(move.dot(move)) < tol:
            break
        theta -= move
        if config.penalty == "l1":
            np.abs(w, out=scratch)
            scratch -= L1_SOFT_THRESHOLD
            np.maximum(scratch, 0.0, out=scratch)
            np.sign(w, out=w)
            w *= scratch
    b = float(theta[p])
    if loss_trace is not None:
        loss_trace.append(_loss(w, b, X, y, config))
    # through the public entry point, so the perfbench trace, which counts
    # loss_gradient calls, still sees the final gradient of every iterating fit
    gw, gb = loss_gradient(w, b, X, y, config)
    return LogisticModel(w, b, grad_norm=math.sqrt(float(gw.dot(gw)) + gb * gb))
