"""Deterministic binary logistic regression, built for frequent full refits.

The optimizer is fixed (zero init, full-batch gradient descent, step
0.1/(1 + Lipschitz bound), 500-iteration cap, gradient-norm stop at 1e-6) so
that fitting the same pool twice gives bit-identical parameters.

A fit validates its inputs once, at its boundary; the descent loop then works
on the validated arrays and never checks them again. After the loop, one public
:func:`loss_gradient` call (which checks the inputs a second time) reports the
gradient norm at the fitted parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .core import as_feature_vector

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
        if self.strength < 0:
            raise ValueError("regularization strength must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


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
        v = as_feature_vector(x)
        if v.size != self.weights.size:
            raise ValueError(f"dimension mismatch: {v.size} vs model {self.weights.size}")
        if self.degenerate_class is not None:
            p1 = 1.0 - DEGENERATE_CONFIDENCE if self.degenerate_class == 1 else DEGENERATE_CONFIDENCE
        else:
            p1 = float(expit(self.weights @ v + self.bias))
            p1 = min(max(p1, PROBA_CLIP), 1.0 - PROBA_CLIP)
        return np.array([1.0 - p1, p1])

    def predict_proba_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.weights.size:
            raise ValueError("expected an (n, p) array matching the model dimension")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs have non-finite entries")
        if self.degenerate_class is not None:
            p1 = np.full(X.shape[0],
                         1.0 - DEGENERATE_CONFIDENCE if self.degenerate_class == 1
                         else DEGENERATE_CONFIDENCE)
        else:
            p1 = np.clip(expit(X @ self.weights + self.bias), PROBA_CLIP, 1.0 - PROBA_CLIP)
        return np.column_stack([1.0 - p1, p1])

    def predict(self, x) -> int:
        return int(predicted_class(self.predict_proba(x)))

    def predict_batch(self, X) -> np.ndarray:
        return predicted_class(self.predict_proba_batch(X))

    def certainty(self, x) -> float:
        return float(self.predict_proba(x).max())


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
    if not np.all(np.isin(y, (0, 1))):
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
    return _gradient(np.asarray(weights, dtype=float), bias, X, y, config)


def _gradient(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray,
              config: LearnerConfig) -> tuple[np.ndarray, float]:
    """The arithmetic of :func:`loss_gradient` on already-validated float arrays."""
    resid = (expit(X @ w + b) - y) / X.shape[0]
    gw = X.T @ resid
    gb = float(resid.sum())
    if config.penalty == "l2":
        gw = gw + config.strength * w
    elif config.penalty == "l1":
        gw = gw + config.strength * np.sign(w)
    return gw, gb


def fit_logistic(X, y, config: LearnerConfig = LearnerConfig(),
                 loss_trace: Optional[list] = None) -> LogisticModel:
    """Fit from scratch.  A single-class pool yields a constant degenerate model.

    The inputs are validated here, once; the loop iterates on the checked arrays.
    """
    X, y = _validated_xy(X, y)
    n, p = X.shape
    present = np.unique(y)
    if present.size == 1:
        return LogisticModel(np.zeros(p), 0.0, degenerate_class=int(present[0]))
    w = np.zeros(p)
    b = 0.0
    # gradient Lipschitz bound for the mean logistic loss with a bias column
    lipschitz = (float((X * X).sum()) + n) / (4.0 * n)
    if config.penalty == "l2":
        lipschitz += config.strength
    step = 0.1 / (1.0 + lipschitz)
    for _ in range(config.max_iter):
        if loss_trace is not None:
            loss_trace.append(_loss(w, b, X, y, config))
        gw, gb = _gradient(w, b, X, y, config)
        if float(np.sqrt(gw @ gw + gb * gb)) < config.grad_tol:
            break
        w = w - step * gw
        b = b - step * gb
        if config.penalty == "l1":
            w = np.sign(w) * np.maximum(np.abs(w) - L1_SOFT_THRESHOLD, 0.0)
    if loss_trace is not None:
        loss_trace.append(_loss(w, b, X, y, config))
    # through the public entry point, so the perfbench trace, which counts
    # loss_gradient calls, still sees the final gradient of every iterating fit
    gw, gb = loss_gradient(w, b, X, y, config)
    return LogisticModel(w, float(b), grad_norm=float(np.sqrt(gw @ gw + gb * gb)))
