"""Deterministic binary logistic regression, built for frequent full refits.

The optimizer is fixed (zero init, full-batch gradient descent, step
0.1/(1 + Lipschitz bound), 500-iteration cap, gradient-norm stop at 1e-6) so
that fitting the same pool twice gives bit-identical parameters.

A fit validates its inputs once, at its boundary, and then descends on a
design built once per fit. In ``forward = [X | 1]`` the column of ones meets
the bias, the last entry of ``theta = [w, b]``, and each row whose label is 1
is negated. For such a row ``expit(z) - 1 = -expit(-z)``, so the residual of
every row is ``expit(forward . theta)`` and the labels drop out of the loop;
``backward = forward * (step / n)`` carries the same signs, the step and the
1/n of the mean loss into the transposed product. An iteration is then four
numpy calls on buffers allocated once per fit: ``forward.dot(theta)``,
``expit``, the product with ``backward`` (the step-scaled gradient, bias
included) and ``theta - move`` into the next iterate; a penalty adds its
term to the move's weights, and under L1 the soft threshold follows.

The gradient-norm stop is tested once per block of iterations on the
block's kept moves and iterates: row i of the iterate buffer holds the
parameters before the block's i-th move.  One ``einsum`` gives every move's
squared norm; it may round a sum an ulp apart from a row's ``dot``, so it
only nominates rows near the tolerance (a block with none goes straight on
to the next), and the first nominated move j whose
``math.sqrt(move.dot(move))`` is under it, the per-iteration test, ends the
fit at iterate j, with the same bits and ``n_iter`` as a test after every
iteration.  A fit that stops computes up to one block more than it keeps.

The negated rows compute the residual of a positive label as ``expit(-z)``
rather than ``expit(z) - 1`` and group the floating-point operations
differently from the mean gradient of :func:`loss_gradient`, so the fitted
parameters agree with that descent to rounding, not bit for bit. After the
loop, one public :func:`loss_gradient` call (which checks the inputs a
second time) reports the gradient norm at the fitted parameters.

A test set is scored by :meth:`LogisticModel.predict_proba_batch`; one row is
scored in scalar math by :meth:`LogisticModel.positive_proba`, with the same
floating-point operations as the batch row, so the two agree bit for bit.
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
_EXPIT_ZERO_BELOW = -700.0  # math.exp(-z) stays finite above this
_STOP_BLOCK = 50  # descent iterations between gradient-norm stop tests

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


def predicted_class(proba: np.ndarray) -> np.ndarray:
    """Class with the larger probability along the last axis; a tie goes to class 0."""
    return (proba[..., 1] > proba[..., 0]).astype(int)


@dataclass
class LogisticModel:
    """Fitted model; ``degenerate_class`` is set when the pool had one class only.

    ``grad_norm`` is the norm of the loss gradient at the fitted parameters,
    set by :func:`fit_logistic` when it iterated; ``n_iter`` is the number of
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
        ``1 / (1 + exp(-z))`` is scipy's ``expit`` with libm's ``exp``.
        """
        if self.degenerate_class is not None:
            return (1.0 - DEGENERATE_CONFIDENCE if self.degenerate_class == 1
                    else DEGENERATE_CONFIDENCE)
        z = float(v @ self.weights) + self.bias
        # exp(-z) overflows near z = -709.8, where expit is 0; any z below
        # about -27.6 clips to PROBA_CLIP either way
        p1 = 0.0 if z < _EXPIT_ZERO_BELOW else 1.0 / (1.0 + math.exp(-z))
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


def _soft_threshold(w: np.ndarray, scratch: np.ndarray) -> None:
    """Shrink ``w`` in place toward zero by :data:`L1_SOFT_THRESHOLD`."""
    np.abs(w, out=scratch)
    scratch -= L1_SOFT_THRESHOLD
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
    signs = 1.0 - 2.0 * y
    forward = np.empty((n, p + 1))
    np.multiply(X, signs[:, None], out=forward[:, :p])
    forward[:, p] = signs
    backward = forward * (step / n)
    z, scratch = np.empty(n), np.empty(p)
    iterates = np.zeros((_STOP_BLOCK + 1, p + 1))
    moves = np.empty((_STOP_BLOCK, p + 1))
    # move i of a block turns iterate row i into row i + 1
    rows = list(iterates)
    slots = list(zip(rows, moves, rows[1:]))
    l2, l1 = config.penalty == "l2", config.penalty == "l1"
    subtract = np.subtract  # a local name: the loop calls it 500 times per fit
    shrink = step * config.strength
    tol = step * config.grad_tol
    # einsum only nominates rows, against a bound a hair above the tolerance
    nominate = (tol * (1.0 + 1e-9)) ** 2
    for done in range(0, config.max_iter, _STOP_BLOCK):
        count = min(_STOP_BLOCK, config.max_iter - done)
        for theta, move, after in slots[:count]:
            forward.dot(theta, out=z)
            expit(z, out=z)
            z.dot(backward, out=move)
            if l2:
                np.multiply(theta[:p], shrink, out=scratch)
                move[:p] += scratch
            elif l1:
                np.sign(theta[:p], out=scratch)
                scratch *= shrink
                move[:p] += scratch
            subtract(theta, move, after)
            if l1:
                _soft_threshold(after[:p], scratch)
        squares = np.einsum("ij,ij->i", moves[:count], moves[:count])
        stop = count
        if squares.min() <= nominate:  # some move is near the tolerance
            stop = next((j for j in np.flatnonzero(squares <= nominate)
                         if math.sqrt(moves[j].dot(moves[j])) < tol), count)
            if stop < count:
                break
        iterates[0] = iterates[count]
    w, b = iterates[stop, :p], float(iterates[stop, p])
    # through the public entry point, so the perfbench trace, which counts
    # loss_gradient calls, still sees the final gradient of every iterating fit
    gw, gb = loss_gradient(w, b, X, y, config)
    return LogisticModel(w, b, grad_norm=math.sqrt(float(gw.dot(gw)) + gb * gb),
                         n_iter=done + stop)
