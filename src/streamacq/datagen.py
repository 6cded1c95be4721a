"""Synthetic binary-classification streams with controllable difficulty.

Four Gaussian-ish clusters sit on hypercube vertices, two per class, with
per-cluster random mixing so covariances differ. Difficulty knobs: class
imbalance, label flips, and appended pure-noise features. Two splitters
carve a dataset into test set, initial pool, and stream: a class-balanced one
for generated sets and a time-ordered one for a CSV stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TEST_PER_CLASS",
    "INITIAL_POOL_SIZE",
    "CASE_STUDY_POOL_SIZE",
    "GeneratorConfig",
    "Dataset",
    "ScenarioSplit",
    "generate",
    "scenario_split",
    "case_study_split",
]

TEST_PER_CLASS = 250
INITIAL_POOL_SIZE = 20
CASE_STUDY_POOL_SIZE = 10
# Features then stay within about 1e100, their squares within 1e200, and the
# sums of squares a fit or a window forms over any pool stay finite.
CLASS_SEP_MAX = 1e100

# Substream ids, one per stage, so each stage draws from its own generator.
_STAGE_CLUSTERS = 0
_STAGE_FLIPS = 1
_STAGE_NOISE = 2
_STAGE_SHUFFLE = 3
_STAGE_SPLIT = 4
STAGE_CASE_SPLIT = 5
STAGE_RUN = 6


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape and difficulty of one synthetic dataset."""

    n: int
    p: int
    positive_share: float = 0.10
    flip_share: float = 0.0
    noise_share: float = 0.0
    class_sep: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.p < 1:
            raise ValueError("p must be positive")
        if not 0.0 < self.positive_share < 1.0:
            raise ValueError("positive share must lie in (0, 1)")
        if not 0.0 <= self.flip_share < 1.0:
            raise ValueError("flip share must lie in [0, 1)")
        if not 0.0 <= self.noise_share < 1.0:
            raise ValueError("noise share must lie in [0, 1)")
        if not 0.0 < self.class_sep <= CLASS_SEP_MAX:
            raise ValueError(f"class_sep: class separation must be positive and finite, "
                             f"at most {CLASS_SEP_MAX:g}, got {self.class_sep}")
        if self.informative_features < 2:
            raise ValueError(
                "need at least two informative features after noise padding")

    @property
    def noise_features(self) -> int:
        return math.floor(self.noise_share * self.p)

    @property
    def informative_features(self) -> int:
        return self.p - self.noise_features

    @property
    def total_size(self) -> int:
        """Generated rows: n plus one held-out test half per class."""
        return self.n + 2 * TEST_PER_CLASS


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus 0/1 labels, already shuffled."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, p) with one label per row")


def _cluster_centroids(q: int, sep: float) -> np.ndarray:
    """Four hypercube vertices, classes 0/1 alternating around the list.

    Even coordinates carry the class sign, odd coordinates the within-class
    cluster sign, so class is a linear function of the centroid.
    """
    idx = np.arange(q)
    centroids = np.empty((4, q))
    for k in range(4):
        class_sign = 1.0 if k % 2 == 1 else -1.0
        pair_sign = 1.0 if k // 2 == 1 else -1.0
        centroids[k] = np.where(idx % 2 == 0, class_sign, pair_sign) * sep
    return centroids


def _split_count(total: int) -> tuple[int, int]:
    """Split a class total over its two clusters, remainder to the first."""
    second = total // 2
    return total - second, second


def generate(config: GeneratorConfig) -> Dataset:
    """Draw one dataset; identical configs give identical bytes.

    Each stage (clusters, flips, noise features, shuffle) uses a dedicated
    seeded substream, so toggling one knob leaves the other stages' draws
    untouched.
    """
    q = config.informative_features
    centroids = _cluster_centroids(q, config.class_sep)

    positives = round(config.positive_share * config.n) + TEST_PER_CLASS
    negatives = (config.n - round(config.positive_share * config.n)) + TEST_PER_CLASS
    neg_a, neg_b = _split_count(negatives)
    pos_a, pos_b = _split_count(positives)
    counts = [neg_a, pos_a, neg_b, pos_b]  # vertex order, classes alternate

    rng = np.random.default_rng([config.seed, _STAGE_CLUSTERS])
    blocks = []
    labels = []
    for k, m in enumerate(counts):
        mixing = rng.uniform(-1.0, 1.0, size=(q, q))
        noise = rng.standard_normal(size=(m, q))
        blocks.append(noise @ mixing + centroids[k])
        labels.append(np.full(m, k % 2, dtype=int))
    features = np.vstack(blocks)
    y = np.concatenate(labels)

    n_flips = math.floor(config.flip_share * config.n)
    if n_flips > 0:
        # each cluster's last TEST_PER_CLASS // 2 rows keep their labels, so
        # each class keeps its test rows; the other n rows may flip
        flippable = np.concatenate([np.arange(end - m, end - TEST_PER_CLASS // 2)
                                    for end, m in zip(np.cumsum(counts), counts)])
        rng = np.random.default_rng([config.seed, _STAGE_FLIPS])
        flip_idx = rng.choice(flippable, size=n_flips, replace=False)
        y[flip_idx] = 1 - y[flip_idx]

    if config.noise_features > 0:
        rng = np.random.default_rng([config.seed, _STAGE_NOISE])
        pad = rng.standard_normal(size=(config.total_size, config.noise_features))
        features = np.hstack([features, pad])

    rng = np.random.default_rng([config.seed, _STAGE_SHUFFLE])
    order = rng.permutation(config.total_size)
    return Dataset(features=features[order], labels=y[order])


@dataclass(frozen=True)
class ScenarioSplit:
    """Stream-experiment roles carved out of one dataset."""

    initial_features: np.ndarray
    initial_labels: np.ndarray
    stream_features: np.ndarray
    stream_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    budget: int


def _roles(test_idx: np.ndarray, n_rows: int,
           initial_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows outside ``test_idx`` in their order: the first ``initial_size``
    seed the initial pool, the rest flow through the stream."""
    in_test = np.zeros(n_rows, dtype=bool)
    in_test[test_idx] = True
    rest = np.flatnonzero(~in_test)
    if rest.size <= initial_size:
        raise ValueError("nothing left for the stream after test and initial pool")
    return rest[:initial_size], rest[initial_size:]


def _split(features: np.ndarray, labels: np.ndarray, test_idx: np.ndarray, initial: np.ndarray,
           stream: np.ndarray, budget_fraction: float) -> ScenarioSplit:
    """The roles' rows, and a budget of the given fraction of the stream, rounded."""
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError("budget fraction must lie in (0, 1]")
    return ScenarioSplit(
        initial_features=features[initial],
        initial_labels=labels[initial],
        stream_features=features[stream],
        stream_labels=labels[stream],
        test_features=features[test_idx],
        test_labels=labels[test_idx],
        budget=round(budget_fraction * stream.size),
    )


def scenario_split(dataset: Dataset, seed: int,
                   budget_fraction: float = 0.10) -> ScenarioSplit:
    """Carve test set, initial pool, and stream out of a generated dataset.

    A class-balanced test set comes out first, the next rows seed the initial
    pool (swapping one row in from the stream if the pool landed single-class),
    and everything left flows through the stream in order.
    """
    y = dataset.labels
    rng = np.random.default_rng([seed, _STAGE_SPLIT])
    test_idx = []
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        if members.size < TEST_PER_CLASS:
            raise ValueError(
                f"class {cls} has {members.size} rows, need {TEST_PER_CLASS} for the test set")
        test_idx.append(rng.choice(members, size=TEST_PER_CLASS, replace=False))
    test_idx = np.concatenate(test_idx)

    initial, stream = _roles(test_idx, y.shape[0], INITIAL_POOL_SIZE)
    initial_classes = set(y[initial].tolist())
    if len(initial_classes) == 1:
        missing = 1 - next(iter(initial_classes))
        candidates = np.flatnonzero(y[stream] == missing)
        if candidates.size > 0:  # trade the pool's last row for the stream's first match
            j = candidates[0]
            initial[-1], stream[j] = stream[j], initial[-1]
    return _split(dataset.features, y, test_idx, initial, stream, budget_fraction)


def case_study_split(features: np.ndarray, labels: np.ndarray, seed: int,
                     initial_size: int = CASE_STUDY_POOL_SIZE,
                     budget_fraction: float = 0.10) -> ScenarioSplit:
    """Time-ordered split: one contiguous wrap-around block becomes the test set.

    A third of the rows (floor), starting at a seeded uniform index and
    wrapping past the end, are held out; the rest keep their original order,
    with the first ``initial_size`` rows seeding the pool.
    """
    n = labels.shape[0]
    if n < 30:
        raise ValueError("case-study split needs at least 30 rows")
    rng = np.random.default_rng([seed, STAGE_CASE_SPLIT])
    test_idx = (int(rng.integers(n)) + np.arange(n // 3)) % n
    initial, stream = _roles(test_idx, n, initial_size)
    return _split(features, labels, test_idx, initial, stream, budget_fraction)
