"""Shared primitives: feature vectors, labelled pools, and sliding windows.

The sliding window keeps, for every member, its Euclidean distance to the
farthest and to the nearest other member.  Both exploration agents read these
caches on every step, so they are maintained exactly.  Members live in a
preallocated ring of ``capacity`` slots together with the pairwise distance
matrix of those slots.  A push computes one distance row, writes it into the
new slot's row and column, and folds it into every cached extreme; evicting
the oldest slot recomputes, as a masked row max/min over the matrix, only the
extremes that were the distance to the evicted point.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "LabeledPool",
    "SlidingWindow",
    "as_feature_vector",
    "squared_euclidean",
    "euclidean",
]


def as_feature_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float array, failing fast otherwise."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d feature vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("feature vector is empty")
    if not np.all(np.isfinite(v)):
        raise ValueError("feature vector has non-finite entries")
    return v


def squared_euclidean(x, y) -> float:
    """Sum of squared coordinate differences of two equal-length vectors."""
    xv = as_feature_vector(x)
    yv = as_feature_vector(y)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    d = xv - yv
    return float(d @ d)


def euclidean(x, y) -> float:
    """Euclidean distance, the square root of :func:`squared_euclidean`."""
    return math.sqrt(squared_euclidean(x, y))


class LabeledPool:
    """Labelled samples accumulated for model fitting, in acquisition order.

    Rows and labels live in preallocated arrays whose capacity doubles when
    full, so ``features`` and ``labels`` copy a prefix instead of rebuilding
    an array from a list of rows.
    """

    INITIAL_CAPACITY = 32

    def __init__(self):
        self._size = 0
        # allocated by the first append, which fixes the dimension
        self._rows: Optional[np.ndarray] = None  # (capacity, dim)
        self._labels = np.empty(0, dtype=int)  # (capacity,)

    def __len__(self) -> int:
        return self._size

    def append(self, features, label) -> None:
        """Pool one labelled row; ``label`` must be 0 or 1."""
        v = as_feature_vector(features)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        if self._rows is None:
            self._rows = np.empty((self.INITIAL_CAPACITY, v.size))
            self._labels = np.empty(self.INITIAL_CAPACITY, dtype=int)
        elif v.size != self._rows.shape[1]:
            raise ValueError(
                f"sample dimension {v.size} does not match pool "
                f"dimension {self._rows.shape[1]}"
            )
        n = self._size
        if n == self._labels.size:
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._labels = np.concatenate([self._labels, np.empty_like(self._labels)])
        self._rows[n] = v
        self._labels[n] = label
        self._size = n + 1

    @property
    def features(self) -> np.ndarray:
        """The pooled rows as a fresh (n, dim) array; (0,) while empty."""
        if self._rows is None:
            return np.empty(0)
        return self._rows[:self._size].copy()

    @property
    def labels(self) -> np.ndarray:
        return self._labels[:self._size].copy()

    def class_counts(self) -> tuple[int, int]:
        ones = int(self._labels[:self._size].sum())
        return self._size - ones, ones


class SlidingWindow:
    """Fixed-capacity FIFO of feature vectors with cached pairwise extremes.

    ``farthest_distances()[j]`` is the Euclidean distance from member ``j`` to
    the member farthest from it; ``nearest_distances()[j]`` the distance to the
    closest one.  Both are NaN while the window holds a single point.  Every
    per-member array is returned oldest first.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = int(capacity)
        self._size = 0
        self._head = 0  # slot of the oldest member once the ring is full
        # allocated by _allocate once the first point fixes the dimension
        self._points: Optional[np.ndarray] = None  # (capacity, dim) slots
        self._dist: Optional[np.ndarray] = None  # (capacity, capacity) pairwise
        self._far: Optional[np.ndarray] = None  # -inf without a co-member
        self._near: Optional[np.ndarray] = None  # +inf without a co-member

    def _allocate(self, dim: int) -> None:
        cap = self.capacity
        self._points = np.zeros((cap, dim))
        self._dist = np.zeros((cap, cap))
        self._far = np.full(cap, -np.inf)
        self._near = np.full(cap, np.inf)

    @classmethod
    def from_points(cls, points, capacity: Optional[int] = None) -> "SlidingWindow":
        """Bulk-build a window; one vectorized pass fills the distance caches."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"expected a 2-d point array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points have non-finite entries")
        m = pts.shape[0]
        win = cls(m if capacity is None else capacity)
        if m > win.capacity:
            raise ValueError(f"{m} points exceed capacity {win.capacity}")
        if m == 0:
            return win
        win._allocate(pts.shape[1])
        win._points[:m] = pts
        win._size = m
        sq = (pts * pts).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
        dist = np.sqrt(np.clip(d2, 0.0, None))
        win._dist[:m, :m] = dist
        np.fill_diagonal(dist, -np.inf)
        win._far[:m] = dist.max(axis=1)
        np.fill_diagonal(dist, np.inf)
        win._near[:m] = dist.min(axis=1)
        return win

    def __len__(self) -> int:
        return self._size

    @property
    def dim(self) -> Optional[int]:
        return None if self._points is None else self._points.shape[1]

    def _age_order(self) -> np.ndarray:
        """Slot indices of the members, oldest first."""
        return np.arange(self._head, self._head + self._size) % self.capacity

    def _extremes(self, cache: np.ndarray) -> np.ndarray:
        if self._size < 2:
            return np.full(self._size, math.nan)
        return cache[self._age_order()]

    def points_matrix(self) -> np.ndarray:
        """Members as an (m, dim) array, oldest first."""
        if self._points is None:
            return np.empty(0)
        return self._points[self._age_order()]

    def farthest_distances(self) -> np.ndarray:
        return self._extremes(self._far)

    def nearest_distances(self) -> np.ndarray:
        return self._extremes(self._near)

    def _row(self, v: np.ndarray) -> np.ndarray:
        """Distances from ``v`` to every occupied slot, in slot order."""
        diff = self._points[:self._size] - v
        return np.sqrt((diff * diff).sum(axis=1))

    def _vector(self, x) -> np.ndarray:
        """Validate ``x`` as a point of this window's dimension."""
        v = as_feature_vector(x)
        if self._points is not None and v.size != self.dim:
            raise ValueError(
                f"dimension mismatch: window holds {self.dim}-d points, got {v.size}"
            )
        return v

    def distances_to(self, x) -> np.ndarray:
        """Euclidean distance from ``x`` to every member, oldest first."""
        v = self._vector(x)
        if self._points is None:
            return np.empty(0)
        return self._row(v)[self._age_order()]

    def push(self, x) -> None:
        """Append ``x``, evicting the oldest member when at capacity.

        The new point's distance row fills its slot's row and column of the
        pairwise matrix.  A member keeps its cached extreme unless that
        extreme was its distance to the evicted point, in which case it is
        recomputed as a masked row max/min over the matrix.
        """
        v = self._vector(x)
        if self._points is None:
            self._allocate(v.size)
        far, near, dist = self._far, self._near, self._dist
        if self._size < self.capacity:
            slot = self._size
            self._size += 1
            stale = np.empty(0, dtype=np.intp)
        else:
            slot = self._head
            self._head = (slot + 1) % self.capacity
            gone = dist[:, slot]  # row j's distance to the evicted point
            hit = (far == gone) | (near == gone)
            hit[slot] = False
            stale = np.flatnonzero(hit)
        n = self._size
        self._points[slot] = v
        d = self._row(v)  # d[slot] is the new point's distance to itself
        dist[slot, :n] = d
        dist[:n, slot] = d
        np.maximum(far[:n], d, out=far[:n])
        np.minimum(near[:n], d, out=near[:n])
        if stale.size:
            rows = dist[stale, :n]
            diagonal = (np.arange(stale.size), stale)
            rows[diagonal] = -np.inf
            far[stale] = rows.max(axis=1)
            rows[diagonal] = np.inf
            near[stale] = rows.min(axis=1)
        d[slot] = -np.inf
        far[slot] = d.max()
        d[slot] = np.inf
        near[slot] = d.min()
