"""Shared primitives: feature vectors, labelled pools, and sliding windows.

The sliding window keeps its members oldest first in an array, together with
their pairwise distance matrix; both double as members arrive, up to the
window's capacity, so a long window costs only what it holds.  A push checks
the new point, computes its one distance row and writes it into the row and
column after the newest member's.  The first eviction adds a few spare rows;
an eviction then only advances the row the members start at, and once the
spare rows are used up, one block copy moves the members back to the front.
The stream runner pushes each sample before the agents vote, so
:meth:`SlidingWindow.candidate` hands them the newest member's distance row
and the distances among the members before it, read off the matrix.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = [
    "LabeledPool",
    "SlidingWindow",
    "as_feature_vector",
    "euclidean",
]


def as_feature_vector(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float array, failing fast otherwise."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d feature vector, got shape {v.shape}")
    if v.size == 0:
        raise ValueError("feature vector is empty")
    if np.count_nonzero(np.isfinite(v)) != v.size:  # cheaper than .all() on a few values
        raise ValueError("feature vector has non-finite entries")
    return v


def euclidean(x, y) -> float:
    """Euclidean distance between two equal-length vectors."""
    xv = as_feature_vector(x)
    yv = as_feature_vector(y)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.size} vs {yv.size}")
    d = xv - yv
    return math.sqrt(float(d @ d))


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
    """Fixed-capacity FIFO of feature vectors with their pairwise distances.

    Members are kept oldest first with their pairwise distance matrix, whose
    diagonal holds NaN.  :meth:`candidate` reads the newest member's distances
    to the ``k`` members before it, and the distances among those ``k``, so
    agents of different window lengths share one window.  The arrays start at
    ``INITIAL_ROWS`` rows and double when full until they reach the capacity;
    the first eviction adds ``INITIAL_ROWS`` spare rows.  The members occupy
    rows ``start .. start + len - 1``: an eviction advances ``start``, and
    when the last row is taken one block copy moves the members back to row
    0, so the matrix moves once every ``INITIAL_ROWS`` pushes, not on every
    eviction.
    """

    INITIAL_ROWS = 32

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = int(capacity)
        self._size = 0
        self._start = 0  # row of the oldest member
        # allocated by _allocate once the first point fixes the dimension
        self._points: Optional[np.ndarray] = None  # (rows, dim)
        self._dist: Optional[np.ndarray] = None  # (rows, rows) pairwise

    def _allocate(self, dim: int, rows: int) -> None:
        """Room for ``rows`` rows, the current members copied to the front."""
        n, start = self._size, self._start
        points, dist = self._points, self._dist
        self._points = np.zeros((rows, dim))
        # NaN fills the diagonal for good: no write lands on it, and a
        # compaction moves it along itself
        self._dist = np.full((rows, rows), math.nan)
        if n:
            self._points[:n] = points[start:start + n]
            self._dist[:n, :n] = dist[start:start + n, start:start + n]
        self._start = 0

    def _compact(self) -> None:
        """Move the members from row ``start`` back to row 0."""
        n, start = self._size, self._start
        self._start = 0
        if n == 0:
            return
        # Flat 1-d copies, which numpy runs in place on a forward overlap
        # where a 2-d one would go through a temporary.  Moving the matrix's
        # flat buffer back by start * (rows + 1) entries moves the member
        # block up and left by start; the entries it drags along outside the
        # block are rewritten by later pushes before any read.
        dim = self._points.shape[1]
        points = self._points.reshape(-1)
        points[:n * dim] = points[start * dim:(start + n) * dim]
        rows = len(self._dist)
        flat = self._dist.reshape(-1)
        span = (n - 1) * rows + n
        shift = start * (rows + 1)
        flat[:span] = flat[shift:shift + span]

    @classmethod
    def from_points(cls, points, capacity: Optional[int] = None) -> "SlidingWindow":
        """Bulk-build a window; one vectorized pass fills the distance matrix."""
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
        win._allocate(pts.shape[1], win.capacity)
        win._points[:m] = pts
        win._size = m
        sq = (pts * pts).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
        dist = np.sqrt(np.clip(d2, 0.0, None))
        np.fill_diagonal(dist, math.nan)
        win._dist[:m, :m] = dist
        return win

    def __len__(self) -> int:
        return self._size

    @property
    def dim(self) -> Optional[int]:
        return None if self._points is None else self._points.shape[1]

    def points_matrix(self) -> np.ndarray:
        """Members as an (m, dim) array, oldest first."""
        if self._points is None:
            return np.empty(0)
        return self._points[self._start:self._start + self._size].copy()

    def candidate(self, k: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
        """The newest member's distances and the distances among the members before it.

        Reads the ``k`` members before the newest (all of them when ``None``),
        oldest first: their distances to the newest member as a row, and their
        pairwise distances as a block with NaN on the diagonal.  Both are views
        into the matrix, valid until the next push.
        """
        n = self._size
        if n == 0:
            raise ValueError("the window is empty; push the candidate first")
        start = self._start
        new = start + n - 1
        lo = start if k is None else max(new - k, start)
        return self._dist[new, lo:new], self._dist[lo:new, lo:new]

    def push(self, x) -> None:
        """Append ``x``, evicting the oldest member when at capacity.

        Full arrays below the capacity double first.  The first eviction
        adds the spare rows; every eviction then only advances the oldest
        member's row, and when no row is left after the members, they move
        back to row 0.  The new point's distance row then fills the next row
        and column.
        """
        v = as_feature_vector(x)
        if self._points is None:
            self._allocate(v.size, min(self.INITIAL_ROWS, self.capacity))
        elif v.size != self.dim:
            raise ValueError(
                f"dimension mismatch: window holds {self.dim}-d points, got {v.size}"
            )
        if self._size == self.capacity:
            if len(self._points) == self.capacity:  # the first eviction
                self._allocate(v.size, self.capacity + self.INITIAL_ROWS)
            self._start += 1
            self._size -= 1
            if self._start + self._size == len(self._points):
                self._compact()
        elif self._size == len(self._points):
            self._allocate(v.size, min(2 * self._size, self.capacity))
        start, n = self._start, self._size
        new = start + n
        diff = self._points[start:new] - v
        d = np.sqrt((diff * diff).sum(axis=1))
        self._points[new] = v
        self._dist[new, start:new] = d
        self._dist[start:new, new] = d
        self._size = n + 1
