"""Tests for the shared primitives: feature vectors, pools, and sliding windows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from streamacq.core import (
    LabeledPool,
    SlidingWindow,
    as_feature_vector,
    euclidean,
)


def brute_force_candidate(points):
    """Reference ``candidate()``: the last point's distances to the points
    before it, and their pairwise distances with NaN on the diagonal."""
    m = len(points)
    dist = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(m):
            if i != j:
                dist[i, j] = np.linalg.norm(points[i] - points[j])
    return dist[m - 1, :m - 1], dist[:m - 1, :m - 1]


def assert_candidate_close(win, row, block):
    got_row, got_block = win.candidate()
    np.testing.assert_allclose(got_row, row)
    np.testing.assert_allclose(got_block, block)  # NaN matches NaN


class TestFeatureVector:
    def test_accepts_lists_and_arrays(self):
        v = as_feature_vector([1, 2, 3])
        assert v.dtype == float
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            as_feature_vector(np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_feature_vector([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_feature_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            as_feature_vector([np.inf, 0.0])


class TestDistances:
    def test_hand_values(self):
        assert euclidean([0, 0], [3, 4]) == 5.0
        assert euclidean([1.5], [1.5]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            euclidean([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="non-finite"):
            euclidean([1.0, np.nan], [1.0, 2.0])

    def test_matches_numpy_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            assert euclidean(x, y) == pytest.approx(np.linalg.norm(x - y))


class TestLabeledPool:
    def test_append_and_arrays(self):
        pool = LabeledPool()
        pool.append([0.0, 1.0], 0)
        pool.append([2.0, 3.0], 1)
        assert len(pool) == 2
        np.testing.assert_array_equal(pool.features, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(pool.labels, [0, 1])
        assert pool.class_counts() == (1, 1)

    def test_rejects_unlabelled(self):
        with pytest.raises(ValueError, match="label must be 0 or 1, got None"):
            LabeledPool().append([1.0], None)

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
            LabeledPool().append([0.0], 2)

    def test_rejects_bad_features(self):
        pool = LabeledPool()
        with pytest.raises(ValueError, match="non-finite"):
            pool.append([np.nan], 0)
        assert len(pool) == 0

    def test_rejects_dimension_mismatch(self):
        pool = LabeledPool()
        pool.append([1.0, 2.0], 0)
        with pytest.raises(ValueError, match="sample dimension 1 does not match pool dimension 2"):
            pool.append([1.0], 1)

    def test_arrays_match_the_appended_rows_across_growth(self):
        rng = np.random.default_rng(4)
        n = 3 * LabeledPool.INITIAL_CAPACITY + 1
        rows = rng.normal(size=(n, 3))
        labels = rng.integers(0, 2, size=n)
        pool = LabeledPool()
        for k in range(n):
            pool.append(rows[k], int(labels[k]))
            if k in (0, LabeledPool.INITIAL_CAPACITY - 1, LabeledPool.INITIAL_CAPACITY, n - 1):
                np.testing.assert_array_equal(pool.features, np.array(list(rows[:k + 1])))
                np.testing.assert_array_equal(pool.labels, np.array(list(labels[:k + 1])))
                assert pool.features.dtype == float and pool.labels.dtype == int
        assert len(pool) == n
        assert pool.class_counts() == (int((labels == 0).sum()), int(labels.sum()))

    def test_returned_arrays_do_not_change_after_later_appends(self):
        pool = LabeledPool()
        pool.append([0.0, 0.0], 0)
        features, labels = pool.features, pool.labels
        for k in range(2 * LabeledPool.INITIAL_CAPACITY):
            pool.append([k + 1.0, -1.0], 1)
        np.testing.assert_array_equal(features, [[0.0, 0.0]])
        np.testing.assert_array_equal(labels, [0])

    def test_writing_into_returned_arrays_leaves_the_pool_alone(self):
        pool = LabeledPool()
        pool.append([0.0, 0.0], 0)
        pool.features[0] = 9.0
        pool.labels[0] = 1
        np.testing.assert_array_equal(pool.features, [[0.0, 0.0]])
        np.testing.assert_array_equal(pool.labels, [0])

    def test_empty_pool_arrays(self):
        pool = LabeledPool()
        assert pool.features.shape == (0,)
        assert pool.labels.shape == (0,)
        assert pool.class_counts() == (0, 0)


class TestSlidingWindow:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_singleton_has_nan_extremes(self):
        """A lone member before the newest has only its NaN diagonal."""
        win = SlidingWindow(3)
        win.push([1.0, 1.0])
        assert len(win) == 1
        row, block = win.candidate()
        assert row.shape == (0,) and block.shape == (0, 0)
        win.push([2.0, 1.0])
        row, block = win.candidate()
        np.testing.assert_array_equal(row, [1.0])
        assert block.shape == (1, 1) and math.isnan(block[0, 0])

    def test_two_members(self):
        win = SlidingWindow(5)
        win.push([0.0, 0.0])
        win.push([3.0, 4.0])
        win.push([0.0, 4.0])
        row, block = win.candidate()
        np.testing.assert_array_equal(row, [4.0, 3.0])
        np.testing.assert_array_equal(block, [[np.nan, 5.0], [5.0, np.nan]])

    def test_eviction_is_fifo(self):
        win = SlidingWindow(2)
        win.push([0.0])
        win.push([1.0])
        win.push([2.0])
        np.testing.assert_array_equal(win.points_matrix(), [[1.0], [2.0]])

    def test_dimension_mismatch_rejected(self):
        win = SlidingWindow(3)
        win.push([0.0, 0.0])
        with pytest.raises(ValueError,
                           match="dimension mismatch: window holds 2-d points, got 1"):
            win.push([0.0])
        with pytest.raises(ValueError, match="non-finite"):
            win.push([0.0, np.inf])
        assert len(win) == 1

    def test_caches_track_brute_force_over_random_pushes(self):
        """The candidate row and block must equal a fresh recomputation after
        every push."""
        rng = np.random.default_rng(42)
        for trial in range(30):
            dim = int(rng.integers(1, 6))
            capacity = int(rng.integers(1, 21))
            win = SlidingWindow(capacity)
            for _ in range(int(rng.integers(1, 50))):
                win.push(rng.normal(size=dim))
                row, block = brute_force_candidate(win.points_matrix())
                got_row, got_block = win.candidate()
                np.testing.assert_allclose(got_row, row, err_msg=f"trial {trial}")
                np.testing.assert_allclose(got_block, block, err_msg=f"trial {trial}")

    def test_arrays_grow_up_to_the_capacity(self):
        """Pushes past the initial rows double the arrays, and evictions
        start once the capacity is reached, with every candidate exact."""
        rng = np.random.default_rng(7)
        capacity = 3 * SlidingWindow.INITIAL_ROWS + 5
        win = SlidingWindow(capacity)
        pushed = rng.normal(size=(capacity + 10, 2))
        for m, v in enumerate(pushed, start=1):
            win.push(v)
            np.testing.assert_array_equal(win.points_matrix(), pushed[max(0, m - capacity):m])
            assert_candidate_close(win, *brute_force_candidate(win.points_matrix()))

    def test_long_capacity_costs_only_its_members(self):
        """A capacity no stream fills allocates room for the members pushed,
        not a capacity-square matrix."""
        win = SlidingWindow(100_000_000)
        for v in ([0.0, 0.0], [3.0, 4.0], [0.0, 4.0]):
            win.push(v)
        np.testing.assert_array_equal(win.candidate()[0], [4.0, 3.0])

    def test_duplicate_points_supported(self):
        win = SlidingWindow(4)
        for _ in range(3):
            win.push([1.0, 2.0])
        assert_candidate_close(win, np.zeros(2), [[np.nan, 0.0], [0.0, np.nan]])

    def test_from_points_matches_incremental(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 3))
        bulk = SlidingWindow.from_points(pts)
        inc = SlidingWindow(12)
        for p in pts:
            inc.push(p)
        np.testing.assert_allclose(bulk.points_matrix(), inc.points_matrix())
        assert_candidate_close(bulk, *inc.candidate())

    def test_from_points_capacity_check(self):
        with pytest.raises(ValueError):
            SlidingWindow.from_points(np.zeros((3, 2)), capacity=2)

    def test_from_points_empty_and_singleton(self):
        empty = SlidingWindow.from_points(np.zeros((0, 2)), capacity=4)
        assert len(empty) == 0
        with pytest.raises(ValueError, match="window is empty"):
            empty.candidate()
        single = SlidingWindow.from_points([[1.0, 2.0]])
        assert single.candidate()[0].size == 0

    def test_candidate_in_age_order(self):
        win = SlidingWindow(4)
        for p in ([0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [0.0, 1.0], [0.0, 0.0]):
            win.push(p)
        np.testing.assert_array_equal(win.candidate()[0], [5.0, 10.0, 1.0])
        np.testing.assert_array_equal(win.candidate(2)[0], [10.0, 1.0])
        np.testing.assert_array_equal(win.candidate(9)[0], [5.0, 10.0, 1.0])
        with pytest.raises(ValueError, match="window is empty"):
            SlidingWindow(2).candidate()


def row_distances(points, v):
    """The window's push formula: one distance row from ``v``."""
    diff = points - v
    return np.sqrt((diff * diff).sum(axis=1))


def gram_distances(points):
    """The bulk formula of ``SlidingWindow.from_points``."""
    sq = (points * points).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    return np.sqrt(np.clip(d2, 0.0, None))


class RingReference:
    """Brute-force window: the full pairwise matrix in age order, rescanned."""

    def __init__(self, capacity, dim, points=()):
        self.capacity = capacity
        self.points = np.array(points, dtype=float).reshape(len(points), dim)
        self.dist = gram_distances(self.points)

    def push(self, v):
        if len(self.points) == self.capacity:
            self.points = self.points[1:]
            self.dist = self.dist[1:, 1:]
        row = row_distances(self.points, v)
        m = len(self.points)
        dist = np.empty((m + 1, m + 1))
        dist[:m, :m] = self.dist
        dist[m, :m] = dist[:m, m] = row
        dist[m, m] = 0.0
        self.points = np.vstack([self.points, v])
        self.dist = dist

    def candidate(self, k=None):
        """The last row's distances to the ``k`` rows before it (all if None),
        and the block among those rows with NaN on the diagonal, rescanned."""
        m = len(self.points)
        lo = 0 if k is None else max(m - 1 - k, 0)
        before = range(lo, m - 1)
        row = np.array([self.dist[m - 1, j] for j in before])
        block = np.array([[math.nan if i == j else self.dist[i, j] for j in before]
                          for i in before]).reshape(len(before), len(before))
        return row, block

    def extremes(self, k=None):
        """Per-member farthest and nearest co-member among the ``k`` rows
        before the last (all if None), NaN for a lone member."""
        _, block = self.candidate(k)
        n = len(block)
        if n < 2:
            return np.full(n, np.nan), np.full(n, np.nan)
        off = ~np.eye(n, dtype=bool)
        far = np.array([block[j][off[j]].max() for j in range(n)])
        near = np.array([block[j][off[j]].min() for j in range(n)])
        return far, near


@st.composite
def ring_cases(draw):
    capacity = draw(st.integers(1, 20))
    dim = draw(st.integers(1, 16))
    coords = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-100.0, 100.0, allow_nan=False))
    distinct = draw(st.lists(hnp.arrays(float, dim, elements=coords),
                             min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    n_bulk = draw(st.integers(0, min(capacity, len(picks))))
    k = draw(st.integers(1, max(capacity - 1, 1)))
    return capacity, [distinct[i] for i in picks], n_bulk, k


def assert_matches_reference(win, ref, k=None):
    """Points, and the candidate row and block over all members and over the
    ``k`` before the newest, equal the reference bit for bit; so do the
    extremes reduced off the block the way the window agents reduce them."""
    np.testing.assert_array_equal(win.points_matrix(), ref.points)
    for kk in (None, k):
        row, block = win.candidate(kk)
        ref_row, ref_block = ref.candidate(kk)
        assert np.array_equal(row, ref_row)
        assert np.array_equal(block, ref_block, equal_nan=True)
        far, near = ref.extremes(kk)
        assert np.array_equal(np.fmax.reduce(block, axis=0, initial=math.nan), far,
                              equal_nan=True)
        assert np.array_equal(np.fmin.reduce(block, axis=0, initial=math.nan), near,
                              equal_nan=True)


class TestRingProperties:
    @settings(max_examples=150, deadline=None)
    @given(ring_cases())
    def test_extremes_equal_brute_force_after_every_push(self, case):
        """The candidate row and block, and the extremes reduced off it, over
        all members and over the ``k`` before the newest, equal a rescan of
        the reference's last k+1 rows, bit for bit."""
        capacity, points, n_bulk, k = case
        ref = RingReference(capacity, points[0].size, points[:n_bulk])
        if n_bulk:
            win = SlidingWindow.from_points(points[:n_bulk], capacity=capacity)
            assert_matches_reference(win, ref, k)
        else:
            win = SlidingWindow(capacity)
        for v in points[n_bulk:]:
            win.push(v)
            ref.push(v)
            assert_matches_reference(win, ref, k)

    def test_evicting_every_members_farthest_point(self):
        """Halving gaps make the oldest point every member's farthest, so each
        eviction changes every member's farthest distance."""
        capacity = 5
        points = [np.array([-(0.5 ** k)]) for k in range(16)]
        win = SlidingWindow(capacity)
        ref = RingReference(capacity, 1)
        for k, v in enumerate(points):
            win.push(v)
            ref.push(v)
            assert_matches_reference(win, ref)
            if k >= capacity:
                _, block = win.candidate()
                np.testing.assert_array_equal(
                    np.fmax.reduce(block, axis=0, initial=math.nan)[1:], block[0, 1:])


class ShiftingWindow:
    """The window as it was before evictions stopped moving the matrix: the
    members from row 0, arrays doubling up to the capacity, and every
    eviction shifting the points and the flat distance buffer down by one."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.size = 0
        self.points = None
        self.dist = None

    def allocate(self, dim, rows):
        n, points, dist = self.size, self.points, self.dist
        self.points = np.zeros((rows, dim))
        self.dist = np.full((rows, rows), math.nan)
        if n:
            self.points[:n] = points[:n]
            self.dist[:n, :n] = dist[:n, :n]

    def push(self, v):
        if self.points is None:
            self.allocate(v.size, min(SlidingWindow.INITIAL_ROWS, self.capacity))
        points, dist = self.points, self.dist
        n = self.size
        if n == len(points):
            if n < self.capacity:
                self.allocate(v.size, min(2 * n, self.capacity))
                points, dist = self.points, self.dist
            else:
                n -= 1
                points[:n] = points[1:]
                flat = dist.reshape(-1)
                flat[:flat.size - self.capacity - 1] = flat[self.capacity + 1:]
                self.size = n
        diff = points[:n] - v
        d = np.sqrt((diff * diff).sum(axis=1))
        points[n] = v
        dist[n, :n] = d
        dist[:n, n] = d
        self.size = n + 1

    def candidate(self, k=None):
        n = self.size
        lo = 0 if k is None else max(n - 1 - k, 0)
        return self.dist[n - 1, lo:n - 1], self.dist[lo:n - 1, lo:n - 1]


@st.composite
def window_runs(draw):
    capacity = draw(st.integers(1, 80))
    dim = draw(st.integers(1, 4))
    # past the growth and through several compactions of the spare rows
    n_pushes = draw(st.integers(1, capacity + 4 * SlidingWindow.INITIAL_ROWS + 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_pushes, dim))
    if draw(st.booleans()):  # coarse grid: duplicate points and tied distances
        points = np.round(points)
    return capacity, points


class TestSpareRowsMatchTheShiftingWindow:
    @settings(max_examples=60, deadline=None)
    @given(window_runs())
    def test_every_view_keeps_its_bits_after_every_push(self, run):
        """After every push, ``points_matrix()`` and ``candidate(k)`` for every
        k equal the shifting window's, bit for bit, NaN diagonal included."""
        capacity, points = run
        win, ref = SlidingWindow(capacity), ShiftingWindow(capacity)
        for v in points:
            win.push(v)
            ref.push(v)
            assert np.array_equal(win.points_matrix(), ref.points[:ref.size])
            for k in [None, *range(capacity + 1)]:
                row, block = win.candidate(k)
                ref_row, ref_block = ref.candidate(k)
                assert np.array_equal(row, ref_row)
                assert np.array_equal(block, ref_block, equal_nan=True)

    def test_arrays_stop_at_the_capacity_plus_the_spare_rows(self):
        """The first eviction adds INITIAL_ROWS spare rows, and no more."""
        capacity = 3 * SlidingWindow.INITIAL_ROWS + 5
        win = SlidingWindow(capacity)
        for v in np.random.default_rng(3).normal(size=(5 * capacity, 2)):
            win.push(v)
        assert win._dist.shape == (capacity + SlidingWindow.INITIAL_ROWS,) * 2
