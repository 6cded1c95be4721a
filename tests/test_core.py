"""Tests for the shared primitives: feature vectors, pools, and sliding windows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from streamacq import core
from streamacq.core import (
    LabeledPool,
    SlidingWindow,
    as_feature_vector,
    euclidean,
)


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda dim: st.tuples(*(
        hnp.arrays(float, dim, elements=st.floats(-1e3, 1e3, allow_nan=False))
        for _ in range(2)))))
    def test_equals_the_windows_stored_distance_bit_for_bit(self, pair):
        """A pushed pair's distance, as the window stores it, is the one
        ``euclidean`` gives for the pair either way round."""
        a, b = pair
        win = SlidingWindow(2)
        win.push(a)
        win.push(b)
        stored = win.farthest()[0][0]
        assert euclidean(a, b) == stored and euclidean(b, a) == stored

    def test_gram_block_has_an_exact_zero_diagonal(self):
        """On 15-d normals the Gram formula rounds a quarter of the points'
        distances to themselves up to about 1e-7; the block sets them to 0,
        and a batch of blocks has the bits of one block at a time."""
        pts = np.random.default_rng(0).normal(size=(5, 20, 15))
        dist = core.gram_distances(pts)
        assert dist.shape == (5, 20, 20)
        assert not np.diagonal(dist, axis1=1, axis2=2).any()
        for block, points in zip(dist, pts):
            assert np.array_equal(block, core.gram_distances(points))


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


def row_distances(points, v):
    """The window's push formula: one distance row from ``v``."""
    diff = points - v
    return np.sqrt((diff * diff).sum(axis=1))


def gram_distances(points):
    """The bulk formula of ``SlidingWindow.from_points``."""
    sq = (points * points).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    return np.sqrt(np.clip(d2, 0.0, None))


class ReferenceWindow:
    """Brute-force window: the members in age order with their full pairwise
    matrix, rescanned for every query.  Bulk members get the Gram distances,
    pushed ones the push formula, as in the window."""

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

    def queries(self, k=None):
        """Over the ``k`` rows before the last (all if None): their distances
        to the last row, and each one's farthest and nearest other row among
        them, 0 and infinity for a lone row."""
        m = len(self.points)
        lo = 0 if k is None else max(m - 1 - k, 0)
        block = self.dist[lo:m - 1, lo:m - 1]
        others = ~np.eye(len(block), dtype=bool)
        far = np.where(others, block, -np.inf).max(axis=1, initial=0.0)
        near = np.where(others, block, np.inf).min(axis=1, initial=np.inf)
        return self.dist[m - 1, lo:m - 1], far, near


def assert_matches_reference(win, ref, ks=(None,)):
    """``farthest(k)`` and ``nearest(k)`` equal the reference's rescan bit
    for bit, for every k in ``ks``."""
    assert len(win) == len(ref.points)
    for k in ks:
        to_new, far, near = ref.queries(k)
        (far_to_new, got_far), (near_to_new, got_near) = win.farthest(k), win.nearest(k)
        assert np.array_equal(far_to_new, to_new) and np.array_equal(near_to_new, to_new), k
        assert np.array_equal(got_far, far), k
        assert np.array_equal(got_near, near), k


class TestSlidingWindow:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_lone_member_has_no_co_member(self):
        """A lone member before the newest is farthest 0 and nearest
        infinitely far from its (absent) co-members."""
        win = SlidingWindow(3)
        win.push([1.0, 1.0])
        assert len(win) == 1
        for query in (win.farthest, win.nearest):
            to_new, extreme = query()
            assert to_new.shape == (0,) and extreme.shape == (0,)
        win.push([2.0, 1.0])
        assert [a.tolist() for a in win.farthest()] == [[1.0], [0.0]]
        assert [a.tolist() for a in win.nearest()] == [[1.0], [math.inf]]

    def test_two_members(self):
        win = SlidingWindow(5)
        win.push([0.0, 0.0])
        win.push([3.0, 4.0])
        win.push([0.0, 4.0])
        assert [a.tolist() for a in win.farthest()] == [[4.0, 3.0], [5.0, 5.0]]
        assert [a.tolist() for a in win.nearest()] == [[4.0, 3.0], [5.0, 5.0]]

    def test_eviction_is_fifo(self):
        win = SlidingWindow(2)
        win.push([0.0])
        win.push([1.0])
        win.push([2.0])
        # [0] left; [1] is the one member before the newest [2]
        np.testing.assert_array_equal(win.farthest()[0], [1.0])

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
        """Both queries must equal a fresh rescan after every push."""
        rng = np.random.default_rng(42)
        for trial in range(30):
            dim = int(rng.integers(1, 6))
            capacity = int(rng.integers(1, 21))
            win, ref = SlidingWindow(capacity), ReferenceWindow(capacity, dim)
            for _ in range(int(rng.integers(1, 50))):
                v = rng.normal(size=dim)
                win.push(v)
                ref.push(v)
                assert_matches_reference(win, ref, (None, 1, capacity // 2))

    def test_arrays_grow_up_to_the_capacity(self):
        """Pushes past the initial rows double the arrays, and evictions
        start once the capacity is reached, with every query exact."""
        rng = np.random.default_rng(7)
        capacity = 3 * SlidingWindow.INITIAL_ROWS + 5
        win, ref = SlidingWindow(capacity), ReferenceWindow(capacity, 2)
        for m, v in enumerate(rng.normal(size=(capacity + 10, 2)), start=1):
            win.push(v)
            ref.push(v)
            assert len(win) == min(m, capacity)
            assert_matches_reference(win, ref)

    def test_long_capacity_costs_only_its_members(self):
        """A capacity no stream fills allocates room for the members pushed,
        not a capacity-square matrix."""
        win = SlidingWindow(100_000_000)
        for v in ([0.0, 0.0], [3.0, 4.0], [0.0, 4.0]):
            win.push(v)
        np.testing.assert_array_equal(win.farthest()[0], [4.0, 3.0])

    def test_duplicate_points_supported(self):
        win = SlidingWindow(4)
        for _ in range(3):
            win.push([1.0, 2.0])
        for query in (win.farthest, win.nearest):
            assert [a.tolist() for a in query()] == [[0.0, 0.0], [0.0, 0.0]]

    def test_from_points_matches_incremental(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 3))
        bulk = SlidingWindow.from_points(pts)
        inc = SlidingWindow(12)
        for p in pts:
            inc.push(p)
        assert len(bulk) == len(inc) == 12
        for k in (None, 1, 5):
            for query in ("farthest", "nearest"):
                for got, want in zip(getattr(bulk, query)(k), getattr(inc, query)(k)):
                    np.testing.assert_allclose(got, want)

    def test_from_points_with_a_huge_capacity_holds_only_its_points(self):
        """Three points under a capacity of a million build a window the size
        three pushes reach, which answers both queries as they do."""
        pts = [[0.0, 0.0], [3.0, 4.0], [0.0, 4.0]]
        bulk = SlidingWindow.from_points(pts, capacity=10**6)
        inc = SlidingWindow(10**6)
        for p in pts:
            inc.push(p)
        assert bulk._ext.shape == inc._ext.shape == (SlidingWindow.INITIAL_ROWS,) * 2
        for k in (None, 1):
            for query in ("farthest", "nearest"):
                for got, want in zip(getattr(bulk, query)(k), getattr(inc, query)(k)):
                    assert np.array_equal(got, want)
        bulk.push([3.0, 0.0])
        assert bulk.farthest()[0].tolist() == [3.0, 4.0, 5.0]

    @pytest.mark.parametrize("capacity", [1, 5, 32, 33, 100, 10**6])
    def test_from_points_takes_the_size_its_pushes_reach(self, capacity):
        """Bulk-built or pushed, the same points under the same capacity take
        arrays of one size: the sizing rule's smallest that holds them."""
        rng = np.random.default_rng(capacity)
        for m in {1, min(capacity, 40), min(capacity, 200)}:
            pts = rng.normal(size=(m, 2))
            inc = SlidingWindow(capacity)
            for p in pts:
                inc.push(p)
            bulk = SlidingWindow.from_points(pts, capacity=capacity)
            assert bulk._ext.shape == inc._ext.shape, m
            assert len(bulk._points) >= m

    def test_from_points_capacity_check(self):
        with pytest.raises(ValueError):
            SlidingWindow.from_points(np.zeros((3, 2)), capacity=2)

    def test_from_points_empty_and_singleton(self):
        empty = SlidingWindow.from_points(np.zeros((0, 2)), capacity=4)
        assert len(empty) == 0
        for query in (empty.farthest, empty.nearest):
            with pytest.raises(ValueError, match="window is empty"):
                query()
        single = SlidingWindow.from_points([[1.0, 2.0]])
        assert single.farthest()[0].size == 0 and single.nearest()[1].size == 0

    def test_queries_in_age_order(self):
        win = SlidingWindow(4)
        for p in ([0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [0.0, 1.0], [0.0, 0.0]):
            win.push(p)
        np.testing.assert_array_equal(win.farthest()[0], [5.0, 10.0, 1.0])
        np.testing.assert_array_equal(win.nearest(2)[0], [10.0, 1.0])
        np.testing.assert_array_equal(win.farthest(9)[0], [5.0, 10.0, 1.0])
        # [3, 4] and [6, 8] are 5 apart; [0, 1] lies 4.24 and 9.22 from them
        np.testing.assert_allclose(win.farthest()[1], [5.0, math.hypot(6.0, 7.0),
                                                       math.hypot(6.0, 7.0)])
        np.testing.assert_allclose(win.nearest()[1], [math.hypot(3.0, 3.0), 5.0,
                                                      math.hypot(3.0, 3.0)])
        with pytest.raises(ValueError, match="window is empty"):
            SlidingWindow(2).farthest()


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


class TestRingProperties:
    @settings(max_examples=150, deadline=None)
    @given(ring_cases())
    def test_extremes_equal_brute_force_after_every_push(self, case):
        """A bulk-built window and the pushes after it answer both queries,
        over all members and over the ``k`` before the newest, as a rescan of
        the reference's last k+1 rows, bit for bit."""
        capacity, points, n_bulk, k = case
        ref = ReferenceWindow(capacity, points[0].size, points[:n_bulk])
        if n_bulk:
            win = SlidingWindow.from_points(points[:n_bulk], capacity=capacity)
            assert_matches_reference(win, ref, (None, k))
        else:
            win = SlidingWindow(capacity)
        for v in points[n_bulk:]:
            win.push(v)
            ref.push(v)
            assert_matches_reference(win, ref, (None, k))

    def test_evicting_every_members_farthest_point(self):
        """Halving gaps make the oldest point every member's farthest, so each
        eviction changes every member's farthest distance."""
        capacity = 5
        points = [np.array([-(0.5 ** k)]) for k in range(16)]
        win = SlidingWindow(capacity)
        ref = ReferenceWindow(capacity, 1)
        for k, v in enumerate(points):
            win.push(v)
            ref.push(v)
            assert_matches_reference(win, ref)
            if k >= capacity:
                oldest = points[k - capacity + 1][0]
                far = win.farthest()[1]
                np.testing.assert_array_equal(
                    far[1:], [abs(p[0] - oldest) for p in points[k - capacity + 2:k]])


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


class TestExtremesMatchBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(window_runs())
    def test_every_query_keeps_its_bits_after_every_push(self, run):
        """After every push, ``farthest(k)`` and ``nearest(k)`` for every k
        equal a rescan of the pushed points, bit for bit, through the growth,
        the first eviction and every compaction."""
        capacity, points = run
        win, ref = SlidingWindow(capacity), ReferenceWindow(capacity, points.shape[1])
        ks = [None, *range(1, capacity)]
        for v in points:
            win.push(v)
            ref.push(v)
            assert_matches_reference(win, ref, ks)

    def test_arrays_stop_at_the_capacity_plus_the_spare_rows(self):
        """The first eviction adds INITIAL_ROWS spare rows, and no more."""
        capacity = 3 * SlidingWindow.INITIAL_ROWS + 5
        win = SlidingWindow(capacity)
        for v in np.random.default_rng(3).normal(size=(5 * capacity, 2)):
            win.push(v)
        assert win._ext.shape == (capacity + SlidingWindow.INITIAL_ROWS,) * 2
