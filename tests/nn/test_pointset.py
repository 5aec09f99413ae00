"""Tests for farthest-point sampling, ball query, and gathering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import ball_query, farthest_point_sampling, gather_points, group_points
from repro.nn.pointset import _ball_indices


class TestFarthestPointSampling:
    def test_selects_extremes(self):
        points = np.array([[[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0], [5.1, 0, 0]]])
        idx = farthest_point_sampling(points, 2)
        chosen = points[0, idx[0]]
        # One point from each end of the line.
        assert abs(chosen[0, 0] - chosen[1, 0]) > 4.0

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(2, 30, 3))
        a = farthest_point_sampling(points, 8)
        b = farthest_point_sampling(points, 8)
        np.testing.assert_array_equal(a, b)

    def test_unique_when_enough_points(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(1, 50, 3))
        idx = farthest_point_sampling(points, 10)[0]
        assert len(set(idx.tolist())) == 10

    def test_wraps_when_too_few_points(self):
        points = np.zeros((1, 3, 3))
        idx = farthest_point_sampling(points, 7)
        assert idx.shape == (1, 7)
        assert (idx < 3).all()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            farthest_point_sampling(np.zeros((1, 0, 3)), 2)

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            farthest_point_sampling(np.zeros((1, 5, 3)), 0)

    @settings(max_examples=20)
    @given(st.integers(4, 40), st.integers(1, 10))
    def test_indices_in_range(self, n, k):
        rng = np.random.default_rng(n)
        points = rng.normal(size=(2, n, 3))
        idx = farthest_point_sampling(points, k)
        assert idx.shape == (2, k)
        assert (idx >= 0).all() and (idx < n).all()


class TestBallQuery:
    def test_finds_neighbors_within_radius(self):
        points = np.array([[[0.0, 0, 0], [0.1, 0, 0], [9.0, 0, 0]]])
        centers = np.array([[[0.0, 0, 0]]])
        idx = ball_query(points, centers, radius=0.5, max_neighbors=2)
        assert set(idx[0, 0].tolist()) == {0, 1}

    def test_pads_with_closest(self):
        points = np.array([[[0.0, 0, 0], [9.0, 0, 0]]])
        centers = np.array([[[0.0, 0, 0]]])
        idx = ball_query(points, centers, radius=0.5, max_neighbors=4)
        np.testing.assert_array_equal(idx[0, 0], [0, 0, 0, 0])

    def test_empty_ball_falls_back_to_nearest(self):
        points = np.array([[[5.0, 0, 0], [9.0, 0, 0]]])
        centers = np.array([[[0.0, 0, 0]]])
        idx = ball_query(points, centers, radius=0.1, max_neighbors=2)
        assert (idx[0, 0] == 0).all()

    def test_huge_radius_is_knn(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(1, 20, 3))
        centers = points[:, :1]
        idx = ball_query(points, centers, radius=1e9, max_neighbors=5)[0, 0]
        dists = np.linalg.norm(points[0] - points[0, 0], axis=1)
        expected = set(np.argsort(dists)[:5].tolist())
        assert set(idx.tolist()) == expected

    def test_invalid_radius_raises(self):
        with pytest.raises(ValueError):
            ball_query(np.zeros((1, 2, 3)), np.zeros((1, 1, 3)), radius=0.0, max_neighbors=1)

    def test_neighbors_sorted_by_distance(self):
        points = np.array([[[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]])
        centers = np.array([[[0.0, 0, 0]]])
        idx = ball_query(points, centers, radius=10.0, max_neighbors=3)
        np.testing.assert_array_equal(idx[0, 0], [1, 2, 0])


class TestMultiScaleBallQuery:
    """One shared distance block must pick exactly the per-scale indices."""

    SCALES = ((0.3, 4), (0.8, 6), (2.0, 16))

    def _assert_matches_per_scale(self, points, centers):
        radii, counts = zip(*self.SCALES)
        shared = ball_query(points, centers, radii, counts)
        assert isinstance(shared, tuple) and len(shared) == len(self.SCALES)
        for idx, (radius, count) in zip(shared, self.SCALES):
            np.testing.assert_array_equal(idx, ball_query(points, centers, radius, count))

    def test_duplicated_points_tie_exactly(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-1.0, 1.0, size=(2, 6, 3))
        # Every point three times: many exact distance ties per center.
        points = np.concatenate([base, base, base], axis=1)
        centers = np.concatenate([base[:, :2], base[:, :2] + 0.1], axis=1)
        self._assert_matches_per_scale(points, centers)

    def test_fewer_points_than_neighbors(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-1.0, 1.0, size=(3, 5, 3))  # 5 < 6 and 16
        self._assert_matches_per_scale(points, points[:, :3])

    def test_setabstraction_grouping_matches_per_scale(self):
        from repro.nn.setabstraction import MultiScaleSetAbstraction, ScaleSpec

        rng = np.random.default_rng(5)
        block = MultiScaleSetAbstraction(
            4, 0, [ScaleSpec(r, m, (4,)) for r, m in self.SCALES], rng=rng
        )
        coords = np.repeat(rng.uniform(-1.0, 1.0, size=(2, 5, 3)), 2, axis=1)
        grouping = block.group(coords)
        for idx, (radius, count) in zip(grouping.group_idx, self.SCALES):
            expected = ball_query(coords, grouping.centers, radius, count)
            np.testing.assert_array_equal(idx, expected)

    def test_mismatched_scales_raise(self):
        with pytest.raises(ValueError):
            ball_query(np.zeros((1, 2, 3)), np.zeros((1, 1, 3)), (0.5, 1.0), (2,))


def _reference_ball_indices(dist_sq, radius, max_neighbors):
    """The sort-then-threshold formulation: ``within`` from the sorted distances."""
    batch, num_centers, num_points = dist_sq.shape
    k = min(max_neighbors, num_points)
    if k < num_points:
        nearest = np.argpartition(dist_sq, kth=k - 1, axis=2)[:, :, :k]
    else:
        nearest = np.broadcast_to(np.arange(num_points), dist_sq.shape).copy()
    sub = np.take_along_axis(dist_sq, nearest, axis=2)
    order = np.argsort(sub, axis=2, kind="stable")
    nearest = np.take_along_axis(nearest, order, axis=2)
    sub = np.take_along_axis(sub, order, axis=2)
    within = sub <= radius * radius
    within[:, :, 0] = True
    selected = np.where(within, nearest, nearest[:, :, :1])
    if k < max_neighbors:
        pad = np.broadcast_to(selected[:, :, :1], (batch, num_centers, max_neighbors - k))
        selected = np.concatenate([selected, pad], axis=2)
    return selected


class TestBallIndicesReference:
    """The prefix ``within`` picks exactly what thresholding sorted distances did."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "radius,max_neighbors", [(0.05, 4), (0.4, 4), (0.8, 8), (1.5, 12), (9.0, 30)]
    )
    def test_random_blocks(self, seed, radius, max_neighbors):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1.0, 1.0, size=(3, 20, 3))
        # Repeated points tie exactly; radius 0.05 leaves most balls empty;
        # 30 neighbours exceed the 20 points (k < max_neighbors).
        points[:, 10:] = points[:, :10]
        centers = np.concatenate([points[:, :4], rng.uniform(-2.0, 2.0, size=(3, 4, 3))], axis=1)
        diff = centers[:, :, None, :] - points[:, None, :, :]
        dist_sq = np.einsum("bcnd,bcnd->bcn", diff, diff)
        np.testing.assert_array_equal(
            _ball_indices(dist_sq, radius, max_neighbors),
            _reference_ball_indices(dist_sq, radius, max_neighbors),
        )

    def test_exact_ties_on_the_radius(self):
        dist_sq = np.array([[[0.25, 0.25, 1.0, 0.25, 0.0, 4.0]]])
        for count in (2, 3, 6, 9):
            np.testing.assert_array_equal(
                _ball_indices(dist_sq, 0.5, count), _reference_ball_indices(dist_sq, 0.5, count)
            )


class TestGathering:
    def test_gather_points(self):
        points = np.arange(12.0).reshape(1, 4, 3)
        out = gather_points(points, np.array([[2, 0]]))
        np.testing.assert_array_equal(out[0, 0], points[0, 2])
        np.testing.assert_array_equal(out[0, 1], points[0, 0])

    def test_group_points_shape(self):
        points = np.random.default_rng(0).normal(size=(2, 10, 3))
        groups = np.zeros((2, 4, 5), dtype=np.int64)
        out = group_points(points, groups)
        assert out.shape == (2, 4, 5, 3)
