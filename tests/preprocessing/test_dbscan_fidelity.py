"""Fidelity gate: the adjacency-matrix DBSCAN labels like the per-point loop.

``dbscan_reference.reference_dbscan`` is the queue-based implementation
the module replaced.  Every test here requires *identical* label arrays,
cluster numbering included, not just the same main cluster.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing.dbscan import _ROW_CAP, NOISE, dbscan
from tests.preprocessing.dbscan_reference import reference_dbscan


def _assert_same_labels(points, eps, min_points):
    expected = reference_dbscan(points, eps, min_points)
    actual = dbscan(points, eps, min_points)
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)
    return actual


def _blobs_and_outliers(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3, 3, size=(rng.integers(1, 5), 3))
    blobs = centers[rng.integers(0, len(centers), n // 2)] + rng.normal(
        scale=0.3, size=(n // 2, 3)
    )
    outliers = rng.uniform(-4, 4, size=(n - n // 2, 3))
    return rng.permutation(np.vstack([blobs, outliers]))


class TestIdenticalLabels:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(0, 120),
        eps=st.sampled_from([0.3, 0.5, 1.0, 1.7]),
        min_points=st.integers(1, 8),
    )
    def test_random_clouds(self, seed, n, eps, min_points):
        _assert_same_labels(_blobs_and_outliers(seed, n), eps, min_points)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 80),
        extent=st.integers(1, 5),
        min_points=st.integers(1, 7),
    )
    def test_integer_grid_points_exactly_at_eps(self, seed, n, extent, min_points):
        # Grid neighbours sit at distance exactly 1 == eps: the boundary
        # test must keep them, as the loop's ``<= eps**2`` did.
        rng = np.random.default_rng(seed)
        points = rng.integers(0, extent + 1, size=(n, 3)).astype(np.float64)
        _assert_same_labels(points, 1.0, min_points)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        distinct=st.integers(1, 12),
        n=st.integers(1, 80),
        min_points=st.integers(1, 8),
    )
    def test_duplicate_points(self, seed, distinct, n, min_points):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-2, 2, size=(distinct, 3))
        points = base[rng.integers(0, distinct, size=n)]
        _assert_same_labels(points, 0.8, min_points)

    @settings(max_examples=40, deadline=None)
    @given(order=st.permutations(range(9)))
    def test_border_point_equidistant_from_two_clusters(self, order):
        # Two chains of core points on the x axis; the origin is exactly
        # eps from the inner end of each chain but has only 3 neighbours,
        # so it is a border point both clusters reach.  It must join the
        # lower-numbered cluster whatever the scan order.
        xs = np.array([0.0, -1.0, -1.5, -2.0, -2.5, 1.0, 1.5, 2.0, 2.5])
        points = np.zeros((9, 3))
        points[:, 0] = xs[list(order)]
        labels = _assert_same_labels(points, 1.0, 4)
        border = list(order).index(0)
        left = list(order).index(1)
        right = list(order).index(5)
        assert labels[left] != labels[right]
        assert labels[border] == min(labels[left], labels[right])

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("min_points", [1, 2])
    def test_tiny_inputs(self, n, min_points):
        labels = _assert_same_labels(np.ones((n, 3)), 1.0, min_points)
        assert labels.shape == (n,)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 60))
    def test_min_points_one_makes_every_point_core(self, seed, n):
        labels = _assert_same_labels(_blobs_and_outliers(seed, n), 0.5, 1)
        assert not np.any(labels == NOISE)

    def test_two_dimensional_points(self):
        rng = np.random.default_rng(5)
        _assert_same_labels(rng.normal(size=(90, 2)), 0.4, 3)


class TestRowChunking:
    def test_input_above_the_row_cap_matches_the_oracle(self):
        # Two full row chunks and a partial one.
        points = _blobs_and_outliers(7, 2 * _ROW_CAP + 37)
        labels = _assert_same_labels(points, 0.5, 4)
        assert len(set(labels.tolist()) - {NOISE}) > 1
