"""Point-set operators for PointNet++-style set abstraction.

The GesIDNet encoder samples representative points (farthest-point
sampling), groups neighbours within a radius (ball query), and applies a
shared MLP per group.  These operators work on batched coordinate arrays
``(batch, num_points, 3)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def farthest_point_sampling(
    points: np.ndarray, num_samples: int, *, start_index: int = 0
) -> np.ndarray:
    """Select ``num_samples`` indices per batch that are mutually far apart.

    Deterministic given ``start_index``.  If a cloud has fewer points than
    requested, indices wrap around (sampling with repetition), matching the
    common PointNet++ practice for sparse mmWave clouds.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3:
        raise ValueError(f"points must be (batch, n, d), got {points.shape}")
    batch, num_points, _ = points.shape
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if num_points == 0:
        raise ValueError("cannot sample from an empty point cloud")
    effective = min(num_samples, num_points)
    # Vectorised across the batch: every iteration advances all clouds at
    # once, so a micro-batch of B streams costs ~1/B of the per-call Python
    # overhead of sampling each cloud separately (the serving engine's main
    # amortisation win).  The per-cloud selections are identical to the
    # sequential algorithm: argmax rows and distance updates are
    # independent per batch element.
    batch_idx = np.arange(batch)
    chosen = np.empty((batch, effective), dtype=np.int64)
    chosen[:, 0] = start_index % num_points
    diff = points - points[batch_idx, chosen[:, 0]][:, None, :]
    dist = np.einsum("bnd,bnd->bn", diff, diff)
    for i in range(1, effective):
        nxt = np.argmax(dist, axis=1)
        chosen[:, i] = nxt
        diff = points - points[batch_idx, nxt][:, None, :]
        new_dist = np.einsum("bnd,bnd->bn", diff, diff)
        np.minimum(dist, new_dist, out=dist)
    if effective < num_samples:
        # Wrap-around padding (sampling with repetition) for sparse clouds.
        chosen = chosen[:, np.resize(np.arange(effective), num_samples)]
    return chosen


def gather_points(points: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather ``points[b, indices[b]]`` for every batch element."""
    points = np.asarray(points)
    indices = np.asarray(indices, dtype=np.int64)
    batch_idx = np.arange(points.shape[0])[:, None]
    return points[batch_idx, indices]


def ball_query(
    points: np.ndarray,
    centers: np.ndarray,
    radius: float | Sequence[float],
    max_neighbors: int | Sequence[int],
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Indices of up to ``max_neighbors`` points within ``radius`` of each center.

    Groups with fewer neighbours repeat the first (closest) neighbour, so
    the output is a dense ``(batch, num_centers, max_neighbors)`` index
    array.  A center with no in-radius point falls back to its nearest
    neighbour, guaranteeing non-empty groups for sparse clouds.

    ``radius`` and ``max_neighbors`` may instead be equal-length
    sequences, one entry per grouping scale: the center-to-point
    distance block is then computed once and a tuple of index arrays is
    returned, each equal to the scalar call for its scale.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    multi = np.ndim(radius) > 0
    radii = tuple(radius) if multi else (radius,)
    counts = tuple(max_neighbors) if multi else (max_neighbors,)
    if len(radii) != len(counts):
        raise ValueError("need one max_neighbors per radius")
    if min(radii) <= 0:
        raise ValueError("radius must be positive")
    if min(counts) <= 0:
        raise ValueError("max_neighbors must be positive")
    diff = centers[:, :, None, :] - points[:, None, :, :]
    dist_sq = np.einsum("bcnd,bcnd->bcn", diff, diff)
    groups = tuple(_ball_indices(dist_sq, r, m) for r, m in zip(radii, counts))
    return groups if multi else groups[0]


def _ball_indices(dist_sq: np.ndarray, radius: float, max_neighbors: int) -> np.ndarray:
    """One scale's ball-query indices from the ``(batch, centers, points)`` block."""
    batch, num_centers, num_points = dist_sq.shape
    k = min(max_neighbors, num_points)
    if k < num_points:
        nearest = np.argpartition(dist_sq, kth=k - 1, axis=2)[:, :, :k]
    else:
        nearest = np.broadcast_to(
            np.arange(num_points), (batch, num_centers, num_points)
        ).copy()
    sub = np.take_along_axis(dist_sq, nearest, axis=2)
    inside = np.count_nonzero(sub <= radius * radius, axis=2)
    order = np.argsort(sub, axis=2, kind="stable")
    nearest = np.take_along_axis(nearest, order, axis=2)
    # Sorted by distance, the in-radius neighbours are a prefix.  Column 0
    # is the nearest point either way: the fallback for an empty ball.
    within = np.arange(k) < inside[..., None]
    selected = np.where(within, nearest, nearest[:, :, :1])
    if k < max_neighbors:
        # Fewer points than neighbours requested: repeat the closest.
        pad = np.broadcast_to(
            selected[:, :, :1], (batch, num_centers, max_neighbors - k)
        )
        selected = np.concatenate([selected, pad], axis=2)
    return selected


def group_points(points: np.ndarray, group_indices: np.ndarray) -> np.ndarray:
    """Gather grouped coordinates/features.

    ``points`` is ``(batch, num_points, channels)``; ``group_indices`` is
    ``(batch, num_centers, neighbors)``; the result is
    ``(batch, num_centers, neighbors, channels)``.
    """
    points = np.asarray(points)
    group_indices = np.asarray(group_indices, dtype=np.int64)
    batch_idx = np.arange(points.shape[0])[:, None, None]
    return points[batch_idx, group_indices]
