"""Per-point DBSCAN loop, kept verbatim as the fidelity oracle.

This is the region-query-and-queue implementation that
``repro.preprocessing.dbscan`` used before it moved to one adjacency
matrix.  The fidelity tests require the production ``dbscan`` to return
label arrays identical to this one, cluster ids included.
"""

from __future__ import annotations

import numpy as np

NOISE = -1


def _region_query(points: np.ndarray, idx: int, eps_sq: float) -> np.ndarray:
    diff = points - points[idx]
    dist_sq = np.einsum("ij,ij->i", diff, diff)
    return np.flatnonzero(dist_sq <= eps_sq)


def reference_dbscan(points: np.ndarray, eps: float, min_points: int) -> np.ndarray:
    """Cluster ``points`` (n, d); returns labels with -1 for noise."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be (n, d)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_points <= 0:
        raise ValueError("min_points must be positive")
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    eps_sq = eps * eps
    cluster_id = 0
    for start in range(n):
        if visited[start]:
            continue
        visited[start] = True
        neighbors = _region_query(points, start, eps_sq)
        if neighbors.size < min_points:
            continue  # stays noise unless adopted as a border point later
        labels[start] = cluster_id
        queue = list(neighbors)
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            if labels[current] == NOISE:
                labels[current] = cluster_id  # border point adoption
            if visited[current]:
                continue
            visited[current] = True
            labels[current] = cluster_id
            current_neighbors = _region_query(points, current, eps_sq)
            if current_neighbors.size >= min_points:
                queue.extend(current_neighbors)
        cluster_id += 1
    return labels
