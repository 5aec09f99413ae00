"""Density-based spatial clustering (DBSCAN), from scratch.

Used by the noise-canceling module: the paper clusters the aggregated
gesture point cloud with DBSCAN (max pair distance ``D_max`` = 1 m,
minimum cluster size ``N_min`` = 4) and keeps the main cluster.
"""

from __future__ import annotations

import numpy as np

NOISE = -1

#: Largest point count whose adjacency is built from one ``(n, n, d)``
#: difference block; larger inputs are built ``_ROW_CAP`` rows at a time.
#: The ``frames`` benchmark's aggregated clouds peak at 447 points, so
#: served traffic never chunks; dataset builds over all 15 ASL signs
#: reach about 1,030.  A 2,000-point cloud holds a 24 MB block at a time
#: instead of 96 MB.
_ROW_CAP = 512


def _adjacency(points: np.ndarray, eps_sq: float) -> np.ndarray:
    """``(n, n)`` bool: pairwise squared distance ``<= eps_sq``.

    Each entry sums the squared coordinate differences of a
    ``(rows, n, d)`` difference block with the same ``einsum`` reduction
    a per-point region query uses, so the ``eps`` test compares the same
    doubles.  The block is filled one coordinate at a time: the values
    of ``rows[:, None] - points[None]``, without its d-long inner loops.
    """
    n, d = points.shape
    adjacency = np.empty((n, n), dtype=bool)
    for first in range(0, n, _ROW_CAP):
        rows = points[first : first + _ROW_CAP]
        diff = np.empty((rows.shape[0], n, d))
        for axis in range(d):
            np.subtract(rows[:, axis, None], points[None, :, axis], out=diff[:, :, axis])
        adjacency[first : first + _ROW_CAP] = np.einsum("ijk,ijk->ij", diff, diff) <= eps_sq
    return adjacency


def _core_components(core_adjacency: np.ndarray) -> np.ndarray:
    """Connected-component ids of the core graph, numbered by lowest member."""
    m = core_adjacency.shape[0]
    component = np.full(m, NOISE, dtype=np.int64)
    next_id = 0
    for seed in range(m):
        if component[seed] != NOISE:
            continue
        members = np.zeros(m, dtype=bool)
        members[seed] = True
        frontier = members.copy()
        while frontier.any():
            reached = core_adjacency[frontier].any(axis=0)
            frontier = reached & ~members
            members |= reached
        component[members] = next_id
        next_id += 1
    return component


def dbscan(points: np.ndarray, eps: float, min_points: int) -> np.ndarray:
    """Cluster ``points`` (n, d); returns labels with -1 for noise.

    Standard DBSCAN: a point with at least ``min_points`` neighbours
    within ``eps`` (including itself) is a core point; clusters are the
    connected components of core points plus their border points.
    Clusters are numbered in scan order of their first core point, and a
    border point next to several clusters joins the lowest-numbered one
    — the labels a sequential scan that grows one cluster at a time
    assigns.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be (n, d)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_points <= 0:
        raise ValueError("min_points must be positive")
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    adjacency = _adjacency(points, eps * eps)
    core = np.count_nonzero(adjacency, axis=1) >= min_points
    if not core.any():
        return labels
    core_labels = _core_components(adjacency[core][:, core])
    labels[core] = core_labels
    # Border points: the lowest cluster id among adjacent core points.
    reach = adjacency[~core][:, core]
    nearest = np.where(reach, core_labels, n).min(axis=1)
    labels[~core] = np.where(nearest < n, nearest, NOISE)
    return labels
