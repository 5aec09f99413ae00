"""Multi-scale set abstraction (the PointNet++ building block of GesIDNet).

One set-abstraction block samples ``num_centers`` representative points by
farthest-point sampling, groups the ``max_neighbors`` nearest in-radius
points for each of several scales, runs a shared MLP per scale, and
max-pools each group — producing per-center local features ``f^s``
(the concatenation of the per-scale features, SIV-C of the paper).

Gradients are propagated back to the *input features* only: point
coordinates are data (not functions of any parameter), so their gradient
is never needed during training.

The grouping half of a block — FPS, ball query and the center-relative
grouped coordinates — holds no weights: it depends only on the input
coordinates and on ``(num_centers, scales)``.  :meth:`group` computes it
as a :class:`Grouping`, which ``forward`` accepts precomputed, so models
built from one network config can share a single grouping per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.conv import SharedMLP
from repro.nn.module import Module, as_compute
from repro.nn.pointset import ball_query, farthest_point_sampling, gather_points, group_points


@dataclass(frozen=True, eq=False)
class Grouping:
    """The weight-free geometry of one set-abstraction block for a batch.

    ``centers`` is ``(batch, num_centers, 3)``; per scale, ``group_idx``
    holds the ball-query indices ``(batch, num_centers, neighbors)`` and
    ``local`` the center-relative grouped coordinates
    ``(batch, num_centers, neighbors, 3)``.  ``key`` names the
    ``(num_centers, ((radius, neighbors), ...))`` it was built for, so a
    block refuses a grouping made for a different architecture.
    Consumers only read these arrays.
    """

    centers: np.ndarray
    group_idx: tuple[np.ndarray, ...]
    local: tuple[np.ndarray, ...]
    key: tuple

    def rows(self, index) -> "Grouping":
        """The grouping of the batch rows selected by ``index``."""
        return Grouping(
            self.centers[index],
            tuple(idx[index] for idx in self.group_idx),
            tuple(local[index] for local in self.local),
            self.key,
        )


@dataclass(frozen=True)
class ScaleSpec:
    """One grouping scale: radius ``d_i``, group size ``m_i``, and MLP widths."""

    radius: float
    max_neighbors: int
    mlp_channels: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.max_neighbors <= 0:
            raise ValueError("max_neighbors must be positive")
        if not self.mlp_channels:
            raise ValueError("mlp_channels must be non-empty")


class MultiScaleSetAbstraction(Module):
    """Sample ``n_i`` centers and extract multi-scale local features.

    Parameters
    ----------
    num_centers:
        Number of representative points ``n_i`` selected by FPS.
    in_channels:
        Number of input feature channels (0 when the input is bare xyz).
    scales:
        One :class:`ScaleSpec` per grouping scale; the per-scale MLP input
        is ``in_channels + 3`` (features concatenated with center-relative
        coordinates).
    """

    def __init__(
        self,
        num_centers: int,
        in_channels: int,
        scales: list[ScaleSpec],
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_centers <= 0:
            raise ValueError("num_centers must be positive")
        if not scales:
            raise ValueError("need at least one scale")
        self.num_centers = num_centers
        self.in_channels = in_channels
        self.scales = list(scales)
        self.mlps = [
            SharedMLP([in_channels + 3, *spec.mlp_channels], rng=rng) for spec in self.scales
        ]
        self.out_channels = sum(spec.mlp_channels[-1] for spec in self.scales)
        self.grouping_key = (
            num_centers,
            tuple((spec.radius, spec.max_neighbors) for spec in self.scales),
        )
        self._cache: dict | None = None

    def group(self, coords: np.ndarray) -> Grouping:
        """FPS centers and per-scale ball-query groups of ``coords``.

        ``coords`` is ``(batch, num_points, 3)``.  The result depends on
        nothing but ``coords`` and ``(num_centers, scales)``.
        """
        coords = self._check_coords(coords)
        center_idx = farthest_point_sampling(coords, self.num_centers)
        centers = gather_points(coords, center_idx)
        # Every scale selects from one center-to-point distance block.
        group_idx = ball_query(
            coords,
            centers,
            [spec.radius for spec in self.scales],
            [spec.max_neighbors for spec in self.scales],
        )
        local = tuple(group_points(coords, idx) - centers[:, :, None, :] for idx in group_idx)
        return Grouping(centers, group_idx, local, self.grouping_key)

    def forward(
        self,
        coords: np.ndarray,
        features: np.ndarray | None = None,
        *,
        grouping: Grouping | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(center_coords, center_features)``.

        ``coords`` is ``(batch, num_points, 3)``; ``features`` is
        ``(batch, in_channels, num_points)`` or None when ``in_channels == 0``.
        ``grouping`` is :meth:`group` of these ``coords`` when the caller
        already has it (computed here otherwise).
        Output shapes: ``(batch, num_centers, 3)`` and
        ``(batch, out_channels, num_centers)``.
        """
        coords = self._check_coords(coords)
        if self.in_channels == 0:
            if features is not None:
                raise ValueError("this block takes no input features")
        else:
            if features is None:
                raise ValueError(f"expected features with {self.in_channels} channels")
            features = as_compute(features)
            if features.shape[:2] != (coords.shape[0], self.in_channels) or features.shape[
                2
            ] != coords.shape[1]:
                raise ValueError(
                    "features must be (batch, in_channels, num_points) aligned with coords"
                )
        if grouping is None:
            grouping = self.group(coords)
        elif grouping.key != self.grouping_key or grouping.centers.shape[0] != coords.shape[0]:
            raise ValueError("grouping was built for a different block or batch")

        batch, num_points, _ = coords.shape
        scale_outputs: list[np.ndarray] = []
        cache: dict = {"num_points": num_points, "scale": []}
        for spec, mlp, group_idx, local in zip(
            self.scales, self.mlps, grouping.group_idx, grouping.local
        ):
            if features is not None:
                grouped_feat = group_points(np.transpose(features, (0, 2, 1)), group_idx)
                local = np.concatenate([local, grouped_feat], axis=-1)
            # Neighbor-major columns: (batch, centers, neighbors, C+3) ->
            # (batch, C+3, neighbors*centers), so the pool below is an
            # elementwise max over `neighbors` contiguous (C, centers) slabs.
            stacked = np.transpose(local, (0, 3, 2, 1)).reshape(
                batch, local.shape[-1], spec.max_neighbors * self.num_centers
            )
            transformed = mlp(stacked)
            per_group = transformed.reshape(
                batch, transformed.shape[1], spec.max_neighbors, self.num_centers
            )
            scale_outputs.append(per_group.max(axis=2))
            cache["scale"].append({"group_idx": group_idx, "per_group": per_group})
        if not self.frozen:
            self._cache = cache
        return grouping.centers, np.concatenate(scale_outputs, axis=1)

    def _check_coords(self, coords: np.ndarray) -> np.ndarray:
        coords = as_compute(coords)
        if coords.ndim != 3 or coords.shape[2] != 3:
            raise ValueError(f"coords must be (batch, n, 3), got {coords.shape}")
        return coords

    def backward(self, grad_features: np.ndarray) -> np.ndarray | None:
        """Backprop ``grad_features`` (batch, out_channels, num_centers).

        Returns the gradient w.r.t. the *input features*, or None when the
        block consumes bare coordinates.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_features = np.asarray(grad_features, dtype=np.float64)
        batch = grad_features.shape[0]
        num_points = self._cache["num_points"]
        grad_input = (
            np.zeros((batch, self.in_channels, num_points)) if self.in_channels else None
        )
        offset = 0
        for spec, mlp, scale_cache in zip(self.scales, self.mlps, self._cache["scale"]):
            width = spec.mlp_channels[-1]
            grad_scale = grad_features[:, offset : offset + width, :]
            offset += width
            per_group = scale_cache["per_group"]
            neighbors = per_group.shape[2]
            # The pooled value came from the first max of each group.
            argmax = per_group.argmax(axis=2)
            grad_groups = np.zeros((batch, width, neighbors, self.num_centers))
            np.put_along_axis(grad_groups, argmax[:, :, None], grad_scale[:, :, None], axis=2)
            grad_stacked = grad_groups.reshape(batch, width, neighbors * self.num_centers)
            grad_local = mlp.backward(grad_stacked)
            if grad_input is not None:
                # Drop the 3 coordinate channels, scatter-add feature grads
                # back in group_idx's (centers, neighbors) order.
                grad_feat_groups = grad_local[:, 3:, :].reshape(
                    batch, self.in_channels, neighbors, self.num_centers
                )
                contributions = np.transpose(grad_feat_groups, (0, 3, 2, 1)).reshape(
                    batch, -1, self.in_channels
                )
                flat_idx = scale_cache["group_idx"].reshape(batch, -1)
                per_point = np.transpose(grad_input, (0, 2, 1))
                for b in range(batch):
                    np.add.at(per_point[b], flat_idx[b], contributions[b])
                grad_input = np.transpose(per_point, (0, 2, 1))
        return grad_input


class GlobalFeatureExtractor(Module):
    """PointNet-style global layer: group *all* centers, shared MLP, max-pool.

    Implements the "level feature" extraction of GesIDNet: the level
    feature ``F`` is obtained from the per-center features ``f^s`` by
    grouping all representation points and applying an MLP (SIV-C).
    """

    def __init__(
        self,
        in_channels: int,
        mlp_channels: tuple[int, ...],
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not mlp_channels:
            raise ValueError("mlp_channels must be non-empty")
        self.in_channels = in_channels
        self.mlp = SharedMLP([in_channels + 3, *mlp_channels], rng=rng)
        self.out_channels = mlp_channels[-1]
        self._cache: dict | None = None

    def forward(self, coords: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Return global features ``(batch, out_channels)``."""
        coords = as_compute(coords)
        features = as_compute(features)
        centroid = coords.mean(axis=1, keepdims=True)
        local = np.transpose(coords - centroid, (0, 2, 1))
        stacked = np.concatenate([local, features], axis=1)
        transformed = self.mlp(stacked)
        if self.frozen:  # no backward to serve: pool without the argmax
            return transformed.max(axis=2)
        argmax = transformed.argmax(axis=2)
        self._cache = {"argmax": argmax, "num_points": coords.shape[1]}
        return np.take_along_axis(transformed, argmax[..., None], axis=2)[..., 0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Return gradient w.r.t. the input features (coords are data)."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, channels = grad_output.shape
        num_points = self._cache["num_points"]
        grad_transformed = np.zeros((batch, channels, num_points))
        np.put_along_axis(
            grad_transformed, self._cache["argmax"][..., None], grad_output[..., None], axis=2
        )
        grad_stacked = self.mlp.backward(grad_transformed)
        return grad_stacked[:, 3:, :]
