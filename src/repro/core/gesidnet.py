"""GesIDNet: set abstraction + attention-based multilevel feature fusion.

Architecture (Fig. 5 of the paper):

1. Two multi-scale set-abstraction levels extract local features from
   the aggregated gesture point cloud at growing receptive fields.
2. Each level yields a *level feature* ``F^k`` (group-all + MLP +
   max-pool).
3. At each level, the other level's feature is resized with a resizing
   block (Linear + ReLU) and fused by adaptive attention weights
   (Eq. 2-3): ``Y^k = S(F^{l->k}) F^{l->k} + S(F^k) F^k`` with
   ``S(·) = softmax(g(·))``.
4. Each fused feature feeds its own FC head: the low-level head gives
   the primary prediction ``P1`` (more FC layers), the high-level head
   the auxiliary prediction ``P2``.  Training minimises
   ``L1 + aux_weight * L2``; inference uses ``P1`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Dropout, Linear, ReLU
from repro.nn.module import Module, Parameter, Sequential, as_compute
from repro.nn.setabstraction import (
    GlobalFeatureExtractor,
    Grouping,
    MultiScaleSetAbstraction,
    ScaleSpec,
)

#: The weight-free geometry of one batch: the SA1 grouping of the input
#: coordinates and the SA2 grouping of SA1's centers.
Geometry = tuple[Grouping, Grouping]


def geometry_rows(geometry: Geometry, index) -> Geometry:
    """The geometry of the batch rows selected by ``index``."""
    return (geometry[0].rows(index), geometry[1].rows(index))


@dataclass(frozen=True)
class GesIDNetConfig:
    """Architecture hyper-parameters.

    ``paper()`` approximates the scale of the original PyTorch model;
    ``small()`` is the laptop-scale configuration used by the tests and
    benchmark harness (documented in EXPERIMENTS.md).
    """

    num_points: int = 96
    #: Leading input channels used as per-point features.  This includes
    #: the raw xyz columns: set abstraction works on center-relative
    #: coordinates, so without xyz-as-features the network would never
    #: see absolute position — and absolute height is a user biometric.
    in_feature_channels: int = 8
    sa1_centers: int = 48
    sa1_scales: tuple[ScaleSpec, ...] = (
        ScaleSpec(radius=0.15, max_neighbors=8, mlp_channels=(32, 32)),
        ScaleSpec(radius=0.35, max_neighbors=16, mlp_channels=(32, 48)),
    )
    sa2_centers: int = 12
    sa2_scales: tuple[ScaleSpec, ...] = (
        ScaleSpec(radius=0.3, max_neighbors=8, mlp_channels=(48, 64)),
        ScaleSpec(radius=0.6, max_neighbors=12, mlp_channels=(48, 96)),
    )
    level1_mlp: tuple[int, ...] = (96, 128)
    level2_mlp: tuple[int, ...] = (128, 192)
    head1_hidden: tuple[int, ...] = (64,)
    dropout: float = 0.3
    aux_weight: float = 0.4
    #: When False the fusion weights are pinned to 0.5/0.5 (the Fig. 14
    #: "w/o feature fusion" ablation: levels are averaged, not
    #: adaptively weighted).
    adaptive_fusion: bool = True

    @classmethod
    def paper(cls) -> "GesIDNetConfig":
        return cls(
            num_points=128,
            sa1_centers=64,
            sa1_scales=(
                ScaleSpec(radius=0.12, max_neighbors=16, mlp_channels=(32, 64)),
                ScaleSpec(radius=0.3, max_neighbors=32, mlp_channels=(64, 96)),
            ),
            sa2_centers=16,
            sa2_scales=(
                ScaleSpec(radius=0.3, max_neighbors=16, mlp_channels=(96, 128)),
                ScaleSpec(radius=0.6, max_neighbors=32, mlp_channels=(96, 128)),
            ),
            level1_mlp=(128, 256),
            level2_mlp=(192, 256),
            head1_hidden=(128, 64),
        )

    @classmethod
    def small(cls) -> "GesIDNetConfig":
        return cls(
            num_points=64,
            sa1_centers=24,
            sa1_scales=(
                ScaleSpec(radius=0.15, max_neighbors=8, mlp_channels=(24, 32)),
                ScaleSpec(radius=0.35, max_neighbors=12, mlp_channels=(32, 40)),
            ),
            sa2_centers=8,
            sa2_scales=(
                ScaleSpec(radius=0.4, max_neighbors=6, mlp_channels=(48, 48)),
                ScaleSpec(radius=0.8, max_neighbors=8, mlp_channels=(48, 64)),
            ),
            level1_mlp=(96,),
            level2_mlp=(128,),
            head1_hidden=(48,),
        )


class AttentionFusion(Module):
    """Adaptive two-feature fusion (Eq. 2-3).

    One scoring map ``g`` (a 1-output linear layer, the paper's
    convolutional scorer applied to vector features) scores both
    features; a softmax over the two scores yields the adaptive weights.
    """

    def __init__(
        self,
        feature_dim: int,
        *,
        adaptive: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        bound = np.sqrt(6.0 / feature_dim)
        self.adaptive = adaptive
        self.score_weight = Parameter(rng.uniform(-bound, bound, size=(feature_dim,)))
        self.score_bias = Parameter(np.zeros(1))
        self._cache: dict | None = None

    def forward(self, resized: np.ndarray, native: np.ndarray) -> np.ndarray:
        """Fuse ``resized`` (the other level's feature) with ``native``."""
        resized = as_compute(resized)
        native = as_compute(native)
        weights = self.weights_of(resized, native)
        if not self.adaptive:
            fused = 0.5 * resized + 0.5 * native
        else:
            fused = weights[:, 0:1] * resized + weights[:, 1:2] * native
        if not self.frozen:
            self._cache = {"resized": resized, "native": native, "weights": weights}
        return fused

    def weights_of(self, resized: np.ndarray, native: np.ndarray) -> np.ndarray:
        """The adaptive weights ``(S(F^{l->k}), S(F^k))``, shape ``(batch, 2)``."""
        resized = as_compute(resized)
        native = as_compute(native)
        if resized.shape != native.shape:
            raise ValueError("fusion inputs must share a shape")
        if not self.adaptive:
            return np.full((resized.shape[0], 2), 0.5)
        # einsum keeps each row's reduction order fixed regardless of batch
        # size (BLAS GEMV picks different kernels for different row counts),
        # so scores — and therefore fused features — are bitwise identical
        # whether a sample is scored alone or inside a micro-batch.
        score_r = np.einsum("bd,d->b", resized, self.score_weight.data) + self.score_bias.data
        score_n = np.einsum("bd,d->b", native, self.score_weight.data) + self.score_bias.data
        logits = np.stack([score_r, score_n], axis=1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        resized = self._cache["resized"]
        native = self._cache["native"]
        weights = self._cache["weights"]
        grad_output = np.asarray(grad_output, dtype=np.float64)

        grad_resized = weights[:, 0:1] * grad_output
        grad_native = weights[:, 1:2] * grad_output
        if not self.adaptive:
            return grad_resized, grad_native
        # Gradient through the softmax weights.
        grad_w = np.stack(
            [(grad_output * resized).sum(axis=1), (grad_output * native).sum(axis=1)], axis=1
        )
        inner = (grad_w * weights).sum(axis=1, keepdims=True)
        grad_logits = weights * (grad_w - inner)  # (batch, 2)
        # Scores share one linear scorer.
        self.score_weight.grad += (
            grad_logits[:, 0:1] * resized + grad_logits[:, 1:2] * native
        ).sum(axis=0)
        self.score_bias.grad += grad_logits.sum()
        grad_resized += grad_logits[:, 0:1] * self.score_weight.data[None, :]
        grad_native += grad_logits[:, 1:2] * self.score_weight.data[None, :]
        return grad_resized, grad_native


class GesIDNet(Module):
    """The full network; one instance per classification task.

    Input: ``(batch, num_points, 5)`` point arrays (xyz, doppler,
    intensity) from :func:`repro.preprocessing.pipeline.normalize_cloud`.
    ``forward`` returns ``(primary_logits, auxiliary_logits)``.

    :meth:`geometry` depends only on the input coordinates and the
    network config, so every GesIDNet built from one config can run on
    the same precomputed geometry (``forward(points, geometry)``).
    """

    def __init__(
        self,
        num_classes: int,
        config: GesIDNetConfig | None = None,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_classes < 2:
            raise ValueError("need at least two classes")
        rng = rng or np.random.default_rng()
        self.config = config or GesIDNetConfig()
        self.num_classes = num_classes
        cfg = self.config

        self.sa1 = MultiScaleSetAbstraction(
            cfg.sa1_centers, cfg.in_feature_channels, list(cfg.sa1_scales), rng=rng
        )
        self.sa2 = MultiScaleSetAbstraction(
            cfg.sa2_centers, self.sa1.out_channels, list(cfg.sa2_scales), rng=rng
        )
        self.global1 = GlobalFeatureExtractor(self.sa1.out_channels, cfg.level1_mlp, rng=rng)
        self.global2 = GlobalFeatureExtractor(self.sa2.out_channels, cfg.level2_mlp, rng=rng)
        dim1 = self.global1.out_channels
        dim2 = self.global2.out_channels
        self.resize_2to1 = Sequential(Linear(dim2, dim1, rng=rng), ReLU())
        self.resize_1to2 = Sequential(Linear(dim1, dim2, rng=rng), ReLU())
        self.fusion1 = AttentionFusion(dim1, adaptive=cfg.adaptive_fusion, rng=rng)
        self.fusion2 = AttentionFusion(dim2, adaptive=cfg.adaptive_fusion, rng=rng)

        head1_layers: list[Module] = []
        width = dim1
        for hidden in cfg.head1_hidden:
            head1_layers.extend(
                [Linear(width, hidden, rng=rng), ReLU(), Dropout(cfg.dropout, rng=rng)]
            )
            width = hidden
        head1_layers.append(Linear(width, num_classes, rng=rng))
        self.head1 = Sequential(*head1_layers)
        self.head2 = Sequential(Linear(dim2, num_classes, rng=rng))

    # ------------------------------------------------------------------
    def geometry(self, points: np.ndarray) -> Geometry:
        """Both set-abstraction groupings of ``points`` (no weights read)."""
        first = self.sa1.group(self._points(points)[:, :, :3])
        return first, self.sa2.group(first.centers)

    def features(
        self, points: np.ndarray, geometry: Geometry | None = None
    ) -> dict[str, np.ndarray]:
        """Level and fusion features of ``points`` (Fig. 6's t-SNE inputs).

        ``{"level1", "level2", "fused1", "fused2"}``; ``geometry`` is
        :meth:`geometry` of the points if known.
        """
        level1, level2 = self._levels(points, geometry)
        return {
            "level1": level1,
            "level2": level2,
            "fused1": self.fusion1(self.resize_2to1(level2), level1),
            "fused2": self.fusion2(self.resize_1to2(level1), level2),
        }

    def forward(
        self,
        points: np.ndarray,
        geometry: Geometry | None = None,
        *,
        auxiliary: bool = True,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Logits ``(P1, P2)`` of ``points``; ``geometry`` is :meth:`geometry` of them if known.

        ``auxiliary=False`` is the inference path: only the training loss
        reads ``P2``, so the auxiliary branch (``resize_1to2``,
        ``fusion2``, ``head2``) is skipped and ``(P1, None)`` returned,
        with the same ``P1`` bytes.
        """
        level1, level2 = self._levels(points, geometry)
        primary = self.head1(self.fusion1(self.resize_2to1(level2), level1))
        if not auxiliary:
            return primary, None
        return primary, self.head2(self.fusion2(self.resize_1to2(level1), level2))

    def _levels(
        self, points: np.ndarray, geometry: Geometry | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The level features ``(F^1, F^2)`` of both set-abstraction levels."""
        points = self._points(points)
        grouping1, grouping2 = (None, None) if geometry is None else geometry
        coords = points[:, :, :3]
        features = np.transpose(points[:, :, : self.config.in_feature_channels], (0, 2, 1))
        coords1, f1 = self.sa1(coords, features, grouping=grouping1)
        coords2, f2 = self.sa2(coords1, f1, grouping=grouping2)
        return self.global1(coords1, f1), self.global2(coords2, f2)

    def _points(self, points: np.ndarray) -> np.ndarray:
        points = as_compute(points)
        needed = max(3, self.config.in_feature_channels)
        if points.ndim != 3 or points.shape[2] < needed:
            raise ValueError(
                f"expected (batch, points, >= {needed}) input, got {points.shape}"
            )
        return points

    def backward(self, grad_primary: np.ndarray, grad_auxiliary: np.ndarray) -> None:
        """Backprop both heads; auxiliary-loss weighting is the caller's job."""
        grad_fused1 = self.head1.backward(grad_primary)
        grad_fused2 = self.head2.backward(grad_auxiliary)
        grad_r21, grad_l1_a = self.fusion1.backward(grad_fused1)
        grad_r12, grad_l2_a = self.fusion2.backward(grad_fused2)
        grad_l2_b = self.resize_2to1.backward(grad_r21)
        grad_l1_b = self.resize_1to2.backward(grad_r12)
        grad_level1 = grad_l1_a + grad_l1_b
        grad_level2 = grad_l2_a + grad_l2_b
        grad_f2 = self.global2.backward(grad_level2)
        grad_f1_from_sa2 = self.sa2.backward(grad_f2)
        grad_f1 = self.global1.backward(grad_level1) + grad_f1_from_sa2
        self.sa1.backward(grad_f1)
