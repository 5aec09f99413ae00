"""Tests for the GesIDNet architecture and attention fusion."""

import numpy as np
import pytest

from repro.core.gesidnet import AttentionFusion, GesIDNet, GesIDNetConfig
from repro.nn.losses import CrossEntropyLoss
from repro.nn.setabstraction import ScaleSpec


def _tiny_config():
    return GesIDNetConfig(
        num_points=16,
        in_feature_channels=8,
        sa1_centers=6,
        sa1_scales=(ScaleSpec(0.3, 4, (8,)),),
        sa2_centers=3,
        sa2_scales=(ScaleSpec(0.6, 3, (12,)),),
        level1_mlp=(10,),
        level2_mlp=(14,),
        head1_hidden=(8,),
        dropout=0.0,
        aux_weight=0.5,
    )


class TestAttentionFusion:
    def test_weights_sum_to_one(self):
        fusion = AttentionFusion(6, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        weights = fusion.weights_of(a, b)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0)
        assert (weights >= 0).all()
        fused = fusion(a, b)
        cache = fusion._cache
        fusion.weights_of(2 * a, b)
        assert fusion._cache is cache  # weights_of stores nothing
        assert cache["weights"].tobytes() == weights.tobytes()
        assert fused.tobytes() == (weights[:, :1] * a + weights[:, 1:] * b).tobytes()

    def test_fusion_is_convex_combination(self):
        fusion = AttentionFusion(3, rng=np.random.default_rng(0))
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([[3.0, 3.0, 3.0]])
        fused = fusion(a, b)
        assert (fused >= 1.0 - 1e-9).all()
        assert (fused <= 3.0 + 1e-9).all()

    def test_shape_mismatch_raises(self):
        fusion = AttentionFusion(3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            fusion(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_gradient_matches_numeric(self):
        fusion = AttentionFusion(4, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        grad_out = rng.normal(size=(3, 4))
        fusion(a, b)
        grad_a, grad_b = fusion.backward(grad_out)
        eps = 1e-6
        for target, grad in ((a, grad_a), (b, grad_b)):
            for i in range(target.size):
                flat = target.ravel()
                orig = flat[i]
                flat[i] = orig + eps
                up = (fusion(a, b) * grad_out).sum()
                flat[i] = orig - eps
                down = (fusion(a, b) * grad_out).sum()
                flat[i] = orig
                assert grad.ravel()[i] == pytest.approx((up - down) / (2 * eps), abs=1e-6)


class TestGesIDNet:
    def test_forward_shapes(self):
        model = GesIDNet(5, _tiny_config(), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 16, 8))
        primary, auxiliary = model(x)
        assert primary.shape == (4, 5)
        assert auxiliary.shape == (4, 5)

    def test_rejects_thin_input(self):
        model = GesIDNet(3, _tiny_config(), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            model(np.zeros((2, 16, 4)))

    def test_rejects_too_few_classes(self):
        with pytest.raises(ValueError):
            GesIDNet(1, _tiny_config())

    def test_features_are_what_the_heads_read(self):
        model = GesIDNet(3, _tiny_config(), rng=np.random.default_rng(0)).eval()
        x = np.random.default_rng(1).normal(size=(2, 16, 8))
        features = model.features(x)  # no forward needed first
        assert set(features) == {"level1", "level2", "fused1", "fused2"}
        assert features["fused1"].shape == (2, 10)
        assert features["fused2"].shape == (2, 14)
        primary, auxiliary = model(x)
        assert primary.tobytes() == model.head1(features["fused1"]).tobytes()
        assert auxiliary.tobytes() == model.head2(features["fused2"]).tobytes()

    def test_full_gradient_check(self):
        model = GesIDNet(3, _tiny_config(), rng=np.random.default_rng(0))
        model.train()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 16, 8))
        y = np.array([0, 1, 2, 1])
        loss1 = CrossEntropyLoss()
        loss2 = CrossEntropyLoss()

        def compute_loss():
            p, a = model(x)
            return loss1(p, y) + 0.5 * loss2(a, y)

        model.zero_grad()
        p, a = model(x)
        loss1(p, y)
        loss2(a, y)
        model.backward(loss1.backward(), 0.5 * loss2.backward())
        named = model.named_parameters()
        analytic = {name: prm.grad.copy() for name, prm in named}
        eps = 1e-6
        checked = 0
        for name, prm in named[::4]:
            flat = prm.data.ravel()
            for idx in range(0, flat.size, max(flat.size // 2, 1)):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = compute_loss()
                flat[idx] = orig - eps
                down = compute_loss()
                flat[idx] = orig
                numeric = (up - down) / (2 * eps)
                ana = analytic[name].ravel()[idx]
                assert abs(numeric - ana) <= 1e-4 * max(1.0, abs(numeric), abs(ana)), name
                checked += 1
        assert checked >= 10

    def test_eval_mode_deterministic(self):
        model = GesIDNet(3, _tiny_config(), rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 16, 8))
        model(x)  # populate running stats
        model.eval()
        a, _ = model(x)
        b, _ = model(x)
        np.testing.assert_array_equal(a, b)

    def test_config_presets(self):
        assert GesIDNetConfig.small().num_points < GesIDNetConfig.paper().num_points
        assert GesIDNetConfig().aux_weight > 0
