"""Tests for pointwise convolutions, shared MLPs, and point max pooling."""

import numpy as np
import pytest

from repro.nn import Conv1x1, SharedMLP
from repro.nn.conv import MaxPoolPoints
from tests.nn.gradcheck import assert_grads_match


def _eval_mlp(seed=2):
    """A [3, 6, 4] MLP in eval mode with non-trivial running stats and affine."""
    mlp = SharedMLP([3, 6, 4], rng=np.random.default_rng(seed))
    mlp.train()
    mlp(np.random.default_rng(seed + 1).normal(size=(4, 3, 9)))
    rng = np.random.default_rng(seed + 2)
    for norm in mlp.blocks[1::3]:
        norm.gamma.data[:] = rng.uniform(0.5, 1.5, size=norm.num_features)
        norm.beta.data[:] = rng.normal(scale=0.3, size=norm.num_features)
    return mlp.eval()


class TestConv1x1:
    def test_shape(self):
        conv = Conv1x1(4, 6, rng=np.random.default_rng(0))
        assert conv(np.zeros((2, 4, 10))).shape == (2, 6, 10)

    def test_equivalent_to_per_point_linear(self):
        rng = np.random.default_rng(1)
        conv = Conv1x1(3, 2, rng=rng)
        x = rng.normal(size=(2, 3, 5))
        out = conv(x)
        for point in range(5):
            expected = conv.weight.data @ x[0, :, point] + conv.bias.data
            np.testing.assert_allclose(out[0, :, point], expected)

    def test_wrong_channels_raises(self):
        conv = Conv1x1(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            conv(np.zeros((2, 4, 10)))

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        conv = Conv1x1(3, 2, rng=rng)
        x = rng.normal(size=(2, 3, 4))
        grad_out = rng.normal(size=(2, 2, 4))
        conv(x)
        analytic = conv.backward(grad_out)
        eps = 1e-6
        numeric = np.zeros_like(x)
        flat, nflat = x.ravel(), numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = (conv(x) * grad_out).sum()
            flat[i] = orig - eps
            down = (conv(x) * grad_out).sum()
            flat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        conv = Conv1x1(2, 2, rng=rng)
        x = rng.normal(size=(3, 2, 4))
        grad_out = rng.normal(size=(3, 2, 4))
        conv.zero_grad()
        conv(x)
        conv.backward(grad_out)
        analytic = conv.weight.grad.copy()
        eps = 1e-6
        for i in range(conv.weight.data.size):
            flat = conv.weight.data.ravel()
            orig = flat[i]
            flat[i] = orig + eps
            up = (conv(x) * grad_out).sum()
            flat[i] = orig - eps
            down = (conv(x) * grad_out).sum()
            flat[i] = orig
            assert analytic.ravel()[i] == pytest.approx((up - down) / (2 * eps), abs=1e-6)


class TestSharedMLP:
    def test_stacking(self):
        mlp = SharedMLP([3, 8, 16], rng=np.random.default_rng(0))
        out = mlp(np.random.default_rng(1).normal(size=(2, 3, 7)))
        assert out.shape == (2, 16, 7)
        assert (out >= 0).all()  # final ReLU

    def test_needs_two_channels(self):
        with pytest.raises(ValueError):
            SharedMLP([4])

    def test_backward_shape(self):
        mlp = SharedMLP([3, 4], rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, 3, 5))
        out = mlp(x)
        grad = mlp.backward(np.ones_like(out))
        assert grad.shape == x.shape


    def test_eval_forward_never_writes_its_input(self):
        mlp = SharedMLP([3, 6, 4], rng=np.random.default_rng(0)).eval()
        x = np.random.default_rng(1).normal(size=(2, 3, 5))
        before = x.copy()
        mlp(x)
        np.testing.assert_array_equal(x, before)

    def test_blocks_are_conv_norm_relu_triples(self):
        mlp = SharedMLP([3, 8, 16], rng=np.random.default_rng(0))
        kinds = [type(block).__name__ for block in mlp.blocks]
        assert kinds == ["Conv1x1", "BatchNorm", "ReLU"] * 2
        names = [name for name, _ in mlp.named_parameters()]
        assert "blocks.0.weight" in names and "blocks.4.gamma" in names

    def test_eval_fold_tracks_in_place_weight_updates(self):
        mlp = _eval_mlp()
        x = np.random.default_rng(9).normal(size=(2, 3, 5))
        before = mlp(x).copy()
        mlp.blocks[1].gamma.data *= 2.0  # an optimizer step writes in place
        assert not np.allclose(mlp(x), before)

    def test_frozen_fold_matches_eval_fold(self):
        mlp = _eval_mlp()
        x = np.random.default_rng(9).normal(size=(2, 3, 5))
        reference = mlp(x).copy()
        assert mlp.freeze()(x).tobytes() == reference.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            mlp.blocks[1].gamma.data *= 2.0

    def test_frozen_fold_follows_reassigned_buffers(self):
        mlp = _eval_mlp().freeze()
        x = np.random.default_rng(9).normal(size=(2, 3, 5))
        before = mlp(x).copy()
        norm = mlp.blocks[1]
        norm.running_var = norm.running_var * 4.0  # a loader reassigns
        after = mlp(x).copy()
        assert not np.allclose(after, before)
        assert after.tobytes() == mlp.train().eval()(x).tobytes()

    def test_eval_parameter_gradients_match_numeric(self):
        mlp = _eval_mlp()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5))
        grad_out = rng.normal(size=(2, 4, 5))

        def loss_and_backward():
            mlp.zero_grad()
            loss = float((mlp(x) * grad_out).sum())
            mlp.backward(grad_out)
            return loss

        assert_grads_match(mlp, loss_and_backward, stride=1, tol=1e-6)

    def test_eval_input_gradient_matches_numeric(self):
        mlp = SharedMLP([3, 6, 4], rng=np.random.default_rng(2))
        mlp.train()
        mlp(np.random.default_rng(3).normal(size=(4, 3, 9)))  # non-trivial running stats
        mlp.eval()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 5))
        grad_out = rng.normal(size=(2, 4, 5))
        mlp(x)
        analytic = mlp.backward(grad_out)
        eps = 1e-6
        numeric = np.zeros_like(x)
        flat, nflat = x.ravel(), numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = (mlp(x) * grad_out).sum()
            flat[i] = orig - eps
            down = (mlp(x) * grad_out).sum()
            flat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestMaxPoolPoints:
    def test_takes_max(self):
        pool = MaxPoolPoints()
        x = np.array([[[1.0, 5.0, 3.0], [2.0, 0.0, -1.0]]])
        out = pool(x)
        np.testing.assert_array_equal(out, [[5.0, 2.0]])

    def test_backward_routes_to_argmax(self):
        pool = MaxPoolPoints()
        x = np.array([[[1.0, 5.0, 3.0]]])
        pool(x)
        grad = pool.backward(np.array([[2.0]]))
        np.testing.assert_array_equal(grad, [[[0.0, 2.0, 0.0]]])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            MaxPoolPoints()(np.zeros((2, 3)))
