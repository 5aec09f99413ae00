"""Tests for dense layers: shapes, semantics, and exact gradients."""

import numpy as np
import pytest

from repro.nn import BatchNorm, Dropout, LeakyReLU, Linear, ReLU, Sequential, Softmax


def _numeric_grad_input(module, x, grad_out, eps=1e-6):
    numeric = np.zeros_like(x)
    flat_x = x.ravel()
    flat_num = numeric.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = (module(x) * grad_out).sum()
        flat_x[i] = orig - eps
        down = (module(x) * grad_out).sum()
        flat_x[i] = orig
        flat_num[i] = (up - down) / (2 * eps)
    return numeric


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 7, rng=np.random.default_rng(0))
        assert layer(np.zeros((3, 4))).shape == (3, 7)

    def test_known_computation(self):
        layer = Linear(2, 1, rng=np.random.default_rng(0))
        layer.weight.data = np.array([[2.0, -1.0]])
        layer.bias.data = np.array([0.5])
        out = layer(np.array([[1.0, 3.0]]))
        assert out[0, 0] == pytest.approx(2 - 3 + 0.5)

    def test_bad_shape_raises(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(np.zeros((3, 5)))

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        grad_out = rng.normal(size=(4, 2))
        layer(x)
        analytic = layer.backward(grad_out)
        numeric = _numeric_grad_input(layer, x, grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_weight_gradient_accumulates(self):
        rng = np.random.default_rng(2)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        layer(x)
        layer.backward(np.ones((4, 2)))
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_backward_before_forward_raises(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))


class TestActivations:
    def test_relu_clips_negatives(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_gradient_mask(self):
        layer = ReLU()
        layer(np.array([-1.0, 2.0]))
        grad = layer.backward(np.array([5.0, 5.0]))
        np.testing.assert_array_equal(grad, [0.0, 5.0])

    def test_relu_eval_never_writes_its_input(self):
        x = np.random.default_rng(0).normal(size=(3, 4, 5))
        before = x.copy()
        layer = ReLU().eval()
        out = layer(x)
        assert out is not x
        np.testing.assert_array_equal(x, before)
        chain = Sequential(Dropout(0.5), ReLU()).eval()
        out = chain(x)
        assert out is not x
        np.testing.assert_array_equal(x, before)

    def test_relu_forward_owned_matches_forward_bits(self):
        x = np.array([-2.0, -0.0, 0.0, 1.5, -1e-300])
        expected = ReLU()(x)
        owned = x.copy()
        layer = ReLU()
        out = layer.forward_owned(owned)
        assert out is owned
        assert out.tobytes() == expected.tobytes()  # signed zeros included
        np.testing.assert_array_equal(layer.backward(np.ones(5)), [0, 0, 0, 1, 0])

    def test_leaky_relu_negative_slope(self):
        layer = LeakyReLU(0.1)
        out = layer(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(out, [-0.2, 3.0])
        grad = layer.backward(np.array([1.0, 1.0]))
        np.testing.assert_allclose(grad, [0.1, 1.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = np.random.default_rng(1).normal(size=(8, 8))
        np.testing.assert_array_equal(layer(x), x)

    def test_train_mode_zeroes_some(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(np.ones((20, 20)))
        assert (out == 0).any()
        assert (out != 0).any()

    def test_inverted_scaling_preserves_mean(self):
        layer = Dropout(0.3, rng=np.random.default_rng(0))
        out = layer(np.ones((200, 200)))
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(np.ones((10, 10)))
        grad = layer.backward(np.ones((10, 10)))
        np.testing.assert_array_equal(grad, out)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalises_batch(self):
        layer = BatchNorm(3)
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(64, 3))
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_three_dim_input(self):
        layer = BatchNorm(4)
        x = np.random.default_rng(1).normal(size=(8, 4, 10))
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-9)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm(2, momentum=1.0)
        x = np.random.default_rng(2).normal(3.0, 2.0, size=(512, 2))
        layer(x)
        layer.eval()
        out = layer(x)
        assert abs(out.mean()) < 0.05

    def test_wrong_channels_raises(self):
        with pytest.raises(ValueError):
            BatchNorm(3)(np.zeros((4, 5)))

    def test_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm(3)
        x = rng.normal(size=(6, 3))
        grad_out = rng.normal(size=(6, 3))

        def forward_only(inp):
            saved = (layer.running_mean.copy(), layer.running_var.copy())
            out = layer(inp)
            layer.running_mean, layer.running_var = saved
            return out

        layer(x)
        analytic = layer.backward(grad_out)
        numeric = np.zeros_like(x)
        eps = 1e-6
        flat = x.ravel()
        num_flat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = (forward_only(x) * grad_out).sum()
            flat[i] = orig - eps
            down = (forward_only(x) * grad_out).sum()
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = Softmax()(np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        layer = Softmax()
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(layer(x), layer(x + 100.0))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(4)
        layer = Softmax()
        x = rng.normal(size=(3, 4))
        grad_out = rng.normal(size=(3, 4))
        layer(x)
        analytic = layer.backward(grad_out)
        numeric = _numeric_grad_input(layer, x, grad_out)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestSequential:
    def test_composes_forward(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(3, 5, rng=rng), ReLU(), Linear(5, 2, rng=rng))
        assert seq(np.zeros((4, 3))).shape == (4, 2)
        assert len(seq) == 3

    def test_train_eval_propagates(self):
        seq = Sequential(Dropout(0.5), ReLU())
        seq.eval()
        assert not seq[0].training
        seq.train()
        assert seq[0].training

    def test_parameters_collected(self):
        rng = np.random.default_rng(0)
        seq = Sequential(Linear(2, 2, rng=rng), Linear(2, 2, rng=rng))
        assert len(seq.parameters()) == 4
