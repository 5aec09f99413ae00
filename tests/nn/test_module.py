"""Tests for the Module/Parameter base machinery."""

import copy
import pickle

import numpy as np
import pytest

from repro.nn import BatchNorm, Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter


class _Nested(Module):
    def __init__(self):
        super().__init__()
        self.inner = Linear(2, 2, rng=np.random.default_rng(0))
        self.weight = Parameter(np.ones(3))
        self.blocks = [Linear(2, 2, rng=np.random.default_rng(1)), ReLU()]

    def forward(self, x):
        return self.inner(x)

    def backward(self, grad):
        return self.inner.backward(grad)


class TestParameter:
    def test_grad_starts_zero(self):
        param = Parameter(np.ones((2, 3)))
        np.testing.assert_array_equal(param.grad, 0.0)
        assert param.shape == (2, 3)

    def test_zero_grad(self):
        param = Parameter(np.ones(4))
        param.grad += 3.0
        param.zero_grad()
        np.testing.assert_array_equal(param.grad, 0.0)


class TestModuleTree:
    def test_parameters_collects_nested_and_lists(self):
        model = _Nested()
        # inner (W, b) + own weight + blocks[0] (W, b) = 5 parameters.
        assert len(model.parameters()) == 5

    def test_named_parameters_paths(self):
        model = _Nested()
        names = {name for name, _ in model.named_parameters()}
        assert "weight" in names
        assert "inner.bias" in names
        assert "blocks.0.weight" in names

    def test_no_duplicate_parameters(self):
        model = _Nested()
        shared = model.inner
        model.alias = shared  # same module twice
        params = model.parameters()
        assert len(params) == len({id(p) for p in params})

    def test_train_eval_recursion(self):
        model = _Nested()
        model.eval()
        assert not model.inner.training
        assert not model.blocks[0].training
        model.train()
        assert model.blocks[0].training

    def test_zero_grad_recursive(self):
        model = _Nested()
        for param in model.parameters():
            param.grad += 1.0
        model.zero_grad()
        for param in model.parameters():
            np.testing.assert_array_equal(param.grad, 0.0)

    def test_base_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward()


class TestNamedParameterStability:
    def test_identical_builds_share_names(self):
        a = Sequential(Linear(2, 3, rng=np.random.default_rng(0)), ReLU())
        b = Sequential(Linear(2, 3, rng=np.random.default_rng(9)), ReLU())
        assert [n for n, _ in a.named_parameters()] == [n for n, _ in b.named_parameters()]


def _arrays(model):
    return [param.data for param in model.parameters()] + [
        norm.running_mean for norm in model.modules if isinstance(norm, BatchNorm)
    ]


class TestFreeze:
    def _model(self):
        return Sequential(Linear(3, 4, rng=np.random.default_rng(0)), BatchNorm(4), ReLU())

    def test_freeze_locks_weights_and_buffers(self):
        model = self._model().freeze()
        assert model.frozen and not model.training
        assert not any(array.flags.writeable for array in _arrays(model))
        with pytest.raises(ValueError, match="read-only"):
            model[0].weight.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            model[1].running_var *= 2.0
        model[0].weight.grad[:] = 1.0  # gradients stay writable

    def test_train_unlocks(self):
        model = self._model().freeze().train()
        assert not model.frozen and not model[0].frozen
        assert all(array.flags.writeable for array in _arrays(model))
        model[0].weight.data[0, 0] = 1.0

    def test_train_leaves_already_read_only_arrays_locked(self):
        model = self._model()
        model[0].bias.data.flags.writeable = False  # e.g. an mmap view
        model.freeze().train()
        assert not model[0].bias.data.flags.writeable
        assert model[0].weight.data.flags.writeable

    def test_refreeze_then_train_unlocks_everything(self):
        model = self._model().freeze().freeze().train()
        assert all(array.flags.writeable for array in _arrays(model))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_frozen_copy_stays_locked(self, clone):
        model = clone(self._model().freeze())
        assert model[0].frozen
        assert not any(array.flags.writeable for array in _arrays(model))
        model.train()
        assert all(array.flags.writeable for array in _arrays(model))


class TestFrozenLinear:
    def test_frozen_output_matches_unfrozen(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        layer.bias.data[:] = 0.25
        x = np.random.default_rng(1).normal(size=(7, 5))
        reference = layer.eval()(x)
        assert layer.freeze()(x).tobytes() == reference.tobytes()

    def test_reassigned_weight_is_not_served_stale(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0)).freeze()
        x = np.random.default_rng(1).normal(size=(2, 5))
        layer(x)
        layer.weight.data = layer.weight.data * 2.0  # a loader reassigns
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(x), expected, rtol=1e-12)
        assert not layer.weight.data.flags.writeable  # relocked
