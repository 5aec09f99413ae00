"""Freezing drops the last training batch's backward caches.

A fitted system holds each module's last ``_input``/``_mask``/``_cache``
from training; no predict reads them, so a served (frozen) system and
every ``apply_precision`` copy of one must not carry them.
"""

import copy

import numpy as np
import pytest

from repro.core import IdentificationMode
from repro.nn.module import BACKWARD_CACHES, Module
from repro.serving import ModelRegistry
from repro.serving.precision import apply_precision
from tests.core.test_shared_geometry import _dataset, _fit


def _modules(module: Module):
    yield module
    for child in module._children():
        yield from _modules(child)


def _cached(system) -> list[str]:
    return [
        f"{type(module).__name__}.{name}"
        for model in system.models()
        for module in _modules(model)
        for name in BACKWARD_CACHES
        if getattr(module, name, None) is not None
    ]


@pytest.fixture(scope="module")
def fitted():
    return _fit(IdentificationMode.SERIALIZED)


def test_training_leaves_backward_caches(fitted):
    assert _cached(fitted)  # what the tests below expect freezing to drop


def test_get_or_fit_serves_no_backward_caches(fitted):
    system = ModelRegistry().get_or_fit("k", lambda: copy.deepcopy(fitted))
    assert all(model.frozen for model in system.models())
    assert _cached(system) == []


@pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
def test_apply_precision_copies_carry_no_backward_caches(fitted, precision):
    assert _cached(apply_precision(fitted, precision)) == []


def test_train_after_freeze_runs_forward_and_backward(fitted):
    model = copy.deepcopy(fitted).freeze().gesture_model.train()
    x, _, _ = _dataset(n_per_cell=2, seed=3)
    model.zero_grad()
    primary, auxiliary = model(x)
    model.backward(np.ones_like(primary), np.ones_like(auxiliary))
    assert any(np.any(param.grad != 0) for param in model.parameters())
