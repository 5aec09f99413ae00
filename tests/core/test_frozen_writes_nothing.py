"""A frozen forward writes nothing: predicting leaves every module as it was.

This is the mechanical check of the contract that lets one frozen system
serve every thread of a ``ThreadPoolBackend`` (see
``docs/concurrency-invariants.md``): after ``predict`` each module's
``vars()`` has the same keys bound to the very same objects.
"""

import copy

import pytest

from repro.core import IdentificationMode
from repro.nn.module import Module
from repro.serving.precision import apply_precision
from tests.core.test_shared_geometry import _dataset, _fit


def _modules(module: Module):
    yield module
    for child in module._children():
        yield from _modules(child)


def _snapshot(system) -> list[tuple[object, dict]]:
    owners = [system, *(m for model in system.models() for m in _modules(model))]
    return [(owner, dict(vars(owner))) for owner in owners]


@pytest.fixture(scope="module", params=["serialized", "parallel"])
def system(request):
    return _fit(IdentificationMode(request.param))


@pytest.mark.parametrize("precision", ["float64", "float32", "int8"])
def test_frozen_predict_leaves_every_module_untouched(system, precision):
    frozen = apply_precision(system, precision)
    assert all(model.frozen for model in frozen.models())
    before = _snapshot(frozen)
    x, _, _ = _dataset(n_per_cell=4, seed=7)
    for rows in (1, 5, len(x)):
        frozen.predict(x[:rows])
    for model in frozen.models():
        model.features(x[:3])
    for owner, state in before:
        after = vars(owner)
        assert after.keys() == state.keys(), type(owner).__name__
        changed = [name for name, value in state.items() if after[name] is not value]
        assert not changed, f"{type(owner).__name__} rebound {changed}"


def test_unfrozen_forward_still_caches_for_backward(system):
    model = copy.deepcopy(system).gesture_model.train().eval()
    x, _, _ = _dataset(n_per_cell=1, seed=7)
    model(x)
    assert model.fusion1._cache["native"].shape[0] == len(x)
    assert model.head1[0]._input.shape[0] == len(x)
    assert model.sa1.mlps[0].blocks[2]._mask.shape[0] == len(x)
