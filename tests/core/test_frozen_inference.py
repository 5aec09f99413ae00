"""Serving a frozen system: weights locked read-only, inference caches built once.

``GesturePrint.freeze`` (via ``Module.freeze``) folds every ``SharedMLP``'s
batch-norm and copies every ``Linear``'s ``W^T`` once.  The frozen path
must predict exactly what the unfrozen eval path predicts, an in-place
write must raise instead of being served stale, and a loader that
*reassigns* weights must get a rebuilt cache.
"""

import copy

import numpy as np
import pytest

from repro.core import IdentificationMode
from repro.core.persistence import export_flat, load_system, load_system_flat, save_system
from repro.core.trainer import TrainConfig, train_classifier
from repro.serving.precision import apply_precision
from repro.serving.registry import ModelRegistry
from tests.core.test_shared_geometry import _dataset, _fit

PRECISIONS = ("float64", "float32", "int8")


def _unfrozen(system):
    """A copy of ``system`` on the rebuild-every-forward eval path."""
    clone = copy.deepcopy(system)
    for model in clone.models():
        model.train().eval()
    return clone


def _assert_same_bytes(a, b):
    assert a.gesture_probs.tobytes() == b.gesture_probs.tobytes()
    assert a.user_probs.tobytes() == b.user_probs.tobytes()


@pytest.fixture(scope="module", params=["serialized", "parallel"])
def system(request):
    return _fit(IdentificationMode(request.param))


@pytest.fixture(scope="module")
def probe():
    x, _, _ = _dataset(n_per_cell=6, seed=5)
    return x


class TestFrozenMatchesUnfrozen:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_posteriors_byte_identical(self, system, probe, precision):
        frozen = apply_precision(system, precision)
        assert all(model.frozen for model in frozen.models())
        unfrozen = _unfrozen(frozen)
        assert not any(model.frozen for model in unfrozen.models())
        _assert_same_bytes(frozen.predict(probe), unfrozen.predict(probe))

    @pytest.mark.parametrize("precision", ["float32", "int8"])
    def test_precision_of_frozen_equals_precision_of_unfrozen(self, system, probe, precision):
        # _convert_module reassigns param.data: a fold cached from the
        # float64 arrays must be rebuilt, not served.
        frozen_source = copy.deepcopy(system).freeze()
        from_frozen = apply_precision(frozen_source, precision)
        from_unfrozen = apply_precision(_unfrozen(system), precision)
        _assert_same_bytes(from_frozen.predict(probe), from_unfrozen.predict(probe))

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("rows", [1, 8, 33])
    def test_batched_equals_per_row(self, system, probe, precision, rows):
        frozen = apply_precision(system, precision)
        x = probe[:rows]
        batched = frozen.predict(x)
        for i in range(rows):
            single = frozen.predict(x[i : i + 1])
            assert single.gesture_probs.tobytes() == batched.gesture_probs[i : i + 1].tobytes()
            assert single.user_probs.tobytes() == batched.user_probs[i : i + 1].tobytes()


class TestFreezeContract:
    def test_in_place_write_to_frozen_parameter_raises(self, system):
        frozen = copy.deepcopy(system).freeze()
        for model in frozen.models():
            for param in model.parameters():
                with pytest.raises(ValueError, match="read-only"):
                    param.data[...] = 0.0

    def test_train_step_then_freeze_serves_new_weights(self, system, probe):
        x, g, _ = _dataset(seed=6)
        frozen = copy.deepcopy(system).freeze()
        before = frozen.predict(probe)
        model = frozen.gesture_model
        model.train()  # unlocks, drops the caches
        train_classifier(model, x, g, config=TrainConfig(epochs=1, batch_size=12))
        model.freeze()
        after = frozen.predict(probe)
        assert not np.array_equal(after.gesture_probs, before.gesture_probs)
        _assert_same_bytes(after, _unfrozen(frozen).predict(probe))


class TestServiceEntryPoints:
    def test_load_system_returns_frozen(self, system, probe, tmp_path):
        save_system(system, tmp_path)
        loaded = load_system(tmp_path)
        assert all(model.frozen for model in loaded.models())
        _assert_same_bytes(loaded.predict(probe), system.predict(probe))

    def test_train_on_flat_system_keeps_mmap_views_read_only(self, system, probe, tmp_path):
        export_flat(system, tmp_path)
        attached = load_system_flat(tmp_path)
        assert all(model.frozen for model in attached.models())
        _assert_same_bytes(attached.predict(probe), system.predict(probe))
        for model in attached.models():
            model.train()
            assert not any(p.data.flags.writeable for p in model.parameters())
            model.eval()
        _assert_same_bytes(attached.predict(probe), system.predict(probe))

    def test_get_or_fit_freezes_a_fresh_fit(self, system):
        registry = ModelRegistry()
        served = registry.get_or_fit("fresh", lambda: copy.deepcopy(system))
        assert all(model.frozen for model in served.models())
