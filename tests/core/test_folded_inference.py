"""Eval inference on the batch-norm-folded path.

In eval mode ``SharedMLP`` folds each batch-norm into its conv, which
moves posteriors by rounding only.  The reference here is the
block-by-block eval path (``Conv1x1`` -> ``BatchNorm`` -> ``ReLU`` called
one at a time); the precision gate must still accept float32 and int8
conversions of a folded system.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import GesturePrint, GesturePrintConfig, IdentificationMode, TrainConfig
from repro.nn.conv import SharedMLP
from repro.nn.module import Module
from repro.serving.precision import apply_precision, assert_fidelity, fidelity_report
from tests.core.test_shared_geometry import _dataset, _fit, _network


def _block_by_block(self, x):
    for conv, norm, relu in zip(self.blocks[0::3], self.blocks[1::3], self.blocks[2::3]):
        x = relu(norm(conv(x)))
    return x


@pytest.fixture(scope="module", params=["serialized", "parallel"])
def system(request):
    return _fit(IdentificationMode(request.param))


@pytest.fixture(scope="module")
def probe():
    x, _, users = _dataset(n_per_cell=8, seed=3)
    return x, users


class TestFoldFidelity:
    def test_matches_block_by_block_reference(self, system, probe, monkeypatch):
        x, _ = probe
        folded = system.predict(x)
        with monkeypatch.context() as patch:
            patch.setattr(SharedMLP, "forward", _block_by_block)
            reference = system.predict(x)
        assert np.max(np.abs(folded.gesture_probs - reference.gesture_probs)) <= 1e-12
        assert np.nanmax(np.abs(folded.user_probs - reference.user_probs)) <= 1e-12
        np.testing.assert_array_equal(folded.gesture_pred, reference.gesture_pred)
        np.testing.assert_array_equal(folded.user_pred, reference.user_pred)

    @pytest.mark.parametrize("rows", [1, 7, 32, 65])
    def test_batched_equals_per_row(self, system, rows):
        x, _, _ = _dataset(n_per_cell=8, seed=4)
        x = x[np.random.default_rng(rows).permutation(len(x))[:rows]]
        batched = system.predict(x)
        for i in range(rows):
            single = system.predict(x[i : i + 1])
            assert single.gesture_probs.tobytes() == batched.gesture_probs[i : i + 1].tobytes()
            assert single.user_probs.tobytes() == batched.user_probs[i : i + 1].tobytes()

    @pytest.mark.parametrize("precision", ["float32", "int8"])
    def test_precision_gate_passes(self, system, probe, precision):
        x, users = probe
        report = fidelity_report(
            system, apply_precision(system, precision), x, user_labels=users
        )
        assert_fidelity(report)
        if precision == "float32":
            assert report.gesture_agreement == report.user_agreement == 1.0


class TestEvalMode:
    @pytest.fixture(scope="class")
    def dropout_system(self):
        config = GesturePrintConfig(
            network=dataclasses.replace(_network(), dropout=0.5),
            training=TrainConfig(epochs=3, batch_size=12, learning_rate=3e-3),
            augment=False,
        )
        x, g, u = _dataset()
        return GesturePrint(config).fit(x, g, u)

    def _models(self, system):
        return [system.gesture_model, *system.user_models.values()]

    def test_model_left_in_train_mode_predicts_in_eval(self, dropout_system, probe):
        x, _ = probe
        reference = dropout_system.predict(x)
        for model in self._models(dropout_system):
            model.train()
        result = dropout_system.predict(x)
        # Dropout off and running statistics in use: the same bits.
        assert result.gesture_probs.tobytes() == reference.gesture_probs.tobytes()
        assert result.user_probs.tobytes() == reference.user_probs.tobytes()
        assert not any(model.training for model in self._models(dropout_system))

    def test_eval_mode_models_are_not_walked_again(self, dropout_system, probe, monkeypatch):
        x, _ = probe
        dropout_system.predict(x)
        calls = []
        original = Module.eval

        def counting(self):
            calls.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(Module, "eval", counting)
        dropout_system.predict(x)
        assert calls == []
