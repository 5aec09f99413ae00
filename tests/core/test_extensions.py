"""Tests for persistence, open-set verification, fine-tuning, and realtime."""

import numpy as np
import pytest

from repro.core import (
    FineTuneConfig,
    GesturePrint,
    GesturePrintConfig,
    GesturePrintRuntime,
    IdentificationMode,
    OpenSetVerifier,
    TrainConfig,
    UNKNOWN_GESTURE,
    UNKNOWN_USER,
    fine_tune_model,
    fine_tune_system,
    load_system,
    save_system,
)
from repro.core.finetune import head_parameters
from repro.core.gesidnet import GesIDNetConfig
from repro.nn.setabstraction import ScaleSpec
from repro.radar import Frame


def _tiny_network():
    return GesIDNetConfig(
        num_points=12,
        in_feature_channels=8,
        sa1_centers=4,
        sa1_scales=(ScaleSpec(0.5, 3, (8,)),),
        sa2_centers=2,
        sa2_scales=(ScaleSpec(1.0, 2, (10,)),),
        level1_mlp=(8,),
        level2_mlp=(10,),
        head1_hidden=(6,),
        dropout=0.0,
    )


def _toy_dataset(n_per_cell=8, num_gestures=2, num_users=2, seed=0):
    rng = np.random.default_rng(seed)
    rows, gestures, users = [], [], []
    for g in range(num_gestures):
        for u in range(num_users):
            for _ in range(n_per_cell):
                x = rng.normal(size=(12, 8))
                x[:, 2] += 2.0 * g
                x[:, 0] *= 1.0 + 1.5 * u
                x[:, 6] = 0.4 + 0.3 * u
                rows.append(x)
                gestures.append(g)
                users.append(u)
    return np.stack(rows), np.array(gestures), np.array(users)


@pytest.fixture(scope="module")
def fitted():
    x, g, u = _toy_dataset(n_per_cell=10)
    config = GesturePrintConfig(
        network=_tiny_network(),
        training=TrainConfig(epochs=12, batch_size=8, learning_rate=3e-3),
        augment=False,
    )
    return GesturePrint(config).fit(x, g, u), (x, g, u)


class TestPersistence:
    def test_round_trip_predictions_identical(self, fitted, tmp_path):
        system, (x, _, _) = fitted
        save_system(system, tmp_path / "model")
        restored = load_system(tmp_path / "model")
        original = system.predict(x[:6])
        loaded = restored.predict(x[:6])
        np.testing.assert_allclose(loaded.gesture_probs, original.gesture_probs)
        np.testing.assert_allclose(loaded.user_probs, original.user_probs)

    def test_restored_config_matches(self, fitted, tmp_path):
        system, _ = fitted
        save_system(system, tmp_path / "model")
        restored = load_system(tmp_path / "model")
        assert restored.config.mode is system.config.mode
        assert restored.num_gestures == system.num_gestures
        assert restored.num_users == system.num_users

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_system(GesturePrint(), tmp_path / "nope")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_system(tmp_path)

    def test_parallel_mode_round_trip(self, tmp_path):
        x, g, u = _toy_dataset(n_per_cell=8, seed=3)
        config = GesturePrintConfig(
            network=_tiny_network(),
            training=TrainConfig(epochs=6, batch_size=8),
            mode=IdentificationMode.PARALLEL,
            augment=False,
        )
        system = GesturePrint(config).fit(x, g, u)
        save_system(system, tmp_path / "par")
        restored = load_system(tmp_path / "par")
        assert restored.parallel_user_model is not None
        np.testing.assert_allclose(
            restored.predict(x[:4]).user_probs, system.predict(x[:4]).user_probs
        )


class TestOpenSet:
    def test_calibrate_and_identify(self, fitted):
        system, (x, g, u) = fitted
        verifier = OpenSetVerifier(system)
        calibration = verifier.calibrate(x, g, u, target_far=0.1)
        assert 0.0 <= calibration.user_threshold <= 1.0
        gestures, users = verifier.identify(x)
        known = users != UNKNOWN_USER
        # Most enrolled samples should be accepted and correct.
        assert known.mean() > 0.5
        assert (users[known] == u[known]).mean() > 0.6

    def test_frozen_copy_calibrates_and_identifies_identically(self, fitted, tmp_path):
        system, (x, g, u) = fitted
        save_system(system, tmp_path)
        frozen = load_system(tmp_path)
        assert all(model.frozen for model in frozen.models())
        verifiers = [OpenSetVerifier(s) for s in (system, frozen)]
        calibrations = [v.calibrate(x, g, u, target_far=0.1) for v in verifiers]
        assert calibrations[0] == calibrations[1]
        probe = np.concatenate([x[:10], np.random.default_rng(9).normal(size=(10, 12, 8)) * 5.0])
        (g0, u0), (g1, u1) = (v.identify(probe) for v in verifiers)
        np.testing.assert_array_equal(g0, g1)
        np.testing.assert_array_equal(u0, u1)

    def test_outsider_rejection(self, fitted):
        system, (x, g, u) = fitted
        verifier = OpenSetVerifier(system)
        verifier.calibrate(x, g, u, target_far=0.05)
        # Outsiders: random clouds unlike anything enrolled.
        rng = np.random.default_rng(9)
        outsiders = rng.normal(size=(30, 12, 8)) * 5.0 + 10.0
        far = verifier.false_accept_rate(outsiders)
        assert far < 0.6  # clearly below blanket acceptance

    def test_verify_claim(self, fitted):
        system, (x, g, u) = fitted
        verifier = OpenSetVerifier(system)
        verifier.calibrate(x, g, u, target_far=0.1)
        genuine_mask = u == 0
        accepts = verifier.verify(x[genuine_mask], claimed_user=0)
        rejects = verifier.verify(x[~genuine_mask], claimed_user=0)
        assert accepts.mean() > rejects.mean()

    def test_identify_before_calibrate_raises(self, fitted):
        system, (x, _, _) = fitted
        with pytest.raises(RuntimeError):
            OpenSetVerifier(system).identify(x[:2])

    def test_unknown_claim_raises(self, fitted):
        system, (x, g, u) = fitted
        verifier = OpenSetVerifier(system)
        verifier.calibrate(x, g, u)
        with pytest.raises(ValueError):
            verifier.verify(x[:2], claimed_user=99)

    def test_unknown_gesture_rejection(self, fitted):
        system, (x, g, u) = fitted
        verifier = OpenSetVerifier(system)
        verifier.calibrate(x, g, u, gesture_quantile=0.5)
        rng = np.random.default_rng(4)
        weird = rng.normal(size=(20, 12, 8)) * 8.0 - 6.0
        gestures, users = verifier.identify(weird)
        assert (gestures == UNKNOWN_GESTURE).any() or (users == UNKNOWN_USER).any()


class TestFineTune:
    def test_only_head_parameters_change(self, fitted):
        system, (x, g, u) = fitted
        model = system.gesture_model
        head_ids = {id(p) for p in head_parameters(model)}
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        fine_tune_model(model, x, g, FineTuneConfig(epochs=2, batch_size=8))
        for name, param in model.named_parameters():
            changed = not np.allclose(before[name], param.data)
            if id(param) in head_ids:
                continue  # heads may change
            assert not changed, f"backbone parameter {name} changed"

    def test_loss_history_length(self, fitted):
        system, (x, g, _) = fitted
        losses = fine_tune_model(
            system.gesture_model, x, g, FineTuneConfig(epochs=3, batch_size=8)
        )
        assert len(losses) == 3

    def test_fine_tune_system_covers_all_models(self, fitted):
        system, (x, g, u) = fitted
        histories = fine_tune_system(system, x, g, u, FineTuneConfig(epochs=1, batch_size=8))
        assert "gesture" in histories
        assert any(key.startswith("user_g") for key in histories)

    def test_adapts_to_shifted_domain(self):
        x, g, u = _toy_dataset(n_per_cell=10, seed=5)
        config = GesturePrintConfig(
            network=_tiny_network(),
            training=TrainConfig(epochs=12, batch_size=8, learning_rate=3e-3),
            augment=False,
        )
        system = GesturePrint(config).fit(x, g, u)
        # Target domain: a constant feature shift.
        shifted = x.copy()
        shifted[:, :, 1] += 1.5
        before = system.evaluate(shifted, g, u)["GRA"]
        fine_tune_system(
            system, shifted, g, u, FineTuneConfig(epochs=6, batch_size=8, learning_rate=2e-3)
        )
        after = system.evaluate(shifted, g, u)["GRA"]
        assert after >= before - 0.05

    def test_validation(self, fitted):
        system, (x, g, _) = fitted
        with pytest.raises(ValueError):
            FineTuneConfig(epochs=0)
        with pytest.raises(ValueError):
            fine_tune_model(system.gesture_model, x[:1], g[:1])


class TestRealtimeRuntime:
    def _frame(self, count, rng, spread=0.2):
        points = np.zeros((count, 5))
        points[:, :3] = rng.normal(scale=spread, size=(count, 3))
        points[:, 1] += 1.2
        return Frame(points=points)

    def test_emits_event_for_burst(self, fitted):
        system, _ = fitted
        runtime = GesturePrintRuntime(system, num_points=12)
        rng = np.random.default_rng(0)
        events = []
        counts = [1] * 12 + [15] * 20 + [1] * 25
        for count in counts:
            event = runtime.push_frame(self._frame(count, rng))
            if event:
                events.append(event)
        tail = runtime.flush()
        if tail:
            events.append(tail)
        assert len(events) == 1
        event = events[0]
        assert event.start_frame < event.end_frame
        assert 0 <= event.gesture < system.num_gestures
        assert 0 <= event.user < system.num_users
        assert 0 < event.gesture_confidence <= 1.0

    def test_no_event_on_idle_stream(self, fitted):
        system, _ = fitted
        runtime = GesturePrintRuntime(system, num_points=12)
        rng = np.random.default_rng(1)
        for _ in range(40):
            assert runtime.push_frame(self._frame(1, rng)) is None
        assert runtime.flush() is None
        assert runtime.events == []

    def test_reset_clears_state(self, fitted):
        system, _ = fitted
        runtime = GesturePrintRuntime(system, num_points=12)
        rng = np.random.default_rng(2)
        for count in [1] * 12 + [15] * 20 + [1] * 25:
            runtime.push_frame(self._frame(count, rng))
        runtime.flush()
        runtime.reset()
        assert runtime.frames_seen == 0
        assert runtime.events == []

    def test_unfitted_system_rejected(self):
        with pytest.raises(ValueError):
            GesturePrintRuntime(GesturePrint())
