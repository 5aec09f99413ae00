"""GesturePrint.predict shares one set-abstraction geometry per chunk.

The reference below is the per-model path: ``predict_proba`` on the
gesture model, then on each ID model's rows, every forward computing its
own geometry.  Sharing the geometry must not move a single bit.
"""

import copy

import numpy as np
import pytest

import repro.nn.setabstraction as setabstraction
from repro.core import GesturePrint, GesturePrintConfig, IdentificationMode, TrainConfig
from repro.core.gesidnet import GesIDNetConfig
from repro.core.trainer import PREDICT_BATCH, predict_proba
from repro.nn.setabstraction import ScaleSpec
from repro.serving.precision import apply_precision

PRECISIONS = ("float64", "float32", "int8")


def _network():
    return GesIDNetConfig(
        num_points=12,
        in_feature_channels=8,
        sa1_centers=5,
        sa1_scales=(ScaleSpec(0.5, 3, (8,)), ScaleSpec(1.2, 4, (6,))),
        sa2_centers=3,
        sa2_scales=(ScaleSpec(1.0, 2, (10,)),),
        level1_mlp=(8,),
        level2_mlp=(10,),
        head1_hidden=(6,),
        dropout=0.0,
    )


def _dataset(n_per_cell=4, num_gestures=3, num_users=3, seed=0):
    rng = np.random.default_rng(seed)
    rows, gestures, users = [], [], []
    for g in range(num_gestures):
        for u in range(num_users):
            for _ in range(n_per_cell):
                x = rng.normal(size=(12, 8))
                x[:, 2] += 2.0 * g
                x[:, 0] *= 1.0 + u
                rows.append(x)
                gestures.append(g)
                users.append(u)
    return np.stack(rows), np.array(gestures), np.array(users)


def _fit(mode):
    config = GesturePrintConfig(
        network=_network(),
        training=TrainConfig(epochs=3, batch_size=12, learning_rate=3e-3),
        mode=mode,
        augment=False,
    )
    x, g, u = _dataset()
    return GesturePrint(config).fit(x, g, u)


@pytest.fixture(scope="module")
def serialized():
    return _fit(IdentificationMode.SERIALIZED)


@pytest.fixture(scope="module")
def parallel():
    return _fit(IdentificationMode.PARALLEL)


@pytest.fixture(scope="module")
def batch():
    """130 rows: two full chunks and a two-row tail."""
    x, _, _ = _dataset(n_per_cell=15, seed=1)
    return x[np.random.default_rng(2).permutation(len(x))[:130]]


def _reference(system, inputs):
    """Posteriors with every model computing its own geometry."""
    low = getattr(system, "serve_precision", None) in ("float32", "int8")
    inputs = np.asarray(inputs, dtype=np.float32 if low else np.float64)
    gesture_probs = predict_proba(system.gesture_model, inputs)
    gesture_pred = gesture_probs.argmax(axis=1)
    if system.config.mode is IdentificationMode.PARALLEL:
        return gesture_probs, predict_proba(system.parallel_user_model, inputs)
    user_probs = np.full((len(inputs), system.num_users), np.nan)
    for gesture in np.unique(gesture_pred):
        mask = gesture_pred == gesture
        model = system.user_models.get(int(gesture))
        if model is None:
            user_probs[mask] = 1.0 / system.num_users
        else:
            user_probs[mask] = predict_proba(model, inputs[mask])
    return gesture_probs, user_probs


def _assert_bit_identical(system, inputs):
    result = system.predict(inputs)
    gesture_probs, user_probs = _reference(system, inputs)
    assert result.gesture_probs.dtype == user_probs.dtype == np.float64
    assert result.gesture_probs.tobytes() == gesture_probs.tobytes()
    assert result.user_probs.tobytes() == user_probs.tobytes()
    np.testing.assert_array_equal(result.gesture_pred, gesture_probs.argmax(axis=1))
    np.testing.assert_array_equal(result.user_pred, user_probs.argmax(axis=1))
    return result


@pytest.fixture
def fps_batches(monkeypatch):
    """Batch size of every FPS and ball-query call, by operator."""
    calls = {"fps": [], "ball_query": []}

    def counting(name, fn):
        def wrapper(points, *args, **kwargs):
            calls[name].append(np.shape(points)[0])
            return fn(points, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        setabstraction,
        "farthest_point_sampling",
        counting("fps", setabstraction.farthest_point_sampling),
    )
    monkeypatch.setattr(
        setabstraction, "ball_query", counting("ball_query", setabstraction.ball_query)
    )
    return calls


class TestBitIdentical:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("mode", ["serialized", "parallel"])
    def test_predict_matches_per_model_reference(self, request, batch, mode, precision):
        system = apply_precision(request.getfixturevalue(mode), precision)
        result = _assert_bit_identical(system, batch)
        assert len(result.gesture_pred) == 130 > 2 * PREDICT_BATCH

    @pytest.mark.parametrize("rows", [1, 2, PREDICT_BATCH, PREDICT_BATCH + 1])
    def test_chunk_edges(self, serialized, batch, rows):
        _assert_bit_identical(serialized, batch[:rows])

    def test_every_id_model_is_exercised(self, serialized, batch):
        predicted = set(serialized.predict(batch).gesture_pred.tolist())
        assert len(predicted & set(serialized.user_models)) >= 2

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_gesture_without_id_model_is_uniform(self, serialized, batch, precision):
        system = apply_precision(serialized, precision)
        gesture_pred = system.predict(batch).gesture_pred
        missing = int(np.bincount(gesture_pred).argmax())
        degenerate = copy.deepcopy(system)
        del degenerate.user_models[missing]
        result = _assert_bit_identical(degenerate, batch)
        rows = result.gesture_pred == missing
        assert rows.any() and not rows.all()
        np.testing.assert_array_equal(result.user_probs[rows], 1.0 / system.num_users)


class TestGeometryComputedOncePerChunk:
    @pytest.mark.parametrize("mode", ["serialized", "parallel"])
    def test_two_fps_calls_per_chunk(self, request, batch, fps_batches, mode):
        system = request.getfixturevalue(mode)
        if mode == "serialized":
            assert len(system.user_models) == 3
        system.predict(batch)
        # SA1 on the input, SA2 on SA1's centers: once each per chunk,
        # however many ID models run.
        assert fps_batches["fps"] == [64, 64, 64, 64, 2, 2]

    def test_evaluate_builds_geometry_chunk_by_chunk(self, serialized, fps_batches):
        x, g, u = _dataset(n_per_cell=40, seed=3)
        assert len(x) > 5 * PREDICT_BATCH
        serialized.evaluate(x, g, u)
        assert fps_batches["fps"] and fps_batches["ball_query"]
        assert max(fps_batches["fps"] + fps_batches["ball_query"]) <= PREDICT_BATCH

    def test_id_forward_reuses_recognition_geometry(self, serialized, batch, fps_batches):
        chunk = batch[:PREDICT_BATCH]
        gesture_probs, geometry = serialized.recognize(chunk)
        calls_after_recognition = len(fps_batches["fps"])
        user_probs = serialized.identify(chunk, gesture_probs.argmax(axis=1), geometry)
        assert len(fps_batches["fps"]) == calls_after_recognition == 2
        assert user_probs.tobytes() == _reference(serialized, chunk)[1].tobytes()


class TestInputsUntouched:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_predict_leaves_caller_array_unchanged(self, serialized, batch, precision):
        system = apply_precision(serialized, precision)
        dtype = np.float64 if precision == "float64" else np.float32
        inputs = np.array(batch, dtype=dtype)  # the work dtype: no defensive copy
        before = inputs.copy()
        system.predict(inputs)
        assert inputs.tobytes() == before.tobytes()

    def test_mismatched_geometry_is_refused(self, serialized, batch):
        _, geometry = serialized.recognize(batch[:4])
        model = serialized.gesture_model
        with pytest.raises(ValueError):
            model(batch[:3], geometry)
        swapped = (geometry[1], geometry[0])
        with pytest.raises(ValueError):
            model(batch[:4], swapped)
