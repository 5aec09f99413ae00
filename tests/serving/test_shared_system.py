"""One frozen system shared by every worker thread.

``ThreadPoolBackend`` predicts on the system object it was handed, with
no per-thread copies: this is safe because a frozen forward writes
nothing on its modules (``tests/core/test_frozen_writes_nothing.py``).
These tests drive the sharing itself: concurrent predicts and a hot
swap must deliver exactly the bytes of ``predict_one``.
"""

import copy
import sys
import threading

import pytest

from repro.serving import InferenceEngine, ThreadPoolBackend

THREADS = 4


@pytest.fixture(scope="module")
def frozen(fitted):
    return copy.deepcopy(fitted).freeze()


@pytest.fixture(scope="module")
def frozen_b(fitted_b):
    return copy.deepcopy(fitted_b).freeze()


def _assert_row_matches(result, reference):
    assert result.gesture_probs.tobytes() == reference.gesture_probs.tobytes()
    assert result.user_probs.tobytes() == reference.user_probs.tobytes()


def test_threads_predicting_on_one_frozen_system_match_predict_one(frozen, toy_data):
    x, _, _ = toy_data
    reference = InferenceEngine(frozen)
    expected = [reference.predict_one(sample) for sample in x]
    barrier = threading.Barrier(THREADS)
    mismatches: list[tuple[int, int]] = []
    errors: list[Exception] = []

    def worker(index: int) -> None:
        try:
            barrier.wait(timeout=60.0)
            for round_ in range(40):
                # Threads cycle through batch sizes and offsets on different
                # strides, so concurrent forwards mostly differ in shape.
                size = 1 + (index * 7 + round_ * 3) % 16
                start = (index * 5 + round_ * 11) % (len(x) - size)
                result = frozen.predict(x[start : start + size])
                for row in range(size):
                    want = expected[start + row]
                    if (
                        result.gesture_probs[row].tobytes() != want.gesture_probs.tobytes()
                        or result.user_probs[row].tobytes() != want.user_probs.tobytes()
                    ):
                        mismatches.append((index, start + row))
        except Exception as error:  # surfaced on the main thread
            errors.append(error)

    # Switch threads as often as the interpreter allows, so a forward
    # that wrote shared state would be interleaved with another's.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not mismatches


def test_pool_serves_the_handed_system_across_a_swap(frozen, frozen_b, toy_data):
    x, _, _ = toy_data
    samples = x[:12]
    with ThreadPoolBackend(workers=THREADS) as backend:
        engine = InferenceEngine(frozen, max_batch_size=3, backend=backend)
        for version, system in ((0, frozen), (1, frozen_b)):
            if version:
                assert engine.swap_system(system) == 1
            reference = InferenceEngine(system)
            results = engine.predict_many(samples)
            for sample, result in zip(samples, results):
                assert result.model_version == version
                _assert_row_matches(result, reference.predict_one(sample))
        engine.close()


def test_prepare_switches_training_models_to_eval(fitted):
    system = copy.deepcopy(fitted)
    system.gesture_model.train()
    with ThreadPoolBackend(workers=1) as backend:
        backend.prepare(system)
    assert not any(model.training for model in system.models())
