"""Execution backends: byte-identity, airborne-batch semantics, arenas.

The serving guarantee extends across execution boundaries: a sample
classified through a thread replica or a spawned worker attached to an
mmap'd weight arena produces bit-for-bit the posteriors of
``predict_one``.  The airborne tests use a hand-released gate backend so
the dispatch/collect split is exercised deterministically: swaps and
discards racing an in-flight batch must neither mix weights nor deliver
to the dead.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.persistence import export_flat, load_system_flat
from repro.serving import (
    InferenceEngine,
    InlineBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    create_backend,
)

from .conftest import GateBackend


def _assert_same_result(a, b):
    assert a.gesture == b.gesture
    assert a.user == b.user
    assert np.array_equal(a.gesture_probs, b.gesture_probs)
    assert np.array_equal(a.user_probs, b.user_probs)


@pytest.fixture(scope="module")
def thread_backend():
    with ThreadPoolBackend(workers=2) as backend:
        yield backend


@pytest.fixture(scope="module")
def process_backend():
    # Spawned workers import numpy + repro; share one pool module-wide.
    with ProcessPoolBackend(workers=2) as backend:
        yield backend


class TestByteIdentity:
    """All three backends match predict_one bit-for-bit."""

    def _check(self, fitted, backend, x):
        reference = InferenceEngine(fitted)
        engine = InferenceEngine(fitted, backend=backend)
        for sample, result in zip(x[:6], engine.predict_many(x[:6])):
            _assert_same_result(result, reference.predict_one(sample))

    def test_inline(self, fitted, toy_data):
        x, _, _ = toy_data
        self._check(fitted, InlineBackend(), x)

    def test_thread_pool(self, fitted, toy_data, thread_backend):
        x, _, _ = toy_data
        self._check(fitted, thread_backend, x)

    def test_process_pool_mmap(self, fitted, toy_data, process_backend):
        x, _, _ = toy_data
        self._check(fitted, process_backend, x)

    def test_process_bundle_reused_per_system(self, fitted, fitted_b, process_backend):
        first = process_backend.prepare(fitted)
        assert process_backend.prepare(fitted) == first  # no re-export
        assert process_backend.prepare(fitted_b) != first


def test_describe_carries_name_slots_and_precision(thread_backend, process_backend):
    for backend in (InlineBackend(), thread_backend, process_backend):
        described = backend.describe()
        assert described["name"] == backend.name
        assert described["slots"] == backend.slots
        assert described["precision"] == backend.precision


class TestPoolErrorRouting:
    def test_poison_batch_fails_only_its_tickets(self, fitted, toy_data, thread_backend):
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, backend=thread_backend)
        good = engine.submit(x[0])
        bad = engine.submit(np.zeros((0, x.shape[2])))
        with pytest.raises(Exception):
            engine.flush()
        assert good.done and good.result() is not None
        assert bad.done
        with pytest.raises(Exception):
            bad.result()
        assert engine.stats.failed_batches == 1

    def test_closed_pool_fails_tickets_not_submit(self, fitted, toy_data):
        x, _, _ = toy_data
        backend = ThreadPoolBackend(workers=1)
        backend.close()
        engine = InferenceEngine(fitted, backend=backend)
        errors = []
        ticket = engine.submit(x[0], on_error=errors.append)
        engine.flush(raise_on_error=False)
        assert ticket.done and len(errors) == 1
        with pytest.raises(Exception):
            ticket.result()


class TestAirborneBatches:
    """dispatch/collect with batches in flight: the satellite races."""

    def test_flush_blocks_until_airborne_lands(self, fitted, toy_data):
        x, _, _ = toy_data
        gate = GateBackend()
        engine = InferenceEngine(fitted, backend=gate)
        ticket = engine.submit(x[0])
        assert engine.dispatch() == 1
        assert engine.num_in_flight == 1 and not ticket.done
        timer = threading.Timer(0.05, gate.release)
        timer.start()
        completed = engine.flush()
        timer.join()
        assert ticket in completed and ticket.done
        assert engine.num_in_flight == 0

    def test_poll_collects_landed_batches(self, fitted, toy_data):
        x, _, _ = toy_data
        gate = GateBackend()
        engine = InferenceEngine(fitted, backend=gate)
        ticket = engine.submit(x[0], deadline_ms=0.0, defer_flush=True)
        assert engine.poll() == []  # dispatched (stale deadline), airborne
        assert engine.num_in_flight == 1
        gate.release()
        delivered = engine.poll()
        assert delivered == [ticket] and ticket.done

    def test_swap_racing_airborne_batch_keeps_old_weights(
        self, fitted, fitted_b, toy_data
    ):
        """Airborne tickets finish on the weights and model_version they
        were dispatched with; the swap never waits for them."""
        x, _, _ = toy_data
        gate = GateBackend()
        engine = InferenceEngine(fitted, backend=gate)
        airborne = engine.submit(x[0])
        engine.dispatch()
        version = engine.swap_system(fitted_b)  # does not block on the batch
        assert version == 1 and not airborne.done
        late = engine.submit(x[0])
        engine.dispatch()
        gate.release()
        engine.drain()
        old = airborne.result()
        assert old.model_version == 0
        assert np.array_equal(old.gesture_probs, fitted.predict(x[0:1]).gesture_probs[0])
        new = late.result()
        assert new.model_version == 1
        assert np.array_equal(
            new.user_probs, fitted_b.predict(x[0:1]).user_probs[0]
        )

    def test_discard_racing_airborne_batch_suppresses_delivery(
        self, fitted, toy_data
    ):
        """A tenant discarded while its batch is airborne never gets a
        late delivery — no callback, no result, ticket cancelled."""
        x, _, _ = toy_data
        gate = GateBackend()
        engine = InferenceEngine(fitted, backend=gate)
        seen = []
        doomed = engine.submit(x[0], meta="dead-tenant", callback=seen.append)
        survivor = engine.submit(x[1], meta="live-tenant", callback=seen.append)
        engine.dispatch()
        assert engine.num_in_flight == 1  # same shape: one batch, both rows
        assert engine.discard_pending(lambda meta: meta == "dead-tenant") == 1
        gate.release()
        delivered = engine.drain()
        assert delivered == [survivor] and survivor.done
        assert doomed.cancelled and not doomed.done
        assert len(seen) == 1  # only the survivor's callback fired
        with pytest.raises(RuntimeError):
            doomed.result()

    def test_discard_all_after_dispatch_cancels_airborne(self, fitted, toy_data):
        x, _, _ = toy_data
        gate = GateBackend()
        engine = InferenceEngine(fitted, backend=gate)
        queued = engine.submit(x[0])
        engine.dispatch()
        airborne_then_queued = engine.submit(x[1])
        assert engine.discard_pending() == 2
        assert queued.cancelled and airborne_then_queued.cancelled
        gate.release()
        assert engine.drain() == []

    def test_scheduler_observes_executor_queueing(self, fitted, toy_data):
        """The latency fed to the scheduler is submit-to-landing, so the
        gate's hold time (executor queueing) is part of the model."""
        from repro.serving import BatchScheduler

        x, _, _ = toy_data
        clock = [0.0]
        scheduler = BatchScheduler(slo_ms=None, clock=lambda: clock[0])
        gate = GateBackend()
        engine = InferenceEngine(fitted, backend=gate, scheduler=scheduler)
        engine.submit(x[0])
        engine.dispatch()
        clock[0] += 0.5  # half a second airborne
        gate.release()
        engine.drain()
        snap = scheduler.snapshot()
        assert snap["per_sample_ms"] >= 400.0  # queueing included
        assert snap["executor_wait_ms"] is not None


class TestUrgentSubmission:
    def test_default_submit_urgent_delegates(self, fitted, toy_data):
        x, _, _ = toy_data
        backend = InlineBackend()
        urgent, _ = backend.submit_urgent(fitted, x[:1]).result()
        plain, _ = backend.submit(fitted, x[:1]).result()
        assert np.array_equal(urgent.gesture_probs, plain.gesture_probs)
        assert np.array_equal(urgent.user_probs, plain.user_probs)

    def test_process_pool_urgent_jumps_queue(self, fitted, toy_data):
        """A hedge races a flight that already outlived the tail
        threshold; FIFO behind the backlog would forfeit the race, so
        urgent submissions join the *front* of the pool queue."""
        x, _, _ = toy_data
        backend = ProcessPoolBackend(
            workers=1,
            heartbeat_ms=50.0,
            hang_timeout_s=30.0,  # the wedge must outlive the test
        )
        backend.shutdown_timeout_s = 0.5
        try:
            backend.submit(fitted, x[:1]).result(timeout=60)  # spawn+attach
            backend.inject_fault("hang_in_task")
            backend.submit(fitted, x[:1])  # wedges the only worker
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:  # wait until it's airborne
                with backend._lock:
                    if not backend._queue:
                        break
                time.sleep(0.005)
            queued_a = backend.submit(fitted, x[:1])
            queued_b = backend.submit(fitted, x[:1])
            urgent = backend.submit_urgent(fitted, x[:1])
            with backend._lock:
                order = [task.future for task in backend._queue]
            assert order[0] is urgent
            assert order.index(queued_a) < order.index(queued_b)
        finally:
            backend.close()


class TestLifecycle:
    def test_close_settles_pending_tickets(self, fitted, toy_data):
        """close() must not strand queued requests: no ticket is ever
        dropped, shutdown included."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, backend=ThreadPoolBackend(workers=1))
        ticket = engine.submit(x[0], defer_flush=True)
        engine.close()
        assert ticket.done and ticket.result() is not None

    def test_gateway_rejects_backend_with_external_engine(self, fitted):
        from repro.serving import GatewayServer

        engine = InferenceEngine(fitted)
        with pytest.raises(ValueError, match="backend"):
            GatewayServer(engine=engine, backend=InlineBackend())


class TestFactoryAndPoolArenas:
    def test_create_backend_spellings(self):
        assert create_backend("inline").name == "inline"
        with create_backend("thread", workers=3) as backend:
            assert backend.name == "thread" and backend.slots == 3
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("gpu")
        with pytest.raises(ValueError, match="workers"):
            create_backend("thread", workers=0)

    def test_pool_hands_out_cached_arenas(self, fitted, fitted_b, toy_data):
        import copy
        import os

        x, _, _ = toy_data
        with ProcessPoolBackend(workers=1, heartbeat_ms=50.0) as backend:
            first = backend.prepare(fitted)
            assert backend.prepare(fitted) == first  # cached
            assert backend.stats.arena_exports == 1
            backend.submit(fitted, x[:1]).result(timeout=60)  # worker attaches it
            # A new system (a hot reload): fresh export; the old bundle
            # survives while the worker still has it attached.
            second = backend.prepare(fitted_b)
            assert second != first
            assert backend.stats.arena_exports == 2
            assert os.path.isdir(first)
            backend.submit(fitted_b, x[:1]).result(timeout=60)
            # A further reload pushes the oldest bundle out of the
            # worker's two-bundle cache, and it is deleted: hot reloading
            # forever must not accumulate weight copies on disk.
            reloaded = copy.deepcopy(fitted)
            third = backend.prepare(reloaded)
            backend.submit(reloaded, x[:1]).result(timeout=60)
            assert third not in (first, second)
            deadline = time.monotonic() + 10.0  # deleted off the pool lock
            while os.path.exists(first) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not os.path.exists(first)
            assert os.path.isdir(second)
            assert backend.stats.retired_arenas == 1

    def test_pool_arena_attaches_byte_identical(
        self, fitted, toy_data, process_backend
    ):
        x, _, _ = toy_data
        bundle = process_backend.prepare(fitted)
        clone = load_system_flat(bundle)
        a, b = fitted.predict(x[:4]), clone.predict(x[:4])
        assert np.array_equal(a.gesture_probs, b.gesture_probs)
        assert np.array_equal(a.user_probs, b.user_probs)

    def test_flat_bundle_round_trip(self, fitted, toy_data, tmp_path):
        x, _, _ = toy_data
        export_flat(fitted, tmp_path / "bundle")
        clone = load_system_flat(tmp_path / "bundle")
        a, b = fitted.predict(x[:4]), clone.predict(x[:4])
        assert np.array_equal(a.gesture_probs, b.gesture_probs)
        assert np.array_equal(a.user_probs, b.user_probs)

    def test_flat_bundle_rejects_truncated_arena(self, fitted, tmp_path):
        bundle = export_flat(fitted, tmp_path / "bundle")
        arena = bundle / "weights.arena"
        arena.write_bytes(arena.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_system_flat(bundle)
