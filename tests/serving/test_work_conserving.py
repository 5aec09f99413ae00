"""Work-conserving gateway batching: a free backend slot never idles.

The gateway dispatches whatever it has fed the engine the moment a
backend slot is free, and lets batches grow only while every slot is
busy.  The engine runs on a manual clock that these tests never advance,
so no deadline can ever come due: every delivery here is released by an
idle slot, never by a deadline running out.
"""

import time

import pytest

from repro.serving import BatchScheduler, InferenceEngine
from repro.serving.gateway import (
    BackgroundGateway,
    GatewayClient,
    GatewayServer,
    TenantDirectory,
)
from repro.serving.observability.metrics import MetricsRegistry

from .conftest import GateBackend, ManualClock

#: Far longer than a batch-of-1 forward pass of the toy system, far
#: shorter than the hang a deadline-driven gateway shows on a frozen clock.
RESULT_TIMEOUT_S = 10.0


class OneSlotGate(GateBackend):
    """A gate backend with a single slot: one airborne batch fills it."""

    slots = 1


def _gateway(fitted, *, backend=None, tenants=None):
    clock = ManualClock()
    metrics = MetricsRegistry()
    scheduler = BatchScheduler(slo_ms=50.0, clock=clock, metrics=metrics)
    engine = InferenceEngine(
        fitted, max_batch_size=16, scheduler=scheduler, backend=backend,
        metrics=metrics,
    )
    server = GatewayServer(engine=engine, tenants=tenants, metrics=metrics)
    return server, metrics


def _wait_for(predicate, timeout_s=RESULT_TIMEOUT_S):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class TestIdleSlotDispatch:
    def test_lone_standard_submit_delivered_on_frozen_clock(self, fitted, toy_data):
        """A 200 ms standard-class request goes out at once, not when its
        budget is nearly spent (the clock never moves, so it never is)."""
        x, _, _ = toy_data
        server, metrics = _gateway(fitted)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(
                host, port, tenant="anyone", timeout_s=RESULT_TIMEOUT_S
            ) as client:
                assert client.slo_class == "standard"
                wire = client.classify(x[0])
                assert wire.gesture >= 0
                stats = client.stats()
        assert stats["scheduler"]["idle_flushes"] == 1
        assert stats["scheduler"]["deadline_flushes"] == 0
        assert stats["scheduler"]["depth_flushes"] == 0
        assert metrics.get_sample("repro_scheduler_idle_flushes_total") == 1.0

    def test_batch_class_without_slo_delivered(self, fitted, toy_data):
        """A request with no deadline at all (batch class, none sent)
        needs no synthetic linger to get out of the engine."""
        x, _, _ = toy_data
        tenants = TenantDirectory(assignments={"bulk": "batch"})
        server, _ = _gateway(fitted, tenants=tenants)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(
                host, port, tenant="bulk", timeout_s=RESULT_TIMEOUT_S
            ) as client:
                assert client.slo_class == "batch"
                assert client.slo_ms is None
                wire = client.classify(x[1])
                assert wire.gesture >= 0
                stats = client.stats()
        assert stats["scheduler"]["idle_flushes"] == 1
        assert stats["tenants"]["bulk"]["delivered"] == 1

    def test_busy_slot_builds_one_batch(self, fitted, toy_data):
        """While the only slot is held, new SUBMITs pool in the admission
        queue; the landing that frees the slot sends them as one batch."""
        x, _, _ = toy_data
        backend = OneSlotGate()
        server, metrics = _gateway(fitted, backend=backend)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(
                host, port, tenant="anyone", timeout_s=RESULT_TIMEOUT_S
            ) as client:
                first = client.submit(x[0])
                _wait_for(lambda: len(backend.held) == 1)
                queued = [client.submit(sample) for sample in x[1:4]]
                _wait_for(lambda: len(server.admission) == 3)
                # The slot is busy: nothing more went to the backend.
                assert len(backend.held) == 1
                backend.release_at(0)
                _wait_for(lambda: len(backend.held) == 1)
                _, _, batch = backend.held[0]
                assert batch.shape[0] == 3
                backend.release_at(0)
                outcomes = client.collect_all([first, *queued])
                assert all(wire.gesture >= 0 for wire in outcomes.values())
                stats = client.stats()
        assert stats["engine"]["batches"] == 2
        assert stats["engine"]["max_batch"] == 3
        assert stats["scheduler"]["idle_flushes"] == 2
        assert stats["scheduler"]["deadline_flushes"] == 0
        assert stats["scheduler"]["depth_flushes"] == 0
        assert metrics.get_sample("repro_scheduler_idle_flushes_total") == 2.0


class TestInProcessUnchanged:
    def test_plain_poll_keeps_accumulating(self, fitted, toy_data):
        """Without ``dispatch_idle`` (the hub's poll) a free slot releases
        nothing: in-process batching still accumulates across rounds."""
        x, _, _ = toy_data
        clock = ManualClock()
        scheduler = BatchScheduler(
            slo_ms=50.0, clock=clock, metrics=MetricsRegistry()
        )
        engine = InferenceEngine(
            fitted, max_batch_size=16, scheduler=scheduler, metrics=MetricsRegistry()
        )
        engine.submit(x[0])
        assert engine.poll() == []
        assert engine.num_pending == 1
        delivered = engine.poll(dispatch_idle=True)
        assert len(delivered) == 1
        assert scheduler.stats.idle_flushes == 1

    @pytest.mark.parametrize("held", [1, 4])
    def test_dispatch_idle_waits_for_a_slot(self, fitted, toy_data, held):
        """``dispatch_idle`` releases nothing while every slot is taken."""
        x, _, _ = toy_data
        backend = GateBackend()  # four slots
        engine = InferenceEngine(
            fitted, max_batch_size=16, backend=backend, metrics=MetricsRegistry()
        )
        for i in range(held):  # distinct shapes: one airborne batch each
            engine.submit(x[i][: 4 + i], defer_flush=True)
        engine.dispatch()
        engine.submit(x[5], defer_flush=True)
        engine.poll(dispatch_idle=True)
        assert len(backend.held) == (held + 1 if held < backend.slots else held)
        assert engine.num_pending == (0 if held < backend.slots else 1)
        backend.release_all()
