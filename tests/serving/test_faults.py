"""Self-healing worker pool: crash, hang, respawn, and arena-GC paths.

The supervised :class:`ProcessPoolBackend` must survive worker death
without operator intervention: a SIGKILLed worker's airborne batch is
redispatched exactly once (tickets delivered exactly once, never
duplicated), a replacement is spawned against the current weight
bundle, and past the respawn budget the pool degrades to a *clean*
error instead of hanging the engine.  Fault injection
(``inject_fault``) arms a worker to die or wedge on its next batch, so
every crash here is deterministically mid-batch — no sleeps racing real
executions.

Arena GC rides the same lifecycle: a superseded weight bundle is
refcounted by airborne batches + worker attachments and deleted the
moment the count drops to zero — and not a moment earlier.
"""

import copy
import os
import signal
import time

import numpy as np
import pytest

from repro.analysis import lockwitness
from repro.serving import (
    BatchScheduler,
    InferenceEngine,
    ProcessPoolBackend,
    WorkerCrashError,
)


@pytest.fixture(autouse=True, scope="module")
def lock_order_witness():
    """Opt-in lock-order audit over the whole fault module.

    With ``REPRO_LOCK_WITNESS=1`` (the CI chaos setting) every
    ``threading.Lock``/``RLock`` created while these tests run — the
    pool's ``_lock``, the engine's and futures' conditions — is witnessed, and any acquired-while-held ordering cycle observed
    across the module fails it, even if no run actually deadlocked.
    """
    handle = lockwitness.install_if_enabled()
    try:
        yield handle
    finally:
        if handle is not None:
            handle.uninstall()
    if handle is not None:
        handle.assert_clean()


def _wait_until(predicate, timeout_s: float = 20.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class TestCrashRespawn:
    def test_sigkill_mid_batch_redispatched_once_delivered_once(
        self, fitted, toy_data
    ):
        """The armed worker SIGKILLs itself the moment the batch arrives:
        the batch is provably airborne and lost, must be redispatched to
        the healthy worker, delivered exactly once, and byte-identical
        to predict_one; the dead worker must be respawned."""
        x, _, _ = toy_data
        with ProcessPoolBackend(
            workers=2, heartbeat_ms=50.0, max_respawns=2
        ) as backend:
            engine = InferenceEngine(fitted, backend=backend)
            reference = InferenceEngine(fitted)
            engine.predict_many(x[:2])  # warm both workers / export arena
            assert backend.inject_fault("die_in_task") is not None
            deliveries = []
            ticket = engine.submit(x[0], callback=deliveries.append)
            engine.flush(raise_on_error=False)
            assert ticket.done and not ticket.cancelled
            assert len(deliveries) == 1  # exactly once, never twice
            expected = reference.predict_one(x[0])
            assert ticket.result().gesture == expected.gesture
            assert np.array_equal(
                ticket.result().gesture_probs, expected.gesture_probs
            )
            health = backend.describe()
            assert health["crashes"] == 1
            assert health["redispatches"] == 1
            assert health["respawns"] == 1
            assert health["alive_workers"] == 2  # healed back to full strength
            assert engine.stats.retried_batches == 1
            assert engine.stats.failed_batches == 0

    def test_retried_batch_excluded_from_scheduler_latency_model(
        self, fitted, toy_data
    ):
        """A crash's recovery time (detection + respawn + re-execution)
        must not poison the EWMA: the engine hands the scheduler a
        ``retried`` disposition and the model ignores the batch."""
        x, _, _ = toy_data
        scheduler = BatchScheduler(slo_ms=None)
        with ProcessPoolBackend(
            workers=2, heartbeat_ms=50.0, max_respawns=2
        ) as backend:
            engine = InferenceEngine(fitted, backend=backend, scheduler=scheduler)
            engine.predict_many(x[:2])  # one clean observation
            clean = scheduler.snapshot()["per_sample_ms"]
            assert scheduler.stats.observed_batches >= 1
            observed_before = scheduler.stats.observed_batches
            backend.inject_fault("die_in_task")
            engine.submit(x[0])
            engine.flush(raise_on_error=False)
            assert engine.stats.retried_batches == 1
            assert scheduler.stats.observed_batches == observed_before
            assert scheduler.snapshot()["per_sample_ms"] == pytest.approx(clean)

    def test_missed_heartbeat_detects_silent_worker(self, fitted, toy_data):
        """A worker that stops heartbeating (SIGSTOP: alive but silent)
        is declared dead at the miss deadline, killed, and replaced."""
        x, _, _ = toy_data
        with ProcessPoolBackend(
            workers=1, heartbeat_ms=25.0, max_respawns=2
        ) as backend:
            backend.miss_limit = 4
            engine = InferenceEngine(fitted, backend=backend)
            engine.predict_many(x[:1])  # worker warm + heartbeating
            pid = backend.describe()["worker_health"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)
            _wait_until(
                lambda: backend.describe()["respawns"] >= 1,
                what="respawn after SIGSTOP",
            )
            results = engine.predict_many(x[:2])  # replacement serves
            assert [r.gesture for r in results] == [
                InferenceEngine(fitted).predict_one(s).gesture for s in x[:2]
            ]


class TestRespawnBudget:
    def test_budget_exhaustion_degrades_to_clean_error(self, fitted, toy_data):
        """With the budget at zero, the only worker's death may not hang
        anything: the airborne ticket fails with WorkerCrashError and the
        engine stays usable (later submissions fail cleanly too)."""
        x, _, _ = toy_data
        with ProcessPoolBackend(
            workers=1, heartbeat_ms=50.0, max_respawns=0
        ) as backend:
            engine = InferenceEngine(fitted, backend=backend)
            engine.predict_many(x[:1])  # warm
            backend.inject_fault("die_in_task")
            errors = []
            doomed = engine.submit(x[0], on_error=errors.append)
            engine.flush(raise_on_error=False)
            assert doomed.done
            assert len(errors) == 1 and isinstance(errors[0], WorkerCrashError)
            assert backend.describe()["degraded"]
            # The engine survives: a further submit fails its own ticket
            # with the same clean error instead of wedging the flush.
            late_errors = []
            late = engine.submit(x[1], on_error=late_errors.append)
            engine.flush(raise_on_error=False)
            assert late.done and isinstance(late_errors[0], WorkerCrashError)
            assert engine.num_pending == 0 and engine.num_in_flight == 0


    def test_slots_shrink_with_dead_workers(self, fitted, toy_data):
        """Past the respawn budget the pool serves on the survivors and
        *says so*: slots reports live capacity, so the gateway's feed
        gate keeps overload pooling in the admission queue instead of
        inside the pool's queue behind the lone survivor."""
        x, _, _ = toy_data
        with ProcessPoolBackend(
            workers=2, heartbeat_ms=50.0, max_respawns=0
        ) as backend:
            engine = InferenceEngine(fitted, backend=backend)
            engine.predict_many(x[:2])
            assert backend.slots == 2
            backend.inject_fault("die_in_task")
            ticket = engine.submit(x[0])
            engine.flush(raise_on_error=False)
            assert ticket.done and ticket.result() is not None  # survivor served it
            assert backend.describe()["alive_workers"] == 1
            assert backend.slots == 1


class TestShutdownReaping:
    def test_close_racing_wedged_batch_leaves_no_zombies(self, fitted, toy_data):
        """close() joins under a deadline, then terminates and reaps: a
        worker wedged mid-batch cannot outlive the pool, and the
        airborne ticket fails instead of being stranded."""
        import multiprocessing

        x, _, _ = toy_data
        backend = ProcessPoolBackend(workers=1, heartbeat_ms=50.0, hang_timeout_s=120.0)
        backend.shutdown_timeout_s = 0.5
        engine = InferenceEngine(fitted, backend=backend)
        engine.predict_many(x[:1])  # warm
        backend.inject_fault("hang_in_task")
        ticket = engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        _wait_until(
            lambda: any(
                w["busy"] for w in backend.describe()["worker_health"]
            ),
            what="batch airborne on the wedged worker",
        )
        start = time.monotonic()
        backend.close()
        assert time.monotonic() - start < 10.0  # deadline, not a hang
        assert multiprocessing.active_children() == []  # reaped, no zombies
        engine.poll()  # collect the failed future
        assert ticket.done
        with pytest.raises(WorkerCrashError):
            ticket.result()


class TestArenaRefcountGC:
    def test_refcount_zero_only_after_last_airborne_batch_lands(
        self, fitted, fitted_b
    ):
        """A superseded bundle pinned by airborne batches / attached
        workers survives every release but the last; the last one
        deletes the file and bumps retired_arenas."""
        with ProcessPoolBackend(workers=1, heartbeat_ms=50.0) as backend:
            first = backend.prepare(fitted)
            with backend._lock:
                backend._retain(first)  # airborne batch
                backend._retain(first)  # worker attachment
            second = backend.prepare(fitted_b)  # hot reload supersedes
            assert second != first
            assert os.path.isdir(first)  # still pinned: not collected
            with backend._lock:
                backend._release(first)  # batch lands
            backend._delete_doomed()
            assert os.path.isdir(first)  # worker still attached
            assert backend.stats.retired_arenas == 0
            with backend._lock:
                backend._release(first)  # worker lets go: count hits zero
            backend._delete_doomed()
            assert not os.path.exists(first)
            health = backend.describe()
            assert health["retired_arenas"] == 1 and health["live_arenas"] == 1

    def test_unpinned_bundle_retires_when_superseded(self, fitted, fitted_b):
        """With the count at zero — whether it was pinned and released
        or never pinned at all — the turnover deletes the superseded
        bundle on the spot: the refs are exact, so no grace period."""
        with ProcessPoolBackend(workers=1, heartbeat_ms=50.0) as backend:
            first = backend.prepare(fitted)
            with backend._lock:
                backend._retain(first)
                backend._release(first)  # pinned, now unpinned
            second = backend.prepare(fitted_b)
            assert not os.path.exists(first)
            backend.prepare(fitted)  # never pinned: no grace either
            assert not os.path.exists(second)
            assert backend.stats.retired_arenas == 2
            assert backend.stats.arena_exports == 3

    def test_swap_back_to_pinned_system_reuses_its_bundle(
        self, fitted, fitted_b, toy_data
    ):
        """A superseded bundle that a worker still has attached keeps
        its system -> bundle mapping: swapping back re-uses it instead
        of exporting the same weights again."""
        x, _, _ = toy_data
        with ProcessPoolBackend(workers=1, heartbeat_ms=50.0) as backend:
            engine = InferenceEngine(fitted, backend=backend)
            first = backend.prepare(fitted)
            engine.predict_many(x[:1])  # the worker attaches `first`
            engine.swap_system(fitted_b)
            assert os.path.isdir(first)
            engine.swap_system(fitted)
            assert backend.prepare(fitted) == first
            assert backend.stats.arena_exports == 2
            assert backend.stats.retired_arenas == 1  # fitted_b's: never pinned

    def test_worker_pool_keeps_hot_reload_arena_count_bounded(
        self, fitted, fitted_b, toy_data
    ):
        """End to end: a process pool hot-swapping repeatedly (a new
        system object per reload, as a checkpoint reload yields)
        retires superseded bundles (files actually unlinked) and holds
        the live-arena count bounded."""
        x, _, _ = toy_data
        with ProcessPoolBackend(workers=1, heartbeat_ms=50.0) as backend:
            engine = InferenceEngine(fitted, backend=backend)
            engine.predict_many(x[:1])
            for swap in range(5):
                reloaded = copy.deepcopy(fitted_b if swap % 2 == 0 else fitted)
                engine.swap_system(reloaded)
                engine.predict_many(x[:1])
            health = backend.describe()
            assert health["arena_exports"] == 6
            assert health["retired_arenas"] >= 3  # GC actually ran
            assert health["live_arenas"] <= 3  # bounded, not one per swap
            # Fidelity after the churn: still byte-identical to the
            # system live after the final swap (swap 4 -> fitted_b).
            result = engine.predict_many(x[:1])[0]
            expected = InferenceEngine(fitted_b).predict_one(x[0])
            assert np.array_equal(result.user_probs, expected.user_probs)

    def test_redispatch_after_three_swaps_attaches_its_own_bundle(
        self, fitted, toy_data
    ):
        """The only worker wedges on a batch; three hot reloads follow
        while it hangs.  The hang deadline moves the batch to a
        respawned worker, which must still find the bundle the batch
        was submitted against: its airborne pin keeps it on disk."""
        x, _, _ = toy_data
        with ProcessPoolBackend(
            workers=1, heartbeat_ms=50.0, hang_timeout_s=0.5, max_respawns=2
        ) as backend:
            backend.shutdown_timeout_s = 0.5
            backend.submit(fitted, x[:2]).result(timeout=60)  # spawn + attach
            assert backend.inject_fault("hang_in_task") is not None
            future = backend.submit(fitted, x[:2])
            _wait_until(
                lambda: backend.describe()["worker_health"][0]["busy"],
                what="batch airborne on the wedged worker",
            )
            for _ in range(3):
                backend.prepare(copy.deepcopy(fitted))
            result, _ = future.result(timeout=60)
            expected = fitted.predict(x[:2])
            assert np.array_equal(result.gesture_probs, expected.gesture_probs)
            assert np.array_equal(result.user_probs, expected.user_probs)
            assert backend.describe()["redispatches"] == 1


class TestHealthSurfacing:
    def test_gateway_snapshot_carries_worker_health_and_retries(self, fitted):
        from repro.serving import GatewayServer

        server = GatewayServer(fitted)
        snapshot = server.snapshot()
        assert "retried_batches" in snapshot["engine"]
        assert snapshot["engine"]["backend"]["name"] == "inline"

    def test_describe_reports_per_worker_health(self, fitted, toy_data):
        x, _, _ = toy_data
        with ProcessPoolBackend(workers=2, heartbeat_ms=50.0) as backend:
            engine = InferenceEngine(fitted, backend=backend)
            engine.predict_many(x[:2])
            health = backend.describe()
            assert health["alive_workers"] == 2
            assert len(health["worker_health"]) == 2
            for row in health["worker_health"]:
                assert row["alive"] and not row["busy"]
                assert isinstance(row["pid"], int)
            assert health["respawns"] == 0 and not health["degraded"]
