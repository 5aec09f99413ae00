"""Request hedging: first result wins, exactly-once delivery, EWMA hygiene.

A hedge is a *verbatim duplicate* of an airborne batch on a second
backend slot, placed only after the primary outlives the hedge
threshold.  The invariants under test:

* the duplicate is a real second submission of the same batch (same
  system, same rows), placed only past the threshold and at most once;
* whichever copy lands first delivers every ticket exactly once — the
  loser is cancelled, and a loser that was already running never
  re-delivers when it eventually lands;
* a disconnected tenant (``discard_pending``) receives nothing from
  either copy;
* hedged batches are invisible to the scheduler's latency model: no
  EWMA update, no p95-window samples — so neither the adaptive batch
  limit nor the reported p95 is priced by duplicated (or
  recovery-priced) wall times;
* a wedged primary (one that never lands) is out-raced by its hedge;
  over a real process pool, a worker wedged by
  ``inject_fault("hang_in_task")`` costs no ticket and delivers none
  twice.

The deterministic tests drive a hand-released gate backend with a
manual clock, so hedge timing is exact and no test sleeps.
"""

import numpy as np
import pytest

from repro.serving import BatchScheduler, InferenceEngine, MetricsRegistry, ProcessPoolBackend

from .conftest import GateBackend, ManualClock

HEDGE_MS = 50.0


def _engine(fitted, *, scheduler=None, hedge_ms=HEDGE_MS):
    clock = ManualClock()
    backend = GateBackend()
    engine = InferenceEngine(
        fitted,
        max_batch_size=8,
        scheduler=scheduler,
        backend=backend,
        clock=clock,
        hedge_ms=hedge_ms,
    )
    return engine, backend, clock


class TestHedgePlacement:
    def test_no_hedge_before_threshold(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 * 0.5)
        engine.poll()
        assert len(backend.held) == 1  # primary only
        assert engine.stats.hedged_batches == 0

    def test_hedge_is_verbatim_duplicate_placed_once(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        engine.submit(x[0], defer_flush=True)
        engine.submit(x[1], defer_flush=True)
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        assert len(backend.held) == 2
        assert engine.stats.hedged_batches == 1
        assert engine.num_airborne == 2  # one flight, two live submissions
        (_, sys_a, batch_a), (_, sys_b, batch_b) = backend.held
        assert sys_a is sys_b is fitted
        assert np.array_equal(batch_a, batch_b)
        # Already hedged: more polls past the threshold add nothing.
        clock.advance(1.0)
        engine.poll()
        assert engine.stats.hedged_batches == 1
        assert len(backend.held) == 2

    def test_hedge_budget_spares_one_slot(self, fitted, toy_data):
        """slots-1 hedges max: a pool-wide stall must not be amplified."""
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        for i in range(4):  # four distinct shapes -> four single-row batches
            engine.submit(x[i][: 4 + i], defer_flush=True)
        engine.dispatch()
        assert len(backend.held) == 4
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        assert engine.stats.hedged_batches == 3  # budget = slots - 1
        assert len(backend.held) == 7

    def test_disabled_and_validation(self, fitted):
        engine = InferenceEngine(fitted)
        assert not engine.hedging
        with pytest.raises(ValueError):
            InferenceEngine(fitted, hedge_ms=0.0)
        with pytest.raises(ValueError):
            InferenceEngine(fitted, hedge_ms="soon")

    def test_auto_hedges_on_an_engine_without_slo(self, fitted, toy_data):
        """Every engine owns a scheduler, so ``"auto"`` needs no SLO:
        after one observed batch it hedges a batch that outlives it."""
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted, hedge_ms="auto")
        assert engine.scheduler.slo_ms is None and engine.hedging
        engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        clock.advance(0.005)
        backend.release_all()
        engine.poll()
        threshold = engine.scheduler.hedge_threshold_s(1)
        assert threshold is not None and threshold <= 0.020
        engine.submit(x[1], defer_flush=True)
        engine.dispatch()
        clock.advance(0.050)
        engine.poll()
        assert engine.stats.hedged_batches == 1
        assert len(backend.held) == 2


class TestFirstResultWins:
    def test_hedge_wins_and_primary_never_redelivers(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        deliveries: list = []
        tickets = [
            engine.submit(x[i], callback=deliveries.append, defer_flush=True)
            for i in range(3)
        ]
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        assert len(backend.held) == 2
        backend.release_at(1)  # the hedge lands first
        engine.poll()
        assert [t.done for t in tickets] == [True, True, True]
        assert len(deliveries) == 3
        assert engine.stats.hedge_wins == 1
        # The losing primary was cancelled pending; releasing the gate's
        # remainder runs nothing and re-delivers nothing.
        assert backend.held[0][0].cancelled()
        backend.release_all()
        engine.poll()
        assert len(deliveries) == 3

    def test_primary_wins_and_hedge_is_cancelled(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        deliveries: list = []
        ticket = engine.submit(x[0], callback=deliveries.append, defer_flush=True)
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        backend.release_at(0)  # the primary lands first
        engine.poll()
        assert ticket.done and len(deliveries) == 1
        assert engine.stats.hedged_batches == 1
        assert engine.stats.hedge_wins == 0
        assert backend.held[0][0].cancelled()  # the losing hedge
        backend.release_all()
        engine.poll()
        assert len(deliveries) == 1

    def test_winner_matches_unhedged_result(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        ticket = engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        backend.release_at(1)
        engine.poll()
        reference = InferenceEngine(fitted).predict_one(x[0])
        assert ticket.result().gesture == reference.gesture
        assert np.array_equal(ticket.result().gesture_probs, reference.gesture_probs)


class TestDisconnectedTenant:
    def test_no_delivery_from_either_copy_after_discard(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        deliveries: list = []
        errors: list = []
        ticket = engine.submit(
            x[0],
            meta="tenant-7",
            callback=deliveries.append,
            on_error=errors.append,
            defer_flush=True,
        )
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        assert len(backend.held) == 2  # hedge airborne too
        assert engine.discard_pending(lambda meta: meta == "tenant-7") == 1
        backend.release_all()  # both copies land after the disconnect
        engine.poll()
        assert ticket.cancelled
        assert deliveries == [] and errors == []
        assert engine.num_in_flight == 0


class TestSchedulerHygiene:
    def test_hedged_batch_excluded_from_ewma_and_window(self, fitted, toy_data):
        x, _, _ = toy_data
        scheduler = BatchScheduler(slo_ms=50.0)
        engine, backend, clock = _engine(fitted, scheduler=scheduler)
        engine._clock = clock  # the scheduler's clock would win otherwise
        # A clean batch first: the model must have real observations.
        engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        backend.release_all()
        engine.poll()
        observed = scheduler.stats.observed_batches
        window_len = len(scheduler.stats.queue_window)
        assert observed == 1 and window_len == 1
        # Now a hedged batch of three.
        for i in range(3):
            engine.submit(x[1 + i], defer_flush=True)
        engine.dispatch()
        clock.advance(HEDGE_MS / 1e3 + 1e-3)
        engine.poll()
        backend.release_at(1)
        engine.poll()
        assert engine.stats.hedge_wins == 1
        assert engine.stats.hedged_batches == 1
        assert scheduler.stats.observed_batches == observed  # no EWMA update
        assert len(scheduler.stats.queue_window) == window_len  # no samples
        assert scheduler.stats.excluded_latency_samples == 3

    def test_auto_threshold_tracks_flight_clock_not_arrival_clock(self):
        """The threshold is compared against a *flight age* (dispatch to
        now), so its p95 must come from batch wall times: the
        arrival-based queue window double-counts pre-dispatch assembly
        wait and would hedge far too late under deadline-held batches."""
        scheduler = BatchScheduler(slo_ms=500.0)
        for _ in range(40):
            # Flights land in 20 ms...
            scheduler.observe_batch(4, 0.020, service_s=0.018)
            # ...but every request waited ~130 ms in assembly first.
            scheduler.record_queue_latency(0.150)
        assert len(scheduler.stats.wall_window) == 40
        assert max(scheduler.stats.wall_window) <= 0.020 + 1e-9
        threshold = scheduler.hedge_threshold_s(4)
        # Wall-clock p95 / 2x-predicted floor, nowhere near the 150 ms
        # arrival latencies the old queue-window statistic would give.
        assert threshold is not None and threshold < 0.100

    def test_excluded_batches_stay_out_of_wall_window(self):
        scheduler = BatchScheduler(slo_ms=500.0)
        scheduler.observe_batch(4, 0.020)
        scheduler.observe_batch(4, 5.0, retried=True)
        scheduler.observe_batch(4, 5.0, hedged=True)
        # Crash recovery and straggler races price the fault, not the
        # backend: neither may fatten the tail the hedge trigger sees.
        assert list(scheduler.stats.wall_window) == [0.020]

    def test_auto_threshold_needs_observations(self, fitted, toy_data):
        x, _, _ = toy_data
        scheduler = BatchScheduler(slo_ms=50.0)
        engine, backend, clock = _engine(
            fitted, scheduler=scheduler, hedge_ms="auto"
        )
        engine._clock = clock
        assert engine.hedging
        assert scheduler.hedge_threshold_s(1) is None  # unfitted: never hedge
        engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        clock.advance(10.0)
        engine.poll()
        assert engine.stats.hedged_batches == 0  # no model, no hedging
        backend.release_all()
        engine.poll()
        threshold = scheduler.hedge_threshold_s(1)
        assert threshold is not None and threshold > 0.0


class TestHungPrimary:
    def test_hedge_outraces_wedged_primary(self, fitted, toy_data):
        """A primary on a wedged slot never lands: the hedge placed past
        the threshold delivers once, byte-equal to ``predict_one``, and
        the wedged copy delivers nothing when it finally lands."""
        x, _, _ = toy_data
        engine, backend, clock = _engine(fitted)
        deliveries: list = []
        ticket = engine.submit(x[2], callback=deliveries.append, defer_flush=True)
        engine.dispatch()
        for _ in range(3):  # wedged, but still inside the threshold
            clock.advance(HEDGE_MS / 1e3 / 4)
            engine.poll()
        assert engine.stats.hedged_batches == 0 and not ticket.done
        clock.advance(HEDGE_MS / 1e3 / 4 + 1e-3)
        engine.poll()
        assert engine.stats.hedged_batches == 1
        backend.release_at(1)  # the healthy slot lands the hedge
        engine.poll()
        assert ticket.done and len(deliveries) == 1
        assert engine.stats.hedge_wins == 1
        reference = InferenceEngine(fitted).predict_one(x[2])
        assert np.array_equal(ticket.result().gesture_probs, reference.gesture_probs)
        assert np.array_equal(ticket.result().user_probs, reference.user_probs)
        backend.release_all()  # the wedge clears: cancelled, runs nothing
        engine.poll()
        assert len(deliveries) == 1 and engine.num_in_flight == 0


class TestProcessPoolHang:
    def test_hedge_outraces_hung_worker(self, fitted, toy_data):
        """Real processes: ``hang_in_task`` arms a worker, and the ticket
        is delivered exactly once and byte-equal whichever worker its
        primary lands on (the race itself is :class:`TestHungPrimary`)."""
        x, _, _ = toy_data
        backend = ProcessPoolBackend(
            workers=2,
            heartbeat_ms=50.0,
            hang_timeout_s=30.0,  # hang detection must not win this race
        )
        backend.shutdown_timeout_s = 0.5
        try:
            # Spawn + attach on the backend itself, before any engine can
            # hedge: both workers are idle again once these land.
            for future in [backend.submit(fitted, x[:2]) for _ in range(backend.slots)]:
                future.result(timeout=60)
            engine = InferenceEngine(
                fitted, backend=backend, hedge_ms=200.0, metrics=MetricsRegistry()
            )
            assert backend.inject_fault("hang_in_task") is not None
            deliveries: list = []
            ticket = engine.submit(x[2], callback=deliveries.append)
            engine.flush(raise_on_error=False)
            assert ticket.done and len(deliveries) == 1
            reference = InferenceEngine(fitted).predict_one(x[2])
            assert np.array_equal(ticket.result().gesture_probs, reference.gesture_probs)
            assert np.array_equal(ticket.result().user_probs, reference.user_probs)
        finally:
            backend.close()
