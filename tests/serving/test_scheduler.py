"""BatchScheduler: deadline-forced flushes and EWMA batch adaptation."""

import pytest

from repro.serving import BatchScheduler, InferenceEngine, MetricsRegistry, StreamHub
from repro.serving import request_order


class FakeClock:
    """Deterministic monotonic clock for scheduler/engine tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def bound(max_batch: int = 64, **kwargs) -> BatchScheduler:
    """A scheduler carrying the batch cap an engine would hand it."""
    scheduler = BatchScheduler(**kwargs)
    scheduler.bind(max_batch)
    return scheduler


class TestValidation:
    def test_negative_slo_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler(slo_ms=-1.0)

    def test_cap_comes_from_the_engine(self, fitted):
        with pytest.raises(RuntimeError):
            BatchScheduler().batch_limit
        scheduler = BatchScheduler(slo_ms=None)
        engine = InferenceEngine(fitted, max_batch_size=12, scheduler=scheduler)
        assert scheduler.batch_limit == engine.batch_limit == 12

    def test_bad_alpha_and_safety_rejected(self):
        with pytest.raises(ValueError):
            BatchScheduler(safety=1.5)


class TestFlushPolicy:
    def test_empty_queue_never_flushes(self):
        scheduler = bound(slo_ms=50.0)
        assert not scheduler.should_flush(0, slack_s=-1.0)

    def test_depth_trigger(self):
        scheduler = bound(4, slo_ms=None)
        assert not scheduler.should_flush(3)
        assert scheduler.should_flush(4)
        assert scheduler.stats.depth_flushes == 1

    def test_deadline_trigger_before_model_is_fitted(self):
        """With no latency observations, flush exactly when the budget
        (plus the scheduling margin) runs out."""
        scheduler = bound(8, slo_ms=50.0, margin_ms=0.0)
        assert not scheduler.should_flush(2, slack_s=0.010)
        assert scheduler.should_flush(2, slack_s=0.0)
        assert scheduler.stats.deadline_flushes == 1

    def test_deadline_trigger_accounts_for_predicted_latency(self):
        """Flush early enough that *executing* the batch still meets the
        deadline: slack <= predicted(depth) + margin."""
        scheduler = bound(64, slo_ms=50.0, margin_ms=0.0)
        scheduler.observe_batch(4, 0.010)  # 2.5 ms / sample
        assert scheduler.predicted_latency_s(3) == pytest.approx(0.0075)
        assert scheduler.should_flush(3, slack_s=0.007)
        assert not scheduler.should_flush(3, slack_s=0.010)

    def test_no_slo_and_no_deadline_means_depth_only(self):
        scheduler = bound(16, slo_ms=None)
        assert not scheduler.should_flush(15, slack_s=None)


class TestAdaptation:
    def test_limit_tracks_observed_per_sample_latency(self):
        scheduler = bound(64, slo_ms=100.0, safety=0.8)
        scheduler.observe_batch(10, 0.020)  # 2 ms/sample -> 80 ms budget / 2
        assert scheduler.batch_limit == 40
        for _ in range(50):  # latency doubles: the limit halves
            scheduler.observe_batch(10, 0.040)
        assert scheduler.batch_limit == 20

    def test_limit_clamps_to_bounds(self):
        scheduler = bound(8, slo_ms=10.0, safety=0.8)
        scheduler.observe_batch(4, 0.200)  # 50 ms/sample: budget fits 0
        assert scheduler.batch_limit == 1
        scheduler = bound(8, slo_ms=1000.0, safety=0.8)
        scheduler.observe_batch(4, 0.001)
        assert scheduler.batch_limit == 8

    def test_unfitted_model_allows_max_batch(self):
        scheduler = bound(24, slo_ms=50.0)
        assert scheduler.batch_limit == 24
        assert scheduler.predicted_latency_s(10) == 0.0

    def test_regression_separates_overhead_from_per_sample(self):
        """Varied batch sizes let the model see the fixed overhead, so
        the limit is not throttled by it (overhead 10 ms + 1 ms/sample:
        amortised-only would cap near budget/2.5ms)."""
        scheduler = bound(64, slo_ms=100.0, safety=0.8)
        for _ in range(40):
            scheduler.observe_batch(10, 0.020)
            scheduler.observe_batch(20, 0.030)
        overhead, per_sample = scheduler._model()
        assert per_sample == pytest.approx(0.001, rel=0.05)
        assert overhead == pytest.approx(0.010, rel=0.10)
        assert scheduler.batch_limit == 64  # (80 - 10) / 1 -> clamped

    def test_constant_batch_sizes_do_not_death_spiral(self):
        """With near-constant batch sizes the slope is noise; the
        amortised fallback must keep the limit at a stable fixed point
        instead of ratcheting down to batches of one."""
        scheduler = bound(64, slo_ms=100.0, safety=0.8)
        # Overhead-heavy truth: exec(B) = 40 ms + 1 ms * B.
        limit_history = []
        batch = 32
        for _ in range(30):
            scheduler.observe_batch(batch, 0.040 + 0.001 * batch)
            batch = scheduler.batch_limit
            limit_history.append(batch)
        assert limit_history[-1] >= 30  # equilibrium exec(B) ~= budget
        assert min(limit_history) > 1

    def test_queue_p95(self):
        scheduler = BatchScheduler(slo_ms=50.0)
        assert scheduler.queue_p95_ms is None
        for ms in range(1, 101):  # 1..100 ms
            scheduler.record_queue_latency(ms / 1e3)
        assert scheduler.queue_p95_ms == pytest.approx(95.0)

    def test_snapshot_keys(self):
        scheduler = bound(slo_ms=50.0)
        scheduler.observe_batch(4, 0.010)
        snap = scheduler.snapshot()
        assert snap["slo_ms"] == 50.0
        assert snap["observed_batches"] == 1
        assert snap["batch_limit"] == scheduler.batch_limit
        assert snap["margin_ms"] == pytest.approx(2.0)


class TestRequestOrder:
    def test_priority_then_deadline_then_arrival(self):
        entries = [
            ("batch-early", request_order(2, None, 0.0)),
            ("premium-late", request_order(0, 5.0, 9.0)),
            ("premium-early", request_order(0, 1.0, 8.0)),
            ("standard", request_order(1, 2.0, 1.0)),
            ("premium-no-deadline", request_order(0, None, 0.5)),
        ]
        ordered = [name for name, key in sorted(entries, key=lambda e: e[1])]
        assert ordered == [
            "premium-early",
            "premium-late",
            "premium-no-deadline",
            "standard",
            "batch-early",
        ]


class TestEngineIntegration:
    def test_poll_deadline_forces_flush(self, fitted, toy_data):
        """A lone queued request is released when its SLO budget runs
        out — the unbounded-wait gap this scheduler exists to close."""
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(
            slo_ms=50.0, margin_ms=0.0, clock=clock
        )
        engine = InferenceEngine(fitted, max_batch_size=16, scheduler=scheduler)
        ticket = engine.submit(x[0])
        clock.advance(0.040)
        assert engine.poll() == [] and not ticket.done
        clock.advance(0.011)  # past the 50 ms budget
        flushed = engine.poll()
        assert ticket.done and flushed == [ticket]
        assert scheduler.stats.deadline_flushes == 1

    def test_per_request_deadline_beats_global_slo(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(
            slo_ms=500.0, margin_ms=0.0, clock=clock
        )
        engine = InferenceEngine(fitted, max_batch_size=16, scheduler=scheduler)
        urgent = engine.submit(x[0], deadline_ms=10.0)
        clock.advance(0.011)
        engine.poll()
        assert urgent.done  # its own 10 ms budget won, not the 500 ms SLO

    def test_submit_autoflushes_at_adaptive_limit(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(slo_ms=100.0, clock=clock)
        engine = InferenceEngine(fitted, max_batch_size=32, scheduler=scheduler)
        # Teach the model 20 ms/sample: 80 ms budget -> limit 4.
        scheduler.observe_batch(4, 0.080)
        assert engine.batch_limit == 4
        tickets = [engine.submit(sample) for sample in x[:4]]
        assert all(ticket.done for ticket in tickets)  # 4th submit flushed
        assert scheduler.stats.depth_flushes == 1

    def test_engine_without_scheduler_honours_explicit_deadline(
        self, fitted, toy_data
    ):
        x, _, _ = toy_data
        clock = FakeClock()
        engine = InferenceEngine(fitted, max_batch_size=16, clock=clock)
        ticket = engine.submit(x[0], deadline_ms=20.0)
        assert ticket.arrival == 0.0 and ticket.deadline == pytest.approx(0.020)
        assert engine.poll() == []
        clock.advance(0.021)
        engine.poll()
        assert ticket.done

    def test_full_batch_on_default_scheduler_is_a_depth_flush(self, fitted, toy_data):
        """An engine built without a scheduler owns one, and a release at
        its ``max_batch_size`` cap is counted as exactly one depth flush."""
        x, _, _ = toy_data
        engine = InferenceEngine(fitted, max_batch_size=4, metrics=MetricsRegistry())
        assert engine.scheduler.slo_ms is None and engine.batch_limit == 4
        tickets = [engine.submit(sample) for sample in x[:4]]
        assert all(ticket.done for ticket in tickets)  # 4th submit flushed
        snap = engine.scheduler.snapshot()
        assert snap["depth_flushes"] == 1
        assert snap["deadline_flushes"] == snap["idle_flushes"] == 0

    def test_hub_without_slo_flushes_every_round(self, fitted, toy_data):
        """The hub flushes each round unless its engine's scheduler has
        an SLO, in which case it polls and lets spans accumulate."""
        x, _, _ = toy_data
        plain = StreamHub(fitted)
        ticket = plain.engine.submit(x[0])
        plain.push_round({})
        assert ticket.done
        slo = StreamHub(fitted, slo_ms=10_000.0)
        ticket = slo.engine.submit(x[0])
        slo.push_round({})
        assert not ticket.done
        slo.flush_pending()
        assert ticket.done

    def test_queue_latency_recorded_from_arrival(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = FakeClock()
        scheduler = BatchScheduler(slo_ms=50.0, clock=clock)
        engine = InferenceEngine(fitted, max_batch_size=16, scheduler=scheduler)
        engine.submit(x[0], arrival=clock.t - 0.030)  # span closed 30 ms ago
        engine.flush()
        assert scheduler.queue_p95_ms == pytest.approx(30.0)
