"""Observability: metrics registry, Prometheus exposition, trace lifecycle.

Four layers under test:

* the metric primitives (counter/gauge/histogram families, labelled
  children, kind/label mismatch detection, disabled-registry no-ops);
* text-exposition conformance — HELP/TYPE lines, label escaping,
  cumulative bucket monotonicity with ``le="+Inf"`` == ``_count``, and
  the content-type header over a real HTTP GET against
  :class:`MetricsServer`;
* per-ticket trace lifecycles: every completed ticket ends in exactly
  one terminal (``delivered`` / ``shed`` / ``error``) across the
  inline, thread, and process backends — including hedged batches and
  crash-redispatched batches, the two paths where one request runs
  twice — plus ring-overflow drop accounting and the JSONL sink;
* the gateway TRACE frame end-to-end, and the RC004/RC007 regression:
  the real serving tree must scan clean (the one sanctioned wall-clock
  read carries its suppression).
"""

from __future__ import annotations

import json
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serving import InferenceEngine, ProcessPoolBackend, ThreadPoolBackend
from repro.serving.observability import (
    CONTENT_TYPE,
    MetricsRegistry,
    MetricsServer,
    TraceLog,
    Tracer,
    parse_text,
    render_text,
)

from .conftest import GateBackend, ManualClock

REPO_ROOT = Path(__file__).resolve().parents[2]


def sample(parsed, name, **labels):
    return parsed.get((name, tuple(sorted(labels.items()))))


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_counts_and_rejects_decrement(self):
        m = MetricsRegistry()
        c = m.counter("repro_test_total", "help", ("tenant",))
        c.labels("a").inc()
        c.labels("a").inc(2)
        c.labels(tenant="b").inc()
        assert m.get_sample("repro_test_total", {"tenant": "a"}) == 3.0
        assert m.get_sample("repro_test_total", {"tenant": "b"}) == 1.0
        with pytest.raises(ValueError):
            c.labels("a").inc(-1)

    def test_gauge_set_inc_dec(self):
        m = MetricsRegistry()
        g = m.gauge("repro_depth", "help")
        g.set(4)
        g.inc()
        g.dec(2)
        assert m.get_sample("repro_depth") == 3.0

    def test_histogram_cumulative_buckets(self):
        m = MetricsRegistry()
        h = m.histogram("repro_lat_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        counts, total, count = h.labels().snapshot()
        assert counts == [1, 2, 3]  # cumulative, final == count
        assert count == 3
        assert total == pytest.approx(5.55)

    def test_get_or_create_is_idempotent_and_typed(self):
        m = MetricsRegistry()
        a = m.counter("repro_x_total", "help")
        assert m.counter("repro_x_total", "ignored") is a
        with pytest.raises(ValueError):
            m.gauge("repro_x_total", "kind clash")
        with pytest.raises(ValueError):
            m.counter("repro_x_total", "label clash", ("tenant",))

    def test_disabled_registry_is_inert(self):
        m = MetricsRegistry(enabled=False)
        c = m.counter("repro_off_total", "help", ("tenant",))
        c.labels("a").inc()
        m.histogram("repro_off_seconds", "help").observe(1.0)
        m.register_collector(lambda: 1 / 0)  # never runs
        assert render_text(m) == ""
        assert m.get_sample("repro_off_total", {"tenant": "a"}) is None

    def test_collector_runs_at_scrape_and_errors_are_counted(self):
        m = MetricsRegistry()
        g = m.gauge("repro_snap", "help")
        m.register_collector(lambda: g.set(7))
        m.register_collector(lambda: 1 / 0)
        assert m.get_sample("repro_snap") == 7.0
        assert m.collector_errors >= 1
        assert m.get_sample("repro_metrics_collector_errors") >= 1.0


# ----------------------------------------------------------------------
# Text exposition + /metrics endpoint
# ----------------------------------------------------------------------
class TestExposition:
    def test_help_and_type_lines(self):
        m = MetricsRegistry()
        m.counter("repro_a_total", "What a counts.").inc()
        m.gauge("repro_b", "What b is.").set(1)
        m.histogram("repro_c_seconds", "What c measures.", buckets=(1.0,)).observe(0.5)
        text = render_text(m)
        assert "# HELP repro_a_total What a counts.\n" in text
        assert "# TYPE repro_a_total counter\n" in text
        assert "# TYPE repro_b gauge\n" in text
        assert "# TYPE repro_c_seconds histogram\n" in text
        # Families render name-sorted, samples parse back exactly.
        parsed = parse_text(text)
        assert sample(parsed, "repro_a_total") == 1.0
        assert sample(parsed, "repro_c_seconds_count") == 1.0

    def test_label_escaping_round_trips(self):
        m = MetricsRegistry()
        hostile = 'quote " backslash \\ newline \n done'
        m.counter("repro_esc_total", "h", ("tenant",)).labels(hostile).inc()
        parsed = parse_text(render_text(m))
        assert sample(parsed, "repro_esc_total", tenant=hostile) == 1.0

    def test_bucket_monotonicity_and_inf_equals_count(self):
        m = MetricsRegistry()
        h = m.histogram(
            "repro_hist_seconds", "h", ("slo_class",), buckets=(0.01, 0.1, 1.0)
        )
        rng = np.random.default_rng(0)
        for value in rng.uniform(0.001, 2.0, size=50):
            h.labels("premium").observe(float(value))
        parsed = parse_text(render_text(m))
        bounds = ["0.01", "0.1", "1", "+Inf"]
        counts = [
            sample(parsed, "repro_hist_seconds_bucket", slo_class="premium", le=le)
            for le in bounds
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == 50.0
        assert sample(parsed, "repro_hist_seconds_count", slo_class="premium") == 50.0

    def test_metrics_server_serves_exposition_over_http(self):
        m = MetricsRegistry()
        m.counter("repro_http_total", "h").inc(3)
        with MetricsServer(0, registry=m) as server:
            base = f"http://127.0.0.1:{server.port}"
            assert server.url == base + "/metrics"
            with urllib.request.urlopen(server.url) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            assert sample(parse_text(body), "repro_http_total") == 3.0
            with urllib.request.urlopen(base + "/healthz") as response:
                assert response.status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(base + "/nope")
            assert excinfo.value.code == 404
        server.close()  # idempotent


# ----------------------------------------------------------------------
# Trace lifecycle: exactly one terminal per ticket, on every backend
# ----------------------------------------------------------------------
def traced_engine(fitted, *, backend=None, metrics=None, **kwargs):
    metrics = metrics if metrics is not None else MetricsRegistry()
    tracer = Tracer(capacity=256, metrics=metrics)
    engine = InferenceEngine(
        fitted, backend=backend, metrics=metrics, tracer=tracer, **kwargs
    )
    return engine, tracer, metrics


class TestTraceLifecycle:
    def test_delivered_trace_marks_every_stage(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, tracer, _ = traced_engine(fitted)
        engine.submit(x[0])
        engine.flush()
        (record,) = tracer.drain()
        assert record["terminal"] == "delivered"
        assert record["batch_size"] == 1
        assert record["model_version"] == engine.model_version
        assert record["queue_wait_ms"] >= 0.0
        assert record["exec_ms"] >= 0.0
        assert record["total_ms"] >= record["exec_ms"]
        assert not record["retried"] and not record["hedged"]

    @pytest.mark.parametrize("backend_cls", [ThreadPoolBackend, ProcessPoolBackend])
    def test_one_terminal_per_ticket_on_pooled_backends(
        self, fitted, toy_data, backend_cls
    ):
        x, _, _ = toy_data
        with backend_cls(workers=2) as backend:
            engine, tracer, _ = traced_engine(fitted, backend=backend)
            for i in range(6):
                engine.submit(x[i % len(x)])
            engine.flush()
            engine.drain()
        records = tracer.drain()
        assert len(records) == 6
        assert all(r["terminal"] == "delivered" for r in records)

    def test_crash_redispatch_yields_one_retried_terminal(self, fitted, toy_data):
        """A SIGKILLed worker's batch is redispatched exactly once; its
        ticket's trace must show one `delivered` terminal with
        retried=True — never two terminals."""
        x, _, _ = toy_data
        metrics = MetricsRegistry()
        with ProcessPoolBackend(
            workers=2, heartbeat_ms=50.0, max_respawns=2, metrics=metrics
        ) as backend:
            engine, tracer, _ = traced_engine(
                fitted, backend=backend, metrics=metrics
            )
            engine.predict_many(x[:2])  # warm both workers
            tracer.drain()  # discard the warm-up traces
            assert backend.inject_fault("die_in_task") is not None
            engine.submit(x[0])
            engine.flush(raise_on_error=False)
            (record,) = tracer.drain()
            assert record["terminal"] == "delivered"
            assert record["retried"] is True
            assert record["worker"] is not None
            assert metrics.get_sample("repro_backend_crashes_total",
                                      {"backend": "process"}) == 1.0
            assert metrics.get_sample("repro_engine_retried_batches_total",
                                      {"backend": "process"}) == 1.0

    def test_crash_past_budget_yields_one_error_terminal(self, fitted, toy_data):
        x, _, _ = toy_data
        with ProcessPoolBackend(
            workers=1, heartbeat_ms=50.0, max_respawns=0
        ) as backend:
            engine, tracer, _ = traced_engine(fitted, backend=backend)
            engine.predict_many(x[:1])
            tracer.drain()  # discard the warm-up trace
            backend.inject_fault("die_in_task")
            engine.submit(x[0], on_error=lambda _e: None)
            engine.flush(raise_on_error=False)
            (record,) = tracer.drain()
            assert record["terminal"] == "error"
            assert record["code"] == "WorkerCrashError"

    def test_shed_via_discard_pending(self, fitted, toy_data):
        x, _, _ = toy_data
        engine, tracer, _ = traced_engine(fitted)
        engine.submit(x[0], defer_flush=True)
        assert engine.discard_pending(lambda _meta: True, code="disconnect") == 1
        (record,) = tracer.drain()
        assert record["terminal"] == "shed"
        assert record["code"] == "disconnect"

    def test_finish_is_exactly_once(self):
        tracer = Tracer(metrics=MetricsRegistry())
        record = tracer.begin()
        assert record.finish("delivered") is True
        assert record.finish("shed", code="late") is False
        (entry,) = tracer.drain()
        assert entry["terminal"] == "delivered"

    def test_ring_overflow_counts_drops(self):
        metrics = MetricsRegistry()
        tracer = Tracer(capacity=4, metrics=metrics)
        for _ in range(10):
            tracer.begin().finish("delivered")
        assert tracer.buffered == 4
        assert tracer.dropped == 6
        assert metrics.get_sample("repro_trace_buffer_dropped_total") == 6.0
        assert metrics.get_sample("repro_traces_total",
                                  {"terminal": "delivered"}) == 10.0
        assert len(tracer.drain()) == 4
        assert tracer.buffered == 0

    def test_trace_log_writes_jsonl(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        log = TraceLog(str(path))
        tracer = Tracer(metrics=MetricsRegistry(), sink=log)
        tracer.begin(tenant="edge-1").finish("delivered")
        tracer.begin(tenant="edge-2").finish("shed", code="disconnect")
        log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["tenant"] for line in lines] == ["edge-1", "edge-2"]
        assert [line["terminal"] for line in lines] == ["delivered", "shed"]
        assert log.written == 2


# ----------------------------------------------------------------------
# Hedging: one request runs twice, one terminal comes out
# ----------------------------------------------------------------------
class TestHedgedTraces:
    def test_hedged_ticket_single_terminal(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = ManualClock()
        backend = GateBackend()
        metrics = MetricsRegistry()
        tracer = Tracer(capacity=64, clock=clock, metrics=metrics)
        engine = InferenceEngine(
            fitted,
            backend=backend,
            clock=clock,
            hedge_ms=50.0,
            metrics=metrics,
            tracer=tracer,
        )
        engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        clock.advance(0.1)  # past the hedge threshold
        engine.poll()  # places the hedge
        assert engine.stats.hedged_batches == 1
        backend.release_at(1)  # hedge lands first
        engine.poll()
        backend.release_all()  # loser lands later: must not re-terminate
        engine.poll()
        (record,) = tracer.drain()
        assert record["terminal"] == "delivered"
        assert record["hedged"] is True
        assert record["hedge_win"] is True
        assert metrics.get_sample("repro_engine_hedge_wins_total",
                                  {"backend": "gate"}) == 1.0

    def test_primary_win_clears_hedge_flag_correctly(self, fitted, toy_data):
        x, _, _ = toy_data
        clock = ManualClock()
        backend = GateBackend()
        tracer = Tracer(capacity=64, clock=clock, metrics=MetricsRegistry())
        engine = InferenceEngine(
            fitted, backend=backend, clock=clock, hedge_ms=50.0,
            metrics=MetricsRegistry(), tracer=tracer,
        )
        engine.submit(x[0], defer_flush=True)
        engine.dispatch()
        clock.advance(0.1)
        engine.poll()
        backend.release_at(0)  # primary lands first
        engine.poll()
        backend.release_all()
        engine.poll()
        (record,) = tracer.drain()
        assert record["terminal"] == "delivered"
        assert record["hedged"] is True
        assert record["hedge_win"] is False


# ----------------------------------------------------------------------
# Gateway TRACE frame + serving-wide instrumentation, end to end
# ----------------------------------------------------------------------
class TestGatewayTraces:
    def test_trace_frame_drains_lifecycles(self, fitted, toy_data):
        from repro.serving.gateway.client import GatewayClient
        from repro.serving.gateway.server import BackgroundGateway, GatewayServer

        x, _, _ = toy_data
        metrics = MetricsRegistry()
        tracer = Tracer(capacity=64, metrics=metrics)
        server = GatewayServer(fitted, metrics=metrics, tracer=tracer)
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="edge-1") as client:
                for i in range(5):
                    client.classify(x[i % len(x)])
                reply = client.traces()
        assert reply["enabled"] is True
        assert reply["dropped"] == 0
        delivered = [t for t in reply["traces"] if t["terminal"] == "delivered"]
        assert len(delivered) == 5
        for record in delivered:
            assert record["tenant"] == "edge-1"
            assert record["slo_class"] == "standard"
            assert record["admission_wait_ms"] is not None
            assert record["total_ms"] >= 0.0
        # Scrape agrees with the gateway's own stats, counter for counter.
        parsed = parse_text(render_text(metrics))
        assert sample(parsed, "repro_gateway_results_total",
                      tenant="edge-1", slo_class="standard") == 5.0
        assert sample(parsed, "repro_gateway_request_latency_seconds_count",
                      slo_class="standard") == 5.0
        assert sample(parsed, "repro_traces_total", terminal="delivered") == 5.0

    def test_malformed_trace_limit_gets_error_frame_not_eof(self, fitted, toy_data):
        """Regression: a non-int TRACE ``limit`` used to raise out of the
        frame loop and drop the connection with no ERROR frame."""
        from repro.serving.gateway.client import GatewayClient
        from repro.serving.gateway.protocol import Frame, FrameType
        from repro.serving.gateway.server import BackgroundGateway, GatewayServer

        x, _, _ = toy_data
        metrics = MetricsRegistry()
        server = GatewayServer(fitted, metrics=metrics, tracer=Tracer(metrics=metrics))
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="edge-1") as client:
                for limit in ("abc", -1, True, 2.5):
                    client._send(Frame(FrameType.TRACE, {"limit": limit}))
                    reply = client._read()
                    assert reply.kind is FrameType.ERROR
                    assert reply.meta["code"] == "bad_trace"
                client.classify(x[0])  # the connection is still open
                assert len(client.traces(limit=5)["traces"]) == 1
                assert client.stats()["gateway"]["protocol_errors"] == 4
        assert metrics.get_sample("repro_gateway_protocol_errors_total") == 4.0

    def test_trace_frame_without_tracer_reports_disabled(self, fitted, toy_data):
        from repro.serving.gateway.client import GatewayClient
        from repro.serving.gateway.server import BackgroundGateway, GatewayServer

        server = GatewayServer(fitted, metrics=MetricsRegistry())
        with BackgroundGateway(server) as (host, port):
            with GatewayClient(host, port, tenant="edge-1") as client:
                reply = client.traces()
        assert reply == {
            "traces": [], "dropped": 0, "buffered": 0, "enabled": False,
        }


# ----------------------------------------------------------------------
# RC004 / RC007 regression: the real serving tree scans clean
# ----------------------------------------------------------------------
class TestServingTreeIsClean:
    def scan_serving(self, rule_id):
        from repro.analysis.checks import run_checks
        from repro.analysis.rules import RULES_BY_ID

        serving = REPO_ROOT / "src" / "repro" / "serving"
        paths = [str(p) for p in sorted(serving.rglob("*.py"))]
        findings, scanned = run_checks(
            paths, root=str(REPO_ROOT), rules=[RULES_BY_ID[rule_id]]
        )
        assert scanned == len(paths) > 0
        return findings

    def test_no_wall_clock_in_serving_latency_paths(self):
        """RC004: the only wall-clock read is tracing's ``wall_start``,
        which carries the suppression comment — everything else is
        monotonic, so latency math survives NTP steps."""
        assert self.scan_serving("RC004") == []
        source = (
            REPO_ROOT / "src/repro/serving/observability/tracing.py"
        ).read_text()
        assert "time.time()  # repro-check: ignore[RC004]" in source

    def test_no_adhoc_telemetry_in_serving(self):
        """RC007: no bare print(), no unbounded list-append stats."""
        assert self.scan_serving("RC007") == []

    def test_monotonic_latency_survives_wall_clock_step(self, fitted, toy_data):
        """Regression for the invariant RC004 encodes: latency math uses
        the engine clock, so a wall-clock step mid-request cannot bend a
        measured duration.  Simulated with an engine clock that ticks
        monotonically while time.time() is irrelevant to the math."""
        x, _, _ = toy_data
        engine, tracer, _ = traced_engine(fitted)
        before = time.monotonic()
        engine.submit(x[0])
        engine.flush()
        elapsed_ms = (time.monotonic() - before) * 1e3
        (record,) = tracer.drain()
        assert 0.0 <= record["total_ms"] <= elapsed_ms + 1.0
