"""Stats objects are the only counter store; the exporter publishes them.

Three layers under test:

* :class:`StatsExporter` semantics on a toy stats dataclass — instances
  sharing a registry add up, counts survive ``close()``, concurrent
  scrapes never double-count, counters never go backwards, tally slices
  and derived totals, and a disabled registry registers nothing;
* scrape parity over a scripted session: one router and two gateways on
  one registry (a delivery, a shed, a rate limit, a quota rejection, a
  bad token at both edges, a bad handshake and a malformed SUBMIT at
  both edges), after which every scraped counter equals its stats
  field exactly and the metric catalogue in ``docs/observability.md``
  names exactly the families the scrape emits;
* the exporter under concurrency: two threads scrape while the event
  loop serves traffic that keeps creating new label keys.
"""

from __future__ import annotations

import asyncio
import dataclasses
import re
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.serving import ModelRegistry, ProcessPoolBackend
from repro.serving.cluster import ClusterRouter
from repro.serving.gateway import (
    AsyncGatewayClient,
    GatewayError,
    GatewayServer,
    QuotaLedger,
    QuotaPolicy,
    SLOClass,
    TenantAuthenticator,
    TenantDirectory,
    hash_token,
    protocol,
)
from repro.serving.gateway.protocol import Frame, FrameType
from repro.serving.gateway.tenants import default_classes
from repro.serving.observability import MetricsRegistry, Tracer, parse_text, render_text
from repro.serving.observability.metrics import (
    _PUBLISHED,
    StatsExporter,
    counted,
    published,
    tally,
    total,
)

from .test_cluster import _partition, _wait_for
from .test_gateway import _SlowSystem

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass
class ToyStats:
    hits: int = counted("repro_toy_hits_total", "Toy hits.")
    outcomes: Counter = tally(
        ("tenant", "code"),
        published("repro_toy_outcomes_total", "Toy outcomes."),
        published("repro_toy_denied_total", "Toy denials.", code="denied"),
    )
    modes: Counter = tally(
        ("mode",), published("repro_toy_modes_total", "Toy modes."), keys=("a", "b")
    )
    denied = total("outcomes", code="denied")
    outcome_count = total("outcomes")


def scraped(metrics) -> dict:
    return parse_text(render_text(metrics))


class TestExporter:
    def test_declared_fields_publish_at_scrape_time(self):
        metrics = MetricsRegistry()
        stats = ToyStats()
        StatsExporter(metrics, stats, labels={"node": "n1"})
        stats.hits += 2
        stats.outcomes["t1", "ok"] += 3
        stats.outcomes["t1", "denied"] += 1
        stats.outcomes["t2", "denied"] += 4
        page = scraped(metrics)
        assert page[("repro_toy_hits_total", (("node", "n1"),))] == 2.0
        assert page[
            ("repro_toy_outcomes_total", (("code", "ok"), ("node", "n1"), ("tenant", "t1")))
        ] == 3.0
        # A slice drops its fixed axis and counts matching entries only.
        assert page[("repro_toy_denied_total", (("node", "n1"), ("tenant", "t2")))] == 4.0
        # Seeded keys are scraped as an explicit 0 before any event.
        assert page[("repro_toy_modes_total", (("mode", "b"), ("node", "n1")))] == 0.0
        assert stats.denied == 5 and stats.outcome_count == 8

    def test_instances_sharing_a_registry_add_up(self):
        metrics = MetricsRegistry()
        first, second = ToyStats(), ToyStats()
        StatsExporter(metrics, first)
        StatsExporter(metrics, second)
        first.hits, second.hits = 3, 4
        assert metrics.get_sample("repro_toy_hits_total") == 7.0
        second.hits += 1
        assert metrics.get_sample("repro_toy_hits_total") == 8.0

    def test_counts_survive_close(self):
        metrics = MetricsRegistry()
        stats = ToyStats()
        exporter = StatsExporter(metrics, stats)
        stats.hits = 5
        exporter.close()  # final export, then unregistered
        stats.hits = 9  # after close: no longer published
        assert metrics.get_sample("repro_toy_hits_total") == 5.0
        exporter.close()  # idempotent
        assert metrics.get_sample("repro_toy_hits_total") == 5.0

    def test_counters_never_go_backwards(self):
        metrics = MetricsRegistry()
        stats = ToyStats()
        StatsExporter(metrics, stats)
        stats.hits = 6
        assert metrics.get_sample("repro_toy_hits_total") == 6.0
        stats.hits = 2  # a stats reset must not rewind the series
        assert metrics.get_sample("repro_toy_hits_total") == 6.0

    def test_concurrent_scrapes_never_double_count(self):
        metrics = MetricsRegistry()
        stats = ToyStats()
        StatsExporter(metrics, stats)
        stop = threading.Event()

        def scrape_loop():
            while not stop.is_set():
                render_text(metrics)

        scrapers = [threading.Thread(target=scrape_loop, daemon=True) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave scrapes as finely as possible
        try:
            for thread in scrapers:
                thread.start()
            for i in range(2000):
                stats.hits += 1
                stats.outcomes[f"t{i % 7}", "ok"] += 1
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        for thread in scrapers:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        page = scraped(metrics)
        assert page[("repro_toy_hits_total", ())] == 2000.0
        outcomes = sum(
            value for (name, _), value in page.items() if name == "repro_toy_outcomes_total"
        )
        assert outcomes == 2000.0

    def test_disabled_registry_registers_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        stats = ToyStats()
        exporter = StatsExporter(metrics, stats)
        stats.hits += 1
        exporter.close()
        assert metrics._collectors == []
        assert render_text(metrics) == ""


# ----------------------------------------------------------------------
# Scrape parity over a scripted router + two-gateway session
# ----------------------------------------------------------------------
def expected_samples(sources) -> dict:
    """Every declared counter sample, summed over ``(stats, labels)``
    sources — derived from the declarations, not from the exporter."""
    samples: dict = {}
    for stats, labels in sources:
        for spec in dataclasses.fields(stats):
            axes, families = spec.metadata.get(_PUBLISHED, ((), ()))
            value = getattr(stats, spec.name)
            entries = dict(value) if axes else {(): value}
            for family in families:
                where = dict(family.where)
                for key, count in entries.items():
                    key = key if isinstance(key, tuple) else (key,)
                    row = dict(zip(axes, key))
                    if any(row[axis] != wanted for axis, wanted in where.items()):
                        continue
                    row = {axis: v for axis, v in row.items() if axis not in where}
                    row.update(labels)
                    series = (family.name, tuple(sorted(row.items())))
                    samples[series] = samples.get(series, 0) + count
    return samples


def assert_scrape_equals_stats(page, sources):
    expected = expected_samples(sources)
    names = {name for name, _ in expected}
    scraped_counters = {
        series: value for series, value in page.items() if series[0] in names
    }
    assert scraped_counters == {series: float(v) for series, v in expected.items()}


async def _raw_exchange(address, frames):
    """Send ``frames`` one by one on a fresh socket; collect one reply each."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        replies = []
        for frame in frames:
            writer.write(protocol.encode_frame(frame))
            await writer.drain()
            replies.append(await protocol.read_frame(reader))
        return replies
    finally:
        writer.close()


async def _refused(address, **kwargs) -> str:
    with pytest.raises(GatewayError) as excinfo:
        await AsyncGatewayClient.connect(*address, **kwargs)
    return excinfo.value.code


async def _outcomes(client, samples):
    futures = [client.submit_nowait(sample)[1] for sample in samples]
    await client.drain()
    return await asyncio.gather(*futures, return_exceptions=True)


def _shard_a_tenants():
    classes = default_classes()
    classes["metered"] = SLOClass("metered", priority=1, rate_per_s=0.001, burst=1.0)
    return TenantDirectory(
        classes=classes,
        assignments={"bulk": "batch", "bursty": "metered"},
        auth=TenantAuthenticator({"locked": hash_token("right")}, required=False),
        quotas={"capped": QuotaPolicy(daily_requests=1)},
    )


async def scripted_session(fitted, toy_data, metrics, *, backend=None):
    """One router and two gateways on ``metrics``.  Returns the router,
    both gateways, the ``(stats, constant labels)`` sources once all of
    them have closed, and the text of one scrape taken while serving."""
    x, _, _ = toy_data
    tracer = Tracer(capacity=4096, metrics=metrics)
    tenants = _shard_a_tenants()
    registry = ModelRegistry(metrics=metrics)
    shard_a = GatewayServer(
        _SlowSystem(fitted, delay_s=0.02),
        node_id="a",
        tenants=tenants,
        quota=QuotaLedger(tenants.quota_policy),
        tenant_registry=registry,
        queue_limit=2,
        max_batch_size=2,
        slo_ms=None,
        metrics=metrics,
        tracer=tracer,
    )
    shard_b = GatewayServer(fitted, node_id="b", backend=backend, metrics=metrics, tracer=tracer)
    shards = {"a": await shard_a.start(), "b": await shard_b.start()}
    router = ClusterRouter(
        shards,
        heartbeat_s=0.2,
        auth=TenantAuthenticator({"edge": hash_token("tok")}, required=False),
        metrics=metrics,
        tracer=tracer,
    )
    edge = await router.start()
    try:
        # A delivery, and a relayed classify failure, through the router.
        client = await AsyncGatewayClient.connect(*edge, tenant="edge", token="tok")
        try:
            assert await client.classify(x[0], deadline_ms=0.0)
            with pytest.raises(GatewayError):
                await client.classify(x[0][:, :3], deadline_ms=0.0)
        finally:
            await client.aclose()
        # A shed, a rate limit and a quota rejection at gateway a.
        bulk = await AsyncGatewayClient.connect(*shards["a"], tenant="bulk")
        try:
            outcomes = await _outcomes(bulk, [x[i % len(x)] for i in range(16)])
        finally:
            await bulk.aclose()
        assert any(getattr(o, "code", None) == "shed" for o in outcomes)
        for tenant, code in (("bursty", "rate_limited"), ("capped", "quota_exceeded")):
            client = await AsyncGatewayClient.connect(*shards["a"], tenant=tenant)
            try:
                assert await client.classify(x[1], deadline_ms=0.0)
                with pytest.raises(GatewayError) as excinfo:
                    await client.classify(x[2], deadline_ms=0.0)
                assert excinfo.value.code == code
            finally:
                await client.aclose()
        # A bad token, a bad handshake and a malformed SUBMIT at both edges.
        assert await _refused(edge, tenant="edge", token="wrong") == "auth_failed"
        assert await _refused(shards["a"], tenant="locked", token="wrong") == "auth_failed"
        hello = protocol.hello_frame(client="raw", tenant="raw")
        malformed = Frame(FrameType.SUBMIT, {"id": "x"}, b"")
        for address in (edge, shards["a"]):
            (reply,) = await _raw_exchange(address, [protocol.stats_frame()])
            assert reply.meta["code"] == "bad_handshake"
            _, reply = await _raw_exchange(address, [hello, malformed])
            assert reply.kind is FrameType.ERROR
        # A shard death and its heal (the heal loop probes it back in).
        router._declare_dead("b", reason="scripted")
        assert await _wait_for(lambda: router.stats.node_heals >= 1)
        live_page = render_text(metrics)  # gauges refresh only while serving
    finally:
        await router.aclose()
        await shard_a.aclose()
        await shard_b.aclose()
    backend_name = shard_b.engine.backend.name
    sources = [
        (router.stats, {}),
        (shard_a.stats, {}),
        (shard_b.stats, {}),
        (shard_a.engine.stats, {"backend": "inline"}),
        (shard_b.engine.stats, {"backend": backend_name}),
        (shard_b.engine.scheduler.stats, {}),  # shard a runs without one
        (registry.stats, {}),
        (tracer.stats, {}),
    ]
    return router, (shard_a, shard_b), sources, live_page


def catalogue_families() -> set[str]:
    """Family names in the metric-catalogue table, braces expanded."""
    text = (REPO_ROOT / "docs" / "observability.md").read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    names: set[str] = set()
    for row in rows:
        for token in re.findall(r"`(repro_[a-z0-9_{},]+)`", row):
            match = re.search(r"\{([a-z0-9_,]+)\}", token)
            if match is None:
                names.add(token)
            else:
                for part in match.group(1).split(","):
                    names.add(token[: match.start()] + part + token[match.end() :])
    return names


class TestScrapeParity:
    def test_every_counter_equals_its_stats_field(self, fitted, toy_data):
        metrics = MetricsRegistry()
        router, (shard_a, _), sources, _ = asyncio.run(
            scripted_session(fitted, toy_data, metrics)
        )
        page = scraped(metrics)
        assert_scrape_equals_stats(page, sources)
        # The router-edge families that used to have no /metrics series.
        assert page[("repro_router_auth_failed_total", ())] == 1.0
        assert page[("repro_router_handshakes_rejected_total", ())] == 2.0
        assert page[("repro_router_protocol_errors_total", ())] == 1.0
        assert page[("repro_router_submits_total", ())] == router.stats.submits == 3
        # Derived scalars and the tally they come from agree.
        gateway = shard_a.stats
        assert gateway.shed >= 1 and gateway.rate_limited == gateway.quota_exceeded == 1
        assert page[("repro_gateway_quota_exceeded_total", (("tenant", "capped"),))] == 1.0
        assert gateway.auth_failed == 1 and gateway.protocol_errors == 1
        assert router.stats.errors == 1 and router.stats.delivered == 1

    def test_catalogue_names_exactly_the_scraped_families(self, fitted, toy_data):
        metrics = MetricsRegistry()
        metrics.register_collector(lambda: 1 / 0)  # the registry's own layer
        with ProcessPoolBackend(workers=1, metrics=metrics) as pool:
            *_, page = asyncio.run(scripted_session(fitted, toy_data, metrics, backend=pool))
        emitted = set(re.findall(r"^# TYPE (\S+) ", page, re.M))
        assert catalogue_families() == emitted


# ----------------------------------------------------------------------
# The exporter under concurrent scrapes while label keys appear
# ----------------------------------------------------------------------
class TestExporterUnderLoad:
    def test_scrapes_race_new_label_keys(self, fitted, toy_data):
        x, _, _ = toy_data
        metrics = MetricsRegistry()
        stop = threading.Event()
        failures: list[str] = []
        pages: list[dict] = []

        def scrape_loop():
            previous: dict = {}
            while not stop.is_set():
                text = render_text(metrics)
                if "repro_metrics_collector_errors" in text:
                    failures.append("collector error")
                for series, value in parse_text(text).items():
                    name = series[0]
                    if name.endswith("_total") and value < previous.get(series, 0.0):
                        failures.append(f"{series} went {previous[series]} -> {value}")
                    previous[series] = value
                stop.wait(0.002)  # let the event loop's heartbeats through
            pages.append(previous)

        async def traffic():
            tenants = _shard_a_tenants()
            shard_a = GatewayServer(
                fitted, node_id="a", tenants=tenants, quota=QuotaLedger(tenants.quota_policy),
                metrics=metrics,
            )
            shard_b = GatewayServer(fitted, node_id="b", metrics=metrics)
            shards = {"a": await shard_a.start(), "b": await shard_b.start()}
            router = ClusterRouter(shards, heartbeat_s=0.2, metrics=metrics)
            edge = await router.start()
            try:
                for i in range(12):  # a new tenant label key each round
                    client = await AsyncGatewayClient.connect(*edge, tenant=f"t{i}")
                    try:
                        await client.classify(x[i % len(x)], deadline_ms=0.0)
                    finally:
                        await client.aclose()
                for tenant in ("bursty", "capped"):  # new rejection codes
                    client = await AsyncGatewayClient.connect(*shards["a"], tenant=tenant)
                    try:
                        await _outcomes(client, [x[0], x[1], x[2]])
                    finally:
                        await client.aclose()
                await _partition(shard_b)  # a node death: a new node key
                assert await _wait_for(lambda: router.stats.node_deaths >= 1)
            finally:
                await router.aclose()
                await shard_a.aclose()
                await shard_b.aclose()
            return [(router.stats, {}), (shard_a.stats, {}), (shard_b.stats, {}),
                    (shard_a.engine.stats, {"backend": "inline"}),
                    (shard_b.engine.stats, {"backend": "inline"})]

        scrapers = [threading.Thread(target=scrape_loop, daemon=True) for _ in range(2)]
        for thread in scrapers:
            thread.start()
        try:
            sources = asyncio.run(traffic())
        finally:
            stop.set()
            for thread in scrapers:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        assert failures == []
        assert metrics.collector_errors == 0
        assert len(pages) == 2 and all(pages)
        page = scraped(metrics)
        assert_scrape_equals_stats(page, sources)
        assert page[("repro_router_node_deaths_total", (("node", "b"),))] >= 1.0
        codes = {
            dict(labels).get("code") for name, labels in page if name.endswith("rejected_total")
        }
        assert {"rate_limited", "quota_exceeded"} <= codes
