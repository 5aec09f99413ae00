"""Cluster tier end-to-end: router + in-process shards on one loop.

Shards are real :class:`GatewayServer` instances bound to localhost
ports inside the same event loop as the :class:`ClusterRouter`, so
every wire hop is exercised without subprocesses.  Chaos is injected
by aborting a shard's listener and transports (``_partition``), the
in-process equivalent of SIGKILL: no goodbye frames, just dead sockets.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.serving import InferenceEngine, ModelRegistry
from repro.serving.cluster import ClusterRouter, MembershipTable
from repro.serving.gateway import (
    AsyncGatewayClient,
    GatewayError,
    GatewayServer,
    protocol,
)
from repro.serving.gateway.protocol import Frame, FrameType
from repro.serving.observability import MetricsRegistry, Tracer

from .test_backends import GateBackend


def _samples(toy_data, count, seed=0):
    x, _, _ = toy_data
    rng = np.random.default_rng(seed)
    return x[rng.integers(0, len(x), size=count)]


def _tenant_owned_by(ring, node_id, prefix="tenant"):
    for index in range(10_000):
        tenant = f"{prefix}-{index}"
        if ring.owner(tenant) == node_id:
            return tenant
    raise AssertionError(f"no tenant hashes to {node_id}")


async def _wait_for(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval_s)
    return False


async def _start_shards(fitted, node_ids, **server_kwargs):
    """``(servers, shards)``: started gateways + their address map."""
    servers: dict[str, GatewayServer] = {}
    shards: dict[str, tuple[str, int]] = {}
    for node_id in node_ids:
        server = GatewayServer(fitted, node_id=node_id, **server_kwargs)
        shards[node_id] = await server.start("127.0.0.1", 0)
        servers[node_id] = server
    return servers, shards


async def _partition(server: GatewayServer) -> None:
    """Make a shard unreachable the way SIGKILL would: stop listening
    and abort every open transport, no graceful teardown."""
    server._server.close()
    await server._server.wait_closed()
    for connection in list(server._connections):
        connection.writer.transport.abort()


class TestMembership:
    """The table alone, with a fake clock — every transition."""

    def _table(self, **kwargs):
        self.now = 0.0
        table = MembershipTable(
            heartbeat_s=1.0, miss_limit=3, clock=lambda: self.now, **kwargs
        )
        table.add("a", ("127.0.0.1", 1))
        return table

    def test_miss_limit_kills(self):
        table = self._table()
        assert table.is_alive("a")
        assert not table.miss("a", reason="t1")
        assert not table.miss("a", reason="t2")
        assert table.miss("a", reason="t3")  # third strike: newly dead
        assert table.dead() == ["a"]
        assert table.get("a").deaths == 1
        # Further misses on a corpse are no-ops, not double deaths.
        assert not table.miss("a", reason="t4")
        assert table.get("a").deaths == 1

    def test_heartbeat_resets_misses_and_revives(self):
        table = self._table()
        table.miss("a", reason="x")
        table.miss("a", reason="x")
        assert not table.heartbeat("a")  # alive -> alive: no heal signal
        assert table.get("a").misses == 0
        table.mark_dead("a", reason="refused")
        assert table.heartbeat("a", summary={"queued": 0})  # dead -> alive
        assert table.get("a").heals == 1
        assert table.get("a").summary == {"queued": 0}

    def test_mark_dead_is_idempotent(self):
        table = self._table()
        assert table.mark_dead("a", reason="refused")
        assert not table.mark_dead("a", reason="again")
        assert table.get("a").deaths == 1

    def test_deadline_expiry_uses_fake_clock(self):
        table = self._table()
        assert not table.deadline_expired("a")  # never heartbeated
        table.heartbeat("a", now=0.0)
        self.now = 2.9
        assert not table.deadline_expired("a")  # 3 * 1.0s budget
        self.now = 3.1
        assert table.deadline_expired("a")

    def test_duplicate_registration_rejected(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.add("a", ("127.0.0.1", 2))


class TestRouting:
    def test_affinity_routing_and_byte_identity(self, fitted, toy_data):
        """Tenants land on their ring owner; results match predict_one."""
        reference = InferenceEngine(fitted)
        samples = _samples(toy_data, 6)

        async def run():
            servers, shards = await _start_shards(fitted, ["a", "b"])
            router = ClusterRouter(shards, heartbeat_s=0.2)
            try:
                host, port = await router.start()
                for tenant in ("edge-0", "edge-1", "edge-2", "edge-3"):
                    owner = router.ring.owner(tenant)
                    client = await AsyncGatewayClient.connect(
                        host, port, tenant=tenant
                    )
                    try:
                        assert client.node_id == owner
                        assert client.slo_class == "standard"
                        for sample in samples:
                            wire = await client.classify(sample, deadline_ms=0.0)
                            assert wire.node_id == owner
                            assert not wire.retried
                            local = reference.predict_one(
                                protocol.quantise_sample(sample)
                            )
                            assert wire.gesture == local.gesture
                            assert np.array_equal(
                                wire.gesture_probs, local.gesture_probs
                            )
                            assert np.array_equal(
                                wire.user_probs, local.user_probs
                            )
                    finally:
                        await client.aclose()
                assert router.stats.delivered == 4 * len(samples)
                assert router.stats.redispatched == 0
            finally:
                await router.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())

    def test_stats_frame_serves_cluster_snapshot(self, fitted, toy_data):
        async def run():
            servers, shards = await _start_shards(fitted, ["a", "b"])
            router = ClusterRouter(shards, heartbeat_s=0.05)
            try:
                host, port = await router.start()
                client = await AsyncGatewayClient.connect(
                    host, port, tenant="edge-0"
                )
                try:
                    await client.classify(
                        _samples(toy_data, 1)[0], deadline_ms=0.0
                    )
                    # Wait for one heartbeat round so summaries land.
                    assert await _wait_for(
                        lambda: all(
                            record["last_heartbeat"] is not None
                            for record in router.membership.snapshot().values()
                        )
                    )
                    snapshot = await client.stats()
                finally:
                    await client.aclose()
                assert snapshot["role"] == "router"
                assert snapshot["policy"] == "affinity"
                assert snapshot["ring"]["nodes"] == ["a", "b"]
                assert snapshot["router"]["delivered"] == 1
                shard_rows = snapshot["shards"]
                assert set(shard_rows) == {"a", "b"}
                assert all(row["state"] == "alive" for row in shard_rows.values())
                # Heartbeats pull each shard's own snapshot slice across.
                assert all(
                    row["summary"].get("node_id") == node_id
                    for node_id, row in shard_rows.items()
                )
            finally:
                await router.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())

    def test_spread_policy_round_robins_one_tenant(self, fitted, toy_data):
        samples = _samples(toy_data, 8)

        async def run():
            servers, shards = await _start_shards(fitted, ["a", "b"])
            router = ClusterRouter(shards, affinity=False, heartbeat_s=0.2)
            try:
                host, port = await router.start()
                client = await AsyncGatewayClient.connect(
                    host, port, tenant="hot-tenant"
                )
                try:
                    for sample in samples:
                        await client.classify(sample, deadline_ms=0.0)
                finally:
                    await client.aclose()
                # One tenant's load spreads over both shards — the
                # anti-affinity control arm.
                assert router.stats.forwarded_by_node["a"] > 0
                assert router.stats.forwarded_by_node["b"] > 0
            finally:
                await router.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())

    def test_malformed_trace_limit_gets_error_frame_not_eof(self, fitted, toy_data):
        """Regression: a non-int TRACE ``limit`` used to kill the client
        connection at the router edge with no ERROR frame."""
        samples = _samples(toy_data, 1)

        async def run():
            servers, shards = await _start_shards(fitted, ["a"], metrics=MetricsRegistry())
            metrics = MetricsRegistry()
            router = ClusterRouter(
                shards, heartbeat_s=0.2, metrics=metrics, tracer=Tracer(metrics=metrics)
            )
            try:
                host, port = await router.start()
                client = await AsyncGatewayClient.connect(host, port, tenant="t")
                try:
                    await client._request(Frame(FrameType.TRACE, {"limit": "abc"}))
                    with pytest.raises(GatewayError) as excinfo:
                        await asyncio.wait_for(client._expect(FrameType.TRACE), 5.0)
                    assert excinfo.value.code == "bad_trace"
                    await client.classify(samples[0], deadline_ms=0.0)
                    reply = await asyncio.wait_for(client.traces(limit=5), 5.0)
                    assert [t["terminal"] for t in reply["traces"]] == ["delivered"]
                    stats = await client.stats()
                    assert stats["router"]["protocol_errors"] == 1
                finally:
                    await client.aclose()
                assert metrics.get_sample("repro_router_protocol_errors_total") == 1.0
            finally:
                await router.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())

    def test_client_disconnect_drops_late_results(self, fitted, toy_data):
        """A vanished client's airborne ticket is reclaimed: the shard's
        eventual result is dropped, not delivered to a dead socket."""
        sample = _samples(toy_data, 1)[0]

        async def run():
            gate = GateBackend()
            servers, shards = await _start_shards(fitted, ["a"], backend=gate)
            router = ClusterRouter(shards, heartbeat_s=0.2)
            try:
                host, port = await router.start()
                client = await AsyncGatewayClient.connect(
                    host, port, tenant="edge-0"
                )
                client.submit_nowait(sample, deadline_ms=0.0)
                await client.drain()
                assert await _wait_for(lambda: len(gate.held) == 1)
                await client.aclose()  # client leaves mid-flight
                assert await _wait_for(lambda: router.num_connections == 0)
                gate.release()
                assert await _wait_for(lambda: len(router._tickets) == 0)
                assert router.stats.delivered == 0
            finally:
                gate.release()
                await router.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())


class TestRedispatch:
    def test_exactly_once_redispatch_on_shard_death(self, fitted, toy_data):
        """A busy shard dies with a ticket airborne: the ticket lands on
        the ring successor exactly once, stamped ``retried``, with the
        payload byte-identical to single-node serving."""
        reference = InferenceEngine(fitted)
        sample = _samples(toy_data, 1)[0]

        async def run():
            gate = GateBackend()
            server_a = GatewayServer(fitted, node_id="a", backend=gate)
            server_b = GatewayServer(fitted, node_id="b")
            shards = {
                "a": await server_a.start("127.0.0.1", 0),
                "b": await server_b.start("127.0.0.1", 0),
            }
            router = ClusterRouter(shards, heartbeat_s=0.2)
            try:
                host, port = await router.start()
                tenant = _tenant_owned_by(router.ring, "a")
                client = await AsyncGatewayClient.connect(
                    host, port, tenant=tenant
                )
                try:
                    _, future = client.submit_nowait(sample, deadline_ms=0.0)
                    await client.drain()
                    # The ticket is genuinely airborne inside shard a...
                    assert await _wait_for(lambda: len(gate.held) == 1)
                    await _partition(server_a)  # ...when a "SIGKILLs"
                    wire = await asyncio.wait_for(future, timeout=15.0)
                finally:
                    await client.aclose()
                assert wire.node_id == "b"
                assert wire.retried
                local = reference.predict_one(protocol.quantise_sample(sample))
                assert wire.gesture == local.gesture
                assert np.array_equal(wire.gesture_probs, local.gesture_probs)
                assert np.array_equal(wire.user_probs, local.user_probs)
                assert router.stats.redispatched == 1
                assert router.stats.delivered == 1
                assert router.membership.dead() == ["a"]
                assert "a" not in router.ring
                # Shard a reclaimed the orphan on disconnect: releasing
                # its gate must not produce a duplicate delivery.
                gate.release()
                await asyncio.sleep(0.1)
                assert router.stats.delivered == 1
            finally:
                gate.release()
                await router.aclose()
                await server_a.aclose()
                await server_b.aclose()

        asyncio.run(run())

    def test_second_death_exhausts_the_budget(self, fitted, toy_data):
        """The redispatch budget is one: losing the successor too fails
        the ticket with ``node_lost`` instead of retrying forever."""
        sample = _samples(toy_data, 1)[0]

        async def run():
            gate_a, gate_b = GateBackend(), GateBackend()
            server_a = GatewayServer(fitted, node_id="a", backend=gate_a)
            server_b = GatewayServer(fitted, node_id="b", backend=gate_b)
            shards = {
                "a": await server_a.start("127.0.0.1", 0),
                "b": await server_b.start("127.0.0.1", 0),
            }
            router = ClusterRouter(shards, heartbeat_s=0.2)
            try:
                host, port = await router.start()
                tenant = _tenant_owned_by(router.ring, "a")
                client = await AsyncGatewayClient.connect(
                    host, port, tenant=tenant
                )
                try:
                    _, future = client.submit_nowait(sample, deadline_ms=0.0)
                    await client.drain()
                    assert await _wait_for(lambda: len(gate_a.held) == 1)
                    await _partition(server_a)
                    assert await _wait_for(lambda: len(gate_b.held) == 1)
                    await _partition(server_b)
                    with pytest.raises(GatewayError) as excinfo:
                        await asyncio.wait_for(future, timeout=15.0)
                    assert excinfo.value.code == "node_lost"
                finally:
                    await client.aclose()
                assert router.stats.redispatched == 1
                # a died on the failed reconnect; b's death lands via
                # the heartbeat loop a few beats later.
                assert "a" in router.membership.dead()
                assert await _wait_for(
                    lambda: router.membership.dead() == ["a", "b"]
                )
            finally:
                # Release before aclose: engine.drain() would otherwise
                # wait forever on a still-held batch.
                gate_a.release()
                gate_b.release()
                await router.aclose()
                await server_a.aclose()
                await server_b.aclose()

        asyncio.run(run())

    def test_connect_failure_spares_the_budget(self, fitted, toy_data):
        """A shard that is down *before* the SUBMIT ships cannot have
        duplicated anything: the ticket moves to the successor without
        a ``retried`` stamp or a redispatch count."""
        sample = _samples(toy_data, 1)[0]

        async def run():
            # Shard a's address refuses connections from the start.
            import socket as socketlib

            with socketlib.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                dead_address = probe.getsockname()
            servers, shards = await _start_shards(fitted, ["b"])
            shards["a"] = dead_address
            router = ClusterRouter(shards, heartbeat_s=0.2)
            try:
                host, port = await router.start()
                tenant = _tenant_owned_by(router.ring, "a")
                client = await AsyncGatewayClient.connect(
                    host, port, tenant=tenant
                )
                try:
                    wire = await client.classify(sample, deadline_ms=0.0)
                finally:
                    await client.aclose()
                assert wire.node_id == "b"
                assert not wire.retried  # no delivery risk, no budget spent
                assert router.stats.redispatched == 0
                assert router.membership.dead() == ["a"]
            finally:
                await router.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())


class TestMembershipOverTheWire:
    def test_silent_shard_dies_by_heartbeat_deadline(self, fitted):
        """A shard that accepts and handshakes but never answers STATS
        (SIGSTOP-alike) is declared dead after miss_limit beats."""

        async def run():
            async def mute(reader, writer):
                try:
                    while True:
                        frame = await protocol.read_frame(reader)
                        if frame is None:
                            return
                        if frame.kind is FrameType.HELLO:
                            writer.write(
                                protocol.encode_frame(
                                    protocol.hello_reply(
                                        server="mute",
                                        tenant=str(frame.meta.get("tenant")),
                                        slo_class="standard",
                                        slo_ms=200.0,
                                        model_version=0,
                                        node_id="mute",
                                    )
                                )
                            )
                            await writer.drain()
                        # STATS frames are swallowed: the wedged shard.
                except ConnectionError:
                    pass

            listener = await asyncio.start_server(mute, "127.0.0.1", 0)
            address = listener.sockets[0].getsockname()[:2]
            router = ClusterRouter(
                {"mute": address}, heartbeat_s=0.05, miss_limit=2
            )
            try:
                await router.start()
                assert await _wait_for(
                    lambda: router.membership.dead() == ["mute"]
                )
                assert "mute" not in router.ring
                assert router.stats.node_deaths == 1
                record = router.membership.get("mute")
                assert record.last_error is not None
            finally:
                await router.aclose()
                listener.close()
                await listener.wait_closed()

        asyncio.run(run())

    def test_respawned_shard_heals_the_ring(self, fitted, toy_data):
        """Kill a shard, let the router declare it dead, respawn it on
        the same port: the heal probe revives it and the ring returns
        to its original placement."""
        sample = _samples(toy_data, 1)[0]

        async def run():
            server_a = GatewayServer(fitted, node_id="a")
            host_a, port_a = await server_a.start("127.0.0.1", 0)
            servers, shards = await _start_shards(fitted, ["b"])
            shards["a"] = (host_a, port_a)
            router = ClusterRouter(
                shards, heartbeat_s=0.05, miss_limit=2, heal_interval_s=0.1
            )
            try:
                await router.start()
                owners_before = {
                    t: router.ring.owner(t) for t in ("t-0", "t-1", "t-2", "t-3")
                }
                await _partition(server_a)
                assert await _wait_for(
                    lambda: router.membership.dead() == ["a"]
                )
                # Respawn at the *same* address, as an operator would.
                server_a2 = GatewayServer(fitted, node_id="a")
                await server_a2.start(host_a, port_a)
                try:
                    assert await _wait_for(
                        lambda: router.membership.alive() == ["a", "b"]
                    )
                    assert router.stats.node_heals == 1
                    assert "a" in router.ring
                    owners_after = {
                        t: router.ring.owner(t) for t in owners_before
                    }
                    assert owners_after == owners_before  # minimal movement
                    # And the healed shard serves again through the router.
                    router_host, router_port = router.address
                    tenant = _tenant_owned_by(router.ring, "a")
                    client = await AsyncGatewayClient.connect(
                        router_host, router_port, tenant=tenant
                    )
                    try:
                        wire = await client.classify(sample, deadline_ms=0.0)
                        assert wire.node_id == "a"
                    finally:
                        await client.aclose()
                finally:
                    await server_a2.aclose()
            finally:
                await router.aclose()
                await server_a.aclose()
                for server in servers.values():
                    await server.aclose()

        asyncio.run(run())


class TestTenantResidency:
    def test_gateway_reports_registry_hit_rate(self, fitted, toy_data):
        """satellite: ``--tenant-cache`` surfaces per-tenant residency
        (the thing affinity is buying) in the STATS snapshot."""
        samples = _samples(toy_data, 3)

        async def run():
            server = GatewayServer(
                fitted,
                node_id="a",
                tenant_registry=ModelRegistry(capacity=8),
            )
            host, port = await server.start("127.0.0.1", 0)
            try:
                for tenant in ("edge-0", "edge-1"):
                    client = await AsyncGatewayClient.connect(
                        host, port, tenant=tenant
                    )
                    try:
                        for sample in samples:
                            await client.classify(sample, deadline_ms=0.0)
                    finally:
                        await client.aclose()
                snapshot = server.snapshot()
            finally:
                await server.aclose()
            assert snapshot["node_id"] == "a"
            summary = snapshot["tenant_registry"]
            # First touch per tenant misses, the rest hit: 4 / 6.
            assert summary["misses"] == 2
            assert summary["hits"] == 4
            assert summary["hit_rate"] == pytest.approx(4 / 6)
            assert summary["resident_tenants"] == ["edge-0", "edge-1"]

        asyncio.run(run())
