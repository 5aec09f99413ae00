"""The frame listener shared by the gateway and the cluster router.

Every connection whose HELLO exchange does not complete counts
``handshakes_rejected`` exactly once at either edge, and
``protocol_errors`` stays a post-handshake count.  The gateway's
scheduler SLO follows the tightest class on the wire as clients join
and leave.
"""

import asyncio
import time

import pytest

from repro.serving.cluster import ClusterRouter
from repro.serving.gateway import AsyncGatewayClient, GatewayServer, TenantDirectory, protocol
from repro.serving.gateway.protocol import HEADER, MAGIC, MAX_PAYLOAD, PROTOCOL_VERSION, FrameType
from repro.serving.observability import MetricsRegistry

BAD_MAGIC = HEADER.pack(b"XX", PROTOCOL_VERSION, FrameType.HELLO, 0)
OVERSIZE = HEADER.pack(MAGIC, PROTOCOL_VERSION, FrameType.HELLO, MAX_PAYLOAD + 1)


async def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return False


async def _open_edge(fitted, edge, metrics):
    """``(listeners to close, the edge under test, its address)``."""
    shard = GatewayServer(fitted, metrics=metrics)
    shard.handshake_timeout_s = 0.2
    address = await shard.start()
    if edge == "gateway":
        return [shard], shard, address
    router = ClusterRouter({"a": address}, heartbeat_s=0.2, metrics=metrics)
    router.handshake_timeout_s = 0.2
    return [router, shard], router, await router.start()


async def _first_reply(address, raw: bytes):
    """Send ``raw`` as the first bytes; the reply frame, or None at EOF."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(raw)
        await writer.drain()
        return await asyncio.wait_for(protocol.read_frame(reader), 5.0)
    finally:
        writer.close()


@pytest.mark.parametrize("edge", ["gateway", "router"])
class TestPreHelloFailures:
    def test_malformed_first_frame_is_a_rejected_handshake(self, fitted, edge):
        async def run():
            metrics = MetricsRegistry()
            listeners, listener, address = await _open_edge(fitted, edge, metrics)
            try:
                reply = await _first_reply(address, BAD_MAGIC)
                assert reply.kind is FrameType.ERROR and reply.meta["code"] == "bad_frame"
                reply = await _first_reply(address, OVERSIZE)
                assert reply.meta["code"] == "frame_too_large"
                assert await _wait_for(lambda: listener.stats.handshakes_rejected == 2)
                assert listener.stats.protocol_errors == 0
            finally:
                for closing in listeners:
                    await closing.aclose()
            family = f"repro_{edge}_handshakes_rejected_total"
            assert metrics.get_sample(family) == 2.0

        asyncio.run(run())

    def test_silent_client_is_a_rejected_handshake(self, fitted, edge):
        async def run():
            listeners, listener, address = await _open_edge(fitted, edge, MetricsRegistry())
            try:
                assert await _first_reply(address, b"") is None  # dropped, no reply
                assert await _wait_for(lambda: listener.stats.handshakes_rejected == 1)
                assert listener.stats.protocol_errors == 0
            finally:
                for closing in listeners:
                    await closing.aclose()

        asyncio.run(run())


def test_gateway_slo_follows_the_tightest_connected_class(fitted):
    async def run():
        server = GatewayServer(
            fitted,
            slo_ms=500.0,
            tenants=TenantDirectory(assignments={"vip": "premium"}),
            metrics=MetricsRegistry(),
        )
        address = await server.start()
        scheduler = server.engine.scheduler
        try:
            assert scheduler.slo_ms == 500.0
            standard = await AsyncGatewayClient.connect(*address, tenant="edge")
            assert await _wait_for(lambda: scheduler.slo_ms == 200.0)
            premium = await AsyncGatewayClient.connect(*address, tenant="vip")
            assert await _wait_for(lambda: scheduler.slo_ms == 50.0)
            await premium.aclose()
            assert await _wait_for(lambda: scheduler.slo_ms == 200.0)
            await standard.aclose()
            assert await _wait_for(lambda: scheduler.slo_ms == 500.0)
        finally:
            await server.aclose()

    asyncio.run(run())
