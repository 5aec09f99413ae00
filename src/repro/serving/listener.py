"""One TCP frame listener under both serving front-ends.

:class:`~repro.serving.gateway.server.GatewayServer` and
:class:`~repro.serving.cluster.router.ClusterRouter` speak the same
length-prefixed :mod:`~repro.serving.gateway.protocol` to their clients,
so the client side of both lives here once:

* binding (plaintext or TLS) and ``serve_forever``;
* the connection set and each connection's lifecycle — a writer task
  draining a bounded outbox, the flush of queued frames on exit, and
  the subclass's reclaim of whatever the client left in flight;
* the HELLO exchange: bearer-token auth *before* the tenant is
  resolved, so a bad token never materialises a tenant record;
* frame dispatch for SUBMIT, STATS, TRACE and RELOAD.

Everything runs on the listener's event loop; no locks.
"""

from __future__ import annotations

import asyncio
import ssl

from repro.serving.gateway import protocol
from repro.serving.gateway.protocol import Frame, FrameType, ProtocolError
from repro.serving.gateway.security import TenantAuthenticator
from repro.serving.observability.metrics import MetricsRegistry, StatsExporter, get_metrics
from repro.serving.observability.tracing import Tracer


class _Connection:
    """Per-client state: the tenant bound at HELLO, plus the write side."""

    __slots__ = ("reader", "writer", "tenant", "outbox", "closed", "max_outbox")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_outbox: int = 1024,
    ) -> None:
        self.reader = reader
        self.writer = writer
        #: Whatever the listener's tenant resolution bound (a gateway
        #: ``Tenant``, a router's tenant view); None before HELLO.
        self.tenant = None
        self.outbox: asyncio.Queue[bytes | None] = asyncio.Queue()
        self.closed = False
        self.max_outbox = max_outbox

    def send(self, frame: Frame) -> None:
        """Queue one frame for the writer task (drops after close).

        The outbox is bounded: a client that submits but never reads
        stalls the writer on TCP backpressure while deliveries keep
        arriving, and buffering those results without limit would trade
        one misbehaving client for the whole server's memory.  At the
        cap the connection is dropped — its reader sees the close and
        the normal reclamation path cancels its remaining work.
        """
        if self.closed:
            return
        if self.outbox.qsize() >= self.max_outbox:
            self.outbox.put_nowait(None)
            self.close()
            return
        self.outbox.put_nowait(protocol.encode_frame(frame))

    def close(self) -> None:
        """Mark closed and close the transport (a peer may have torn it
        down already; that raises, and there is nothing left to do)."""
        self.closed = True
        try:
            self.writer.close()
        except Exception:
            pass

    async def write_loop(self) -> None:
        try:
            while True:
                data = await self.outbox.get()
                if data is None:
                    break
                # Coalesce everything already queued (a flush delivers a
                # whole batch of results at once) into one write.
                chunks = [data]
                stop = False
                while not self.outbox.empty():
                    data = self.outbox.get_nowait()
                    if data is None:
                        stop = True
                        break
                    chunks.append(data)
                self.writer.write(b"".join(chunks))
                await self.writer.drain()
                if stop:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass


class FrameListener:
    """Base of a TCP front-end speaking the gateway protocol to clients.

    A subclass supplies only what differs between front-ends:

    * ``name`` — the server name its HELLO replies and STATS report;
    * ``auth`` — the :class:`~repro.serving.gateway.security.
      TenantAuthenticator` checking HELLO bearer tokens (None serves
      unauthenticated);
    * ``_resolve_tenant(connection, tenant_id)`` — bind an authenticated
      tenant to the connection and return the HELLO reply, or an ERROR
      frame refusing it;
    * ``_on_submit``, ``_on_reload``, ``_reclaim`` and ``snapshot`` —
      SUBMIT and RELOAD handling, a departed client's in-flight work,
      and the STATS body;
    * ``_on_start`` / ``_on_close`` — its own background work, started
      once bound and stopped before connections are dropped;
    * ``_roster_changed`` — run whenever a client joins or leaves;
    * ``_collect_metrics`` — its scrape-time gauges.

    ``stats`` must carry the ``connections_total``,
    ``handshakes_rejected``, ``auth_failed`` and ``protocol_errors``
    counters; the listener keeps them.  A connection whose handshake
    does not complete — refused, malformed, silent past
    ``handshake_timeout_s``, or dropped — counts ``handshakes_rejected``
    exactly once; ``protocol_errors`` counts only frames after HELLO.
    """

    auth: TenantAuthenticator | None = None
    name: str
    #: Seconds a new connection may take to send its HELLO.
    handshake_timeout_s = 10.0

    def __init__(
        self,
        stats,
        *,
        metrics: MetricsRegistry | None,
        tracer: Tracer | None,
        ssl_context: ssl.SSLContext | None,
    ) -> None:
        self.stats = stats
        self.tracer = tracer
        self._ssl_context = ssl_context
        self._metrics = metrics if metrics is not None else get_metrics()
        self._exporter = StatsExporter(self._metrics, stats)
        self.address: tuple[str, int] | None = None
        self._connections: set[_Connection] = set()
        self._server: asyncio.base_events.Server | None = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self._server = await asyncio.start_server(
            self._on_connection, host, port, ssl=self._ssl_context
        )
        self._running = True
        self._on_start()
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (start() must have been awaited)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, stop the subclass's work, drop connections."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._on_close()
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()
        self._metrics.unregister_collector(self._collect_metrics)
        self._exporter.close()

    @property
    def num_connections(self) -> int:
        """Currently open client connections."""
        return len(self._connections)

    def _on_start(self) -> None:
        """Start background work; runs once bound, before any client."""

    async def _on_close(self) -> None:
        """Stop background work and settle open requests."""

    def _roster_changed(self) -> None:
        """A client joined or left the connection set."""

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        self.stats.connections_total += 1
        writer_task = asyncio.create_task(connection.write_loop())
        try:
            if not await self._handshake(connection):
                return
            self._connections.add(connection)
            self._roster_changed()
            await self._serve_frames(connection)
        except ConnectionError:
            pass
        except ProtocolError as error:
            self.stats.protocol_errors += 1
            connection.send(protocol.error_frame(error.code, str(error)))
        finally:
            self._connections.discard(connection)
            self._roster_changed()
            self._reclaim(connection)
            connection.closed = True
            connection.outbox.put_nowait(None)  # let queued frames flush out
            try:
                await asyncio.wait_for(writer_task, timeout=5.0)
            except (asyncio.TimeoutError, ConnectionError):
                writer_task.cancel()
            connection.close()

    async def _handshake(self, connection: _Connection) -> bool:
        """HELLO exchange; False on any failure, counted once in
        ``handshakes_rejected``.  A refusal or a malformed first frame is
        answered with an ERROR frame; a silent or vanished client is not."""
        try:
            reply = await self._hello(connection)
        except ProtocolError as error:
            reply = protocol.error_frame(error.code, str(error))
        except (ConnectionError, asyncio.TimeoutError):
            reply = None
        if reply is not None:
            connection.send(reply)
        if reply is None or reply.kind is not FrameType.HELLO:
            self.stats.handshakes_rejected += 1
            return False
        return True

    async def _hello(self, connection: _Connection) -> Frame:
        """Read the client's HELLO; the HELLO reply or an ERROR frame."""
        frame = await asyncio.wait_for(
            protocol.read_frame(connection.reader), self.handshake_timeout_s
        )
        if frame is None or frame.kind is not FrameType.HELLO:
            return protocol.error_frame("bad_handshake", "expected a HELLO frame first")
        tenant_id = str(frame.meta.get("tenant", "anonymous"))
        # Authenticate before resolve: a stranger with a bad token must
        # not materialise a tenant record (or learn whether the id is
        # known — the authenticator's decoy compare keeps timing flat).
        token = frame.meta.get("token")
        auth = self.auth
        if auth is not None and not auth.authenticate(
            tenant_id, token if isinstance(token, str) else None
        ):
            self.stats.auth_failed += 1
            return protocol.error_frame(
                "auth_failed", f"bearer token missing or invalid for tenant {tenant_id!r}"
            )
        return await self._resolve_tenant(connection, tenant_id)

    async def _serve_frames(self, connection: _Connection) -> None:
        while True:
            frame = await protocol.read_frame(connection.reader)
            if frame is None:
                return  # clean EOF
            if frame.kind is FrameType.SUBMIT:
                self._on_submit(connection, frame)
            elif frame.kind is FrameType.STATS:
                connection.send(protocol.stats_frame(self.snapshot()))
            elif frame.kind is FrameType.TRACE:
                self._answer_trace(connection, frame)
            elif frame.kind is FrameType.RELOAD:
                self._on_reload(connection)
            else:
                connection.send(
                    protocol.error_frame(
                        "unexpected_frame",
                        f"cannot handle {frame.kind.name} after the handshake",
                    )
                )

    def _answer_trace(self, connection: _Connection, frame: Frame) -> None:
        """Reply to a TRACE frame by draining up to ``limit`` trace records.

        A ``limit`` that is not a non-negative int is refused with a
        ``bad_trace`` ERROR frame and counted in ``protocol_errors``; the
        connection stays open.
        """
        limit = frame.meta.get("limit")
        if limit is not None and (type(limit) is not int or limit < 0):
            self.stats.protocol_errors += 1
            connection.send(
                protocol.error_frame(
                    "bad_trace", f"TRACE limit must be a non-negative int, got {limit!r}"
                )
            )
            return
        tracer = self.tracer
        if tracer is None:
            payload = {"traces": [], "dropped": 0, "buffered": 0, "enabled": False}
        else:
            payload = {
                "traces": tracer.drain(limit),
                "dropped": tracer.dropped,
                "buffered": tracer.buffered,
                "enabled": True,
            }
        connection.send(protocol.trace_frame(payload))
