"""Cluster front-end: route tenants to shards over the gateway protocol.

:class:`ClusterRouter` is an asyncio TCP server speaking the same
length-prefixed protocol as :class:`~repro.serving.gateway.server.
GatewayServer`, so every existing client works against a cluster
unchanged.  Each client SUBMIT becomes a *ticket*: the frame is
forwarded — body bytes untouched, only the request id rewritten — to
the shard owning the client's tenant on the consistent-hash ring
(:class:`~repro.serving.cluster.ring.HashRing`), over a pooled
per-(node, tenant) :class:`~repro.serving.gateway.client.
AsyncGatewayClient`; the shard's RESULT frame fans back to the client
under its original id, stamped with the serving ``node_id``.  Because
neither direction decodes the numeric payload, cross-node results are
byte-identical to single-node serving.

Health and healing reuse the PR-5 supervisor idiom one level up:

* a per-node loop heartbeats the shard with a STATS frame on a control
  connection; ``miss_limit`` consecutive timeouts/errors declare it
  dead (:class:`~repro.serving.cluster.membership.MembershipTable`),
  remove it from the ring, and close its pooled connections — which
  fails the airborne tickets' futures and triggers redispatch;
* a dead shard's airborne tickets redispatch **exactly once** to the
  ring successor, stamped ``retried`` and excluded from the per-shard
  latency EWMA (connect failures never consume the redispatch budget:
  an undelivered SUBMIT cannot duplicate).  Late duplicate deliveries
  die at the router's closed upstream socket and at the shard's own
  disconnect reclamation; any that still arrive on a live pooled
  connection find no pending future and are counted as suppressed;
* dead shards are probed every ``heal_interval_s``; a shard that
  answers again is revived into the ring, moving only its own tenants
  back (minimal movement), which restores their cache affinity.
"""

from __future__ import annotations

import asyncio
import itertools
import ssl
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.serving.cluster.membership import DEAD, MembershipTable
from repro.serving.cluster.ring import EmptyRingError, HashRing
from repro.serving.gateway import protocol
from repro.serving.gateway.client import AsyncGatewayClient, GatewayError
from repro.serving.gateway.protocol import Frame, FrameType
from repro.serving.gateway.security import TenantAuthenticator
from repro.serving.listener import FrameListener, _Connection
from repro.serving.observability.metrics import MetricsRegistry, counted
from repro.serving.observability.metrics import published, tally, total
from repro.serving.observability.tracing import TraceRecord, Tracer

__all__ = ["ClusterRouter", "RouterStats", "RouterTicket"]


#: STATS-reply key order of :meth:`RouterStats.as_dict`.
_ROUTER_KEYS = (
    "connections_total", "submits", "forwarded", "delivered", "errors", "redispatched",
    "node_deaths", "node_heals", "duplicates_suppressed", "protocol_errors",
    "handshakes_rejected", "auth_failed",
)


@dataclass
class RouterStats:
    """Router-level operational counters, published at scrape time.

    ``forwarded``, ``delivered``, ``errors``, ``node_deaths`` and
    ``node_heals`` are sums over the per-shard / per-code tallies.
    """

    connections_total: int = counted(
        "repro_router_connections_total", "Client connections accepted."
    )
    submits: int = counted("repro_router_submits_total", "SUBMIT frames received from clients.")
    forwarded_by_node: Counter = tally(
        ("node",),
        published("repro_router_forwarded_total", "SUBMIT frames forwarded, by owning shard."),
    )
    delivered_by_node: Counter = tally(
        ("node",),
        published(
            "repro_router_delivered_total",
            "RESULT frames fanned back to clients, by serving shard.",
        ),
    )
    errors_by_code: Counter = tally(
        ("code",),
        published("repro_router_errors_total", "ERROR frames relayed or originated, by code."),
    )
    redispatched: int = counted(
        "repro_router_redispatched_total",
        "Tickets redispatched to the ring successor after a shard died.",
    )
    deaths_by_node: Counter = tally(
        ("node",),
        published(
            "repro_router_node_deaths_total",
            "Shards declared dead (missed heartbeats or refused connects).",
        ),
    )
    heals_by_node: Counter = tally(
        ("node",), published("repro_router_node_heals_total", "Dead shards revived into the ring.")
    )
    duplicates_suppressed: int = counted(
        "repro_router_duplicates_suppressed_total",
        "Late RESULT/ERROR frames with no pending ticket, dropped.",
    )
    protocol_errors: int = counted(
        "repro_router_protocol_errors_total", "Frames rejected as malformed after the handshake."
    )
    handshakes_rejected: int = counted(
        "repro_router_handshakes_rejected_total", "Connections whose HELLO exchange failed."
    )
    auth_failed: int = counted(
        "repro_router_auth_failed_total", "Handshakes rejected for a missing or wrong bearer token."
    )
    forwarded = total("forwarded_by_node")
    delivered = total("delivered_by_node")
    errors = total("errors_by_code")
    node_deaths = total("deaths_by_node")
    node_heals = total("heals_by_node")

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of the counters (the STATS reply body)."""
        return {key: getattr(self, key) for key in _ROUTER_KEYS}


class _RouterInstruments:
    """The ``repro_router_*`` gauges (its counters are
    :class:`RouterStats` fields)."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.g_nodes_alive = metrics.gauge(
            "repro_router_nodes_alive", "Shards currently in the ring."
        ).labels()
        self.g_tickets = metrics.gauge(
            "repro_router_tickets_in_flight", "Tickets accepted but unresolved."
        ).labels()
        self.g_connections = metrics.gauge(
            "repro_router_connections", "Currently open client connections."
        ).labels()


@dataclass
class _RouterTenant:
    """What the router knows about a connection's tenant (duck-typed
    into ``_Connection.tenant``; only router code reads it)."""

    tenant_id: str
    slo_class: str = "?"


@dataclass
class RouterTicket:
    """One client SUBMIT in flight through the cluster."""

    ticket_id: int
    connection: _Connection
    tenant: str
    client_request_id: int
    frame: Frame  # the SUBMIT as received (body reused on redispatch)
    received: float
    node: str | None = None
    retried: bool = False
    done: bool = False
    trace: TraceRecord | None = field(default=None, repr=False)


class ClusterRouter(FrameListener):
    """Tenant-affine routing tier over N gateway shards.

    Parameters
    ----------
    shards:
        ``node_id -> "host:port"`` (or ``(host, port)``) for every
        shard.  All start alive; health is then heartbeat-driven.
    vnodes:
        :class:`HashRing` virtual nodes per shard (lookups use the
        ring's default probe count).
    heartbeat_s:
        Per-node STATS heartbeat interval; each attempt also times out
        after this long, so a silent (SIGSTOPped) shard is declared
        dead after roughly ``2 * heartbeat_s * miss_limit``.
    miss_limit:
        Consecutive heartbeat misses before a shard is declared dead.
    heal_interval_s:
        Probe interval for dead shards (default ``4 * heartbeat_s``).
    affinity:
        True routes by ring ownership (the point of the cluster);
        False round-robins every submit across alive shards — the
        control arm ``bench_cluster.py`` uses to show what random
        routing does to shard cache hit rates.
    probe_tenant:
        Tenant id used for heartbeat/control connections; shard tenant
        directories must resolve it (any default-class directory does).
    connect_timeout_s:
        Per-attempt connect + handshake deadline for upstreams.
    ssl_context:
        Listener-side TLS (:func:`~repro.serving.gateway.security
        .server_ssl_context`): clients connect to the router over TLS;
        the wire protocol is unchanged on top.
    upstream_ssl:
        Client-side TLS (:func:`~repro.serving.gateway.security
        .client_ssl_context`) for every router->shard hop — data
        connections, heartbeats, probes, and reload broadcasts alike.
        Build it with ``certfile``/``keyfile`` when the shards demand a
        client certificate (mutual TLS), so shards accept only their
        router.
    shard_token:
        Bearer token the router presents on every upstream HELLO —
        provision it as a *service token* in the shards' tenant config,
        so the router authenticates for any tenant it forwards without
        holding per-tenant secrets.
    auth:
        A :class:`~repro.serving.gateway.security.TenantAuthenticator`
        verifying *client* tokens at the router's own edge; failures
        reject with ``auth_failed`` before any shard is contacted.
    """

    name = "repro-router"

    def __init__(
        self,
        shards: Mapping[str, str | tuple[str, int]],
        *,
        vnodes: int = 64,
        heartbeat_s: float = 0.5,
        miss_limit: int = 3,
        heal_interval_s: float | None = None,
        affinity: bool = True,
        probe_tenant: str = "cluster-probe",
        connect_timeout_s: float = 2.0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        ssl_context: ssl.SSLContext | None = None,
        upstream_ssl: ssl.SSLContext | None = None,
        shard_token: str | None = None,
        auth: TenantAuthenticator | None = None,
    ) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        self._addresses: dict[str, tuple[str, int]] = {}
        for node_id, address in shards.items():
            self._addresses[str(node_id)] = self._parse_address(address)
        self.ring = HashRing(self._addresses, vnodes=vnodes)
        self.membership = MembershipTable(
            heartbeat_s=heartbeat_s, miss_limit=miss_limit
        )
        for node_id, address in self._addresses.items():
            self.membership.add(node_id, address)
        self.heartbeat_s = float(heartbeat_s)
        self.heal_interval_s = (
            4.0 * heartbeat_s if heal_interval_s is None else float(heal_interval_s)
        )
        self.affinity = bool(affinity)
        self.probe_tenant = probe_tenant
        self.connect_timeout_s = float(connect_timeout_s)
        self.upstream_ssl = upstream_ssl
        self.shard_token = shard_token
        self.auth = auth
        self.clock = time.monotonic
        super().__init__(
            RouterStats(), metrics=metrics, tracer=tracer, ssl_context=ssl_context
        )
        self._m = _RouterInstruments(self._metrics)
        self._ticket_ids = itertools.count(1)
        self._rr = itertools.count()
        self._tickets: dict[int, RouterTicket] = {}
        #: Node loops, ticket drivers and control-plane work, all
        #: cancelled at close.
        self._tasks: set[asyncio.Task] = set()
        self._upstreams: dict[tuple[str, str], asyncio.Task] = {}
        self._controls: dict[str, AsyncGatewayClient] = {}
        #: Per-shard forward->deliver latency EWMA (seconds); redispatched
        #: tickets are excluded, mirroring the worker pool's EWMA hygiene.
        self._latency_ewma: dict[str, float] = {}
        self._metrics.register_collector(self._collect_metrics)

    @staticmethod
    def _parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if not host:
                raise ValueError(f"shard address {address!r} is not HOST:PORT")
            return host, int(port)
        host, port = address
        return str(host), int(port)

    def _collect_metrics(self) -> None:
        self._m.g_nodes_alive.set(len(self.ring))
        self._m.g_tickets.set(len(self._tickets))
        self._m.g_connections.set(len(self._connections))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        for node_id in self._addresses:
            self._schedule(self._node_loop(node_id))

    async def _on_close(self) -> None:
        """Fail open tickets and close every upstream."""
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for ticket in list(self._tickets.values()):
            if not ticket.done:
                self._fail(ticket, "router_shutdown", "router shutting down")
        self._tickets.clear()
        for key in list(self._upstreams):
            await self._close_upstream(key)
        for node_id in list(self._controls):
            await self._close_control(node_id)

    def _schedule(self, coroutine) -> asyncio.Task:
        task = asyncio.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # ------------------------------------------------------------------
    # Shard selection + upstream pool
    # ------------------------------------------------------------------
    def _pick_node(self, tenant: str) -> str:
        if self.affinity:
            return self.ring.owner(tenant)
        nodes = self.ring.nodes
        if not nodes:
            raise EmptyRingError("hash ring has no nodes")
        return nodes[next(self._rr) % len(nodes)]

    async def _connect(self, node_id: str, tenant: str, role: str) -> AsyncGatewayClient:
        """Open a client to ``node_id`` for ``tenant``, presenting the
        router's shard token over the upstream TLS context."""
        host, port = self._addresses[node_id]
        return await AsyncGatewayClient.connect(
            host,
            port,
            tenant=tenant,
            client=f"{self.name}-{role}",
            connect_timeout_s=self.connect_timeout_s,
            token=self.shard_token,
            ssl=self.upstream_ssl,
        )

    def _spawn_upstream(self, key: tuple[str, str]) -> asyncio.Task:
        node_id, tenant = key
        task = asyncio.create_task(self._connect(node_id, tenant, f">{node_id}"))
        self._upstreams[key] = task
        return task

    @staticmethod
    def _settled_client(task: asyncio.Task) -> AsyncGatewayClient | None:
        """The client a *finished* connect task produced, if any.
        (Sync on purpose: reading a done task's result never blocks.)"""
        if not task.done() or task.cancelled() or task.exception() is not None:
            return None
        return task.result()

    def _stale(self, task: asyncio.Task) -> bool:
        """Whether a pooled connect task can no longer yield a usable
        client (failed, cancelled, or its connection since closed)."""
        if not task.done():
            return False
        client = self._settled_client(task)
        return client is None or client.closed

    async def _upstream(self, node_id: str, tenant: str) -> AsyncGatewayClient:
        """The pooled client for ``(node_id, tenant)``, (re)connecting
        as needed.  Raises ConnectionError/OSError on transport failure
        and GatewayError when the shard rejects the tenant."""
        key = (node_id, tenant)
        task = self._upstreams.get(key)
        if task is None or self._stale(task):
            task = self._spawn_upstream(key)
        try:
            client = await asyncio.shield(task)
        except asyncio.CancelledError:
            if task.cancelled():
                # The pool was torn down (node declared dead) while we
                # waited; surface as a transport failure, not a cancel.
                raise ConnectionError(f"connect to {node_id} aborted") from None
            raise
        except (ConnectionError, OSError):
            if self._upstreams.get(key) is task:
                self._upstreams.pop(key, None)
            raise
        if client.on_orphan is None:
            client.on_orphan = self._count_orphan
        return client

    async def _upstream_for_tenant(self, tenant: str) -> tuple[str, AsyncGatewayClient]:
        """Resolve the shard for ``tenant`` and a live connection to it.

        Connect failures mark the target dead and retry on the ring
        successor — they never consume a ticket's redispatch budget,
        because an unconnectable shard cannot have received the SUBMIT
        (no duplication risk).  Raises EmptyRingError when every shard
        is dead, and GatewayError on a policy rejection.
        """
        while True:
            node_id = self._pick_node(tenant)
            try:
                client = await self._upstream(node_id, tenant)
            except (ConnectionError, OSError) as error:
                self._declare_dead(node_id, f"connect failed: {error}")
                continue
            if client.closed:
                self._upstreams.pop((node_id, tenant), None)
                continue
            return node_id, client

    def _count_orphan(self, frame: Frame) -> None:
        self.stats.duplicates_suppressed += 1

    async def _close_upstream(self, key: tuple[str, str]) -> None:
        task = self._upstreams.pop(key, None)
        if task is None:
            return
        if not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        client = self._settled_client(task)
        if client is not None:
            # Closing fails the client's pending futures with
            # ConnectionError, which is what triggers ticket redispatch.
            await client.aclose()

    async def _close_control(self, node_id: str) -> None:
        control = self._controls.pop(node_id, None)
        if control is not None:
            await control.aclose()

    # ------------------------------------------------------------------
    # Membership transitions
    # ------------------------------------------------------------------
    def _declare_dead(self, node_id: str, reason: str) -> None:
        """Idempotently take a shard out of service: membership, ring,
        and its connection pool (whose closure redispatches airborne
        tickets)."""
        if self.membership.mark_dead(node_id, reason=reason):
            self._retire(node_id)

    def _retire(self, node_id: str) -> None:
        """Side effects of a shard that membership just declared dead."""
        self.stats.deaths_by_node[node_id] += 1
        self.ring.remove(node_id)
        self._schedule(self._teardown_node(node_id))

    async def _teardown_node(self, node_id: str) -> None:
        await self._close_control(node_id)
        for key in [k for k in self._upstreams if k[0] == node_id]:
            await self._close_upstream(key)

    def _revive(self, node_id: str, summary: Mapping | None) -> None:
        if self.membership.heartbeat(node_id, summary=summary):
            self.stats.heals_by_node[node_id] += 1
            self.ring.add(node_id)

    # ------------------------------------------------------------------
    # Per-node heartbeat / heal loop
    # ------------------------------------------------------------------
    async def _node_loop(self, node_id: str) -> None:
        """Heartbeat the shard; a dead one is probed, less often, the
        same way — its first answer heals it."""
        try:
            while self._running:
                dead = self.membership.get(node_id).state == DEAD
                await asyncio.sleep(self.heal_interval_s if dead else self.heartbeat_s)
                if self._running:
                    await self._heartbeat(node_id)
        except asyncio.CancelledError:
            pass

    def _condense(self, snapshot: Mapping) -> dict:
        """The slice of a shard STATS snapshot worth keeping in the
        membership table (and re-serving from the router's snapshot)."""
        engine = snapshot.get("engine") or {}
        return {
            "node_id": snapshot.get("node_id"),
            "model_version": snapshot.get("model_version"),
            "connections": snapshot.get("connections"),
            "queued": snapshot.get("queued"),
            "requests": engine.get("requests"),
            "tenant_registry": snapshot.get("tenant_registry"),
        }

    async def _heartbeat(self, node_id: str) -> None:
        """One STATS round trip on the node's control connection; a
        timeout, transport error, or node-id mismatch counts a miss, an
        answer from a dead shard revives it."""
        try:
            control = self._controls.get(node_id)
            if control is None or control.closed:
                control = await self._connect(node_id, self.probe_tenant, "heartbeat")
                self._controls[node_id] = control
            snapshot = await asyncio.wait_for(
                control.stats(), timeout=self.heartbeat_s
            )
        except (ConnectionError, OSError, GatewayError, asyncio.TimeoutError) as error:
            reason = repr(error)
        else:
            echoed = snapshot.get("node_id")
            if echoed is None or echoed == node_id:
                self._revive(node_id, self._condense(snapshot))
                return
            reason = f"node_id mismatch: shard says {echoed!r}"
        # Drop the control connection so a late reply cannot be misread
        # as the *next* heartbeat's answer.
        await self._close_control(node_id)
        if self.membership.miss(node_id, reason=reason):
            self._retire(node_id)

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    async def _resolve_tenant(self, connection: _Connection, tenant_id: str) -> Frame:
        """Resolve the tenant's home shard, pre-warm its pooled
        connection, and echo the shard's SLO terms back."""
        try:
            node_id, upstream = await self._upstream_for_tenant(tenant_id)
        except EmptyRingError:
            return protocol.error_frame("no_nodes", "no alive shards in the ring")
        except GatewayError as error:
            # The shard rejected this tenant (e.g. unknown_tenant):
            # relay the rejection verbatim.
            return protocol.error_frame(error.code, str(error))
        connection.tenant = _RouterTenant(tenant_id, upstream.slo_class)
        return protocol.hello_reply(
            server=self.name,
            tenant=tenant_id,
            slo_class=upstream.slo_class,
            slo_ms=upstream.slo_ms,
            model_version=upstream.model_version,
            node_id=node_id,
        )

    def _on_reload(self, connection: _Connection) -> None:
        self._schedule(self._broadcast_reload(connection))

    def _reclaim(self, connection: _Connection) -> None:
        """A client vanished: mark its tickets done so late shard
        results are dropped instead of delivered to a dead socket."""
        for ticket in self._tickets.values():
            if ticket.connection is connection and not ticket.done:
                ticket.done = True
                if ticket.trace is not None:
                    ticket.trace.finish("shed", code="disconnect")

    # ------------------------------------------------------------------
    # Tickets
    # ------------------------------------------------------------------
    def _on_submit(self, connection: _Connection, frame: Frame) -> None:
        tenant = connection.tenant
        assert tenant is not None
        self.stats.submits += 1
        raw_id = frame.meta.get("id")
        if not isinstance(raw_id, int):
            self.stats.protocol_errors += 1
            connection.send(
                protocol.error_frame("bad_submit", "SUBMIT meta needs an int id")
            )
            return
        ticket = RouterTicket(
            ticket_id=next(self._ticket_ids),
            connection=connection,
            tenant=tenant.tenant_id,
            client_request_id=raw_id,
            frame=frame,
            received=self.clock(),
        )
        if self.tracer is not None:
            ticket.trace = self.tracer.begin(
                tenant=tenant.tenant_id,
                slo_class=tenant.slo_class,
                request_id=raw_id,
                submit=ticket.received,
            )
            ticket.trace.mark_admitted(ticket.received)
        self._tickets[ticket.ticket_id] = ticket
        self._schedule(self._run_ticket(ticket))

    async def _run_ticket(self, ticket: RouterTicket) -> None:
        """Drive one ticket to a terminal: delivered, relayed error, or
        failed after exhausting the single redispatch budget."""
        try:
            while True:
                try:
                    result = await self._forward_once(ticket)
                except EmptyRingError:
                    self._fail(ticket, "no_nodes", "no alive shards in the ring")
                    return
                except GatewayError as error:
                    # A shard-side rejection (shed, rate_limited, ...)
                    # passes through: policy decisions belong to the
                    # owning shard, the router never retries them.
                    self._fail(ticket, error.code, str(error), terminal="shed")
                    return
                except (ConnectionError, OSError) as error:
                    # The connection died after the SUBMIT may have been
                    # delivered: the shard might have served it (reply
                    # lost with the socket), so this redispatch is the
                    # at-most-once retry.  The shard's own disconnect
                    # reclamation discards the orphaned request, so the
                    # successor's result is the only one a client sees.
                    if ticket.done:
                        return
                    if ticket.retried:
                        self._fail(
                            ticket,
                            "node_lost",
                            f"shard died twice serving this request: {error}",
                        )
                        return
                    ticket.retried = True
                    self.stats.redispatched += 1
                    if ticket.trace is not None:
                        ticket.trace.retried = True
                    continue
                else:
                    self._deliver(ticket, result)
                    return
        finally:
            self._tickets.pop(ticket.ticket_id, None)

    async def _forward_once(self, ticket: RouterTicket) -> Frame:
        """Forward the ticket's SUBMIT to the current owner and await
        the raw RESULT frame."""
        node_id, upstream = await self._upstream_for_tenant(ticket.tenant)
        ticket.node = node_id
        self.stats.forwarded_by_node[node_id] += 1
        sent = self.clock()
        if ticket.trace is not None:
            ticket.trace.mark_dispatched(
                sent, batch_size=1, model_version=upstream.model_version
            )
        _, future = upstream.forward_nowait(ticket.frame)
        await upstream.drain()
        result = await future
        if not ticket.retried:
            sample = self.clock() - sent
            previous = self._latency_ewma.get(node_id)
            self._latency_ewma[node_id] = (
                sample if previous is None else 0.8 * previous + 0.2 * sample
            )
        return result

    def _deliver(self, ticket: RouterTicket, frame: Frame) -> None:
        if ticket.done:
            return  # client left; the shard's work is dropped here
        ticket.done = True
        node_id = ticket.node or "?"
        meta = dict(frame.meta)
        meta["id"] = ticket.client_request_id
        meta.setdefault("node_id", node_id)
        if ticket.retried:
            meta["retried"] = True
        ticket.connection.send(Frame(FrameType.RESULT, meta, frame.body))
        self.stats.delivered_by_node[node_id] += 1
        if ticket.trace is not None:
            ticket.trace.mark_landed(
                self.clock(), worker=None, retried=ticket.retried
            )
            ticket.trace.finish("delivered")

    def _fail(
        self, ticket: RouterTicket, code: str, message: str, terminal: str = "error"
    ) -> None:
        if ticket.done:
            return
        ticket.done = True
        self.stats.errors_by_code[code] += 1
        ticket.connection.send(
            protocol.error_frame(code, message, request_id=ticket.client_request_id)
        )
        if ticket.trace is not None:
            ticket.trace.finish(terminal, code=code)

    # ------------------------------------------------------------------
    # Control-plane frames
    # ------------------------------------------------------------------
    async def _broadcast_reload(self, connection: _Connection) -> None:
        """Fan a RELOAD out to every alive shard over short-lived
        connections (control connections stay heartbeat-only so replies
        can't interleave); reply with the fleet's highest version."""
        versions: list[int] = []
        swapped = False
        failures: list[str] = []
        for node_id in self.ring.nodes:
            try:
                client = await self._connect(node_id, self.probe_tenant, "reload")
            except (ConnectionError, OSError, GatewayError) as error:
                failures.append(f"{node_id}: {error}")
                continue
            try:
                reply = await client.reload()
                versions.append(int(reply.get("model_version", 0)))
                swapped = swapped or bool(reply.get("swapped"))
            except GatewayError as error:
                failures.append(f"{node_id}: {error}")
            except (ConnectionError, OSError) as error:
                failures.append(f"{node_id}: {error}")
            finally:
                await client.aclose()
        if failures or not versions:
            connection.send(
                protocol.error_frame(
                    "reload_failed", "; ".join(failures) or "no alive shards"
                )
            )
            return
        connection.send(
            protocol.reload_frame(model_version=max(versions), swapped=swapped)
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Operational summary (the STATS reply): ring, membership,
        per-shard counters, and open work."""
        membership = self.membership.snapshot()
        shards = {}
        for node_id in self._addresses:
            record = self.membership.get(node_id)
            ewma = self._latency_ewma.get(node_id)
            shards[node_id] = {
                **membership[node_id],
                "deaths": self.stats.deaths_by_node[node_id],
                "heals": self.stats.heals_by_node[node_id],
                "forwarded": self.stats.forwarded_by_node[node_id],
                "delivered": self.stats.delivered_by_node[node_id],
                "forward_ewma_ms": None if ewma is None else ewma * 1e3,
                "summary": record.summary,
            }
        return {
            "server": self.name,
            "role": "router",
            "policy": "affinity" if self.affinity else "spread",
            "ring": self.ring.snapshot(),
            "heartbeat_s": self.heartbeat_s,
            "miss_limit": self.membership.miss_limit,
            "connections": self.num_connections,
            "tickets_in_flight": len(self._tickets),
            "router": self.stats.as_dict(),
            "shards": shards,
        }
