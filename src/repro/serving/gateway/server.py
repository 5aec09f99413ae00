"""Asyncio TCP front-end over the shared inference engine.

PR 1–2 built a serving layer any *in-process* caller can batch through;
:class:`GatewayServer` pushes it across the host boundary.  Remote edge
clients (the paper's sensor -> host split) open one TCP connection each,
speak the :mod:`~repro.serving.gateway.protocol` wire format, and stream
normalised gesture clouds at the server; the server multiplexes every
connection into the one micro-batched
:class:`~repro.serving.engine.InferenceEngine`.

Concurrency model — all *state* stays on the event loop; *execution*
goes wherever the engine's backend puts it:

* every connection handler, the admission queue, the tenant counters,
  and the engine live on the server's event loop; no locks anywhere;
* a **dedicated flush loop** task owns the engine: it wakes on new
  admissions, on airborne-batch completions (the engine's
  ``on_batch_complete`` hook kicks the loop threadsafely from whatever
  thread the backend lands a batch in), or on a short poll tick for
  hedge checks; it feeds queued requests into the engine in weighted
  priority order up to the scheduler's adaptive batch limit — stopping
  while every backend slot is busy, so overload keeps pooling (and
  shedding) in the admission queue — and lets ``engine.poll`` collect
  whatever has landed and dispatch the moment a backend slot is free;
* batching is **work-conserving**: the backend never idles while work
  waits, so a lone request is dispatched at once instead of lingering
  toward its deadline, and batches grow (in the admission queue) only
  while every slot is busy;
* with a thread or process backend, a dispatched batch is **airborne**
  while the loop goes straight back to reading sockets: exec overlaps
  socket IO instead of stalling it, which is where the multi-worker
  throughput comes from (``benchmarks/bench_workers.py``);
* :class:`~repro.serving.engine.Ticket` callbacks fire inside the flush
  loop (at collection, on the loop thread) and resolve each request by
  enqueueing its RESULT/ERROR frame onto the owning connection's
  outbox, which a per-connection writer task drains (with TCP
  backpressure via ``drain()``);
* a disconnected client's queued work is *reclaimed*, not served: its
  admission-queue entries are purged and its in-engine requests
  cancelled through ``engine.discard_pending`` — including requests
  already airborne, whose delivery is suppressed at collection — so a
  dead socket cannot burn batch capacity on undeliverable results.

Overload lands where the tenant config says it should: per-tenant
in-flight caps reject with explicit backpressure, and a full admission
queue sheds the oldest ``batch``-class requests first, keeping the
``premium`` tier's p95 inside its SLO (measured by
``benchmarks/bench_gateway.py``).

For blocking callers (tests, examples, the benchmark harness),
:class:`BackgroundGateway` runs a server on a daemon thread with its own
event loop.
"""

from __future__ import annotations

import asyncio
import ssl
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.pipeline import GesturePrint
from repro.serving.backends import ExecutionBackend
from repro.serving.engine import InferenceEngine, SampleResult
from repro.serving.scheduler import BatchScheduler
from repro.serving.gateway import protocol
from repro.serving.gateway.protocol import Frame, FrameType, ProtocolError, VersionMismatch
from repro.serving.gateway.quota import QuotaLedger
from repro.serving.gateway.tenants import AdmissionQueue, Tenant, TenantDirectory
from repro.serving.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS, MetricsRegistry, StatsExporter, get_metrics,
)
from repro.serving.observability.metrics import counted, published, tally, total
from repro.serving.observability.tracing import TraceRecord, Tracer
from repro.serving.registry import ModelRegistry


@dataclass
class GatewayRequest:
    """One admitted SUBMIT on its way through admission -> engine."""

    connection: "_Connection"
    tenant: Tenant
    request_id: int
    sample: np.ndarray
    deadline_ms: float | None
    received: float  # engine-clock arrival (SUBMIT decode time)
    trace: TraceRecord | None = None


#: STATS-reply key order of :meth:`GatewayStats.as_dict`.
_GATEWAY_KEYS = (
    "connections_total", "handshakes_rejected", "submits", "results", "shed", "rejected",
    "rate_limited", "auth_failed", "quota_exceeded", "classify_errors", "protocol_errors",
    "reloads", "tenant_model_hits", "tenant_model_misses",
)


@dataclass
class GatewayStats:
    """Server-level operational counters, published at scrape time.

    ``submits``, ``results`` and the four refusal counts are sums over
    the per-label tallies, so each event is counted once.
    """

    connections_total: int = counted("repro_gateway_connections_total", "TCP connections accepted.")
    handshakes_rejected: int = counted(
        "repro_gateway_handshakes_rejected_total", "Connections dropped during the HELLO exchange."
    )
    #: (tenant, slo_class) -> SUBMIT frames received.
    submits_by_tenant: Counter = tally(
        ("tenant", "slo_class"),
        published("repro_gateway_submits_total", "SUBMIT frames received (admitted or not)."),
    )
    #: (tenant, slo_class) -> RESULT frames delivered.
    results_by_tenant: Counter = tally(
        ("tenant", "slo_class"),
        published("repro_gateway_results_total", "RESULT frames delivered to clients."),
    )
    #: (tenant, code) -> requests refused or shed.
    rejections: Counter = tally(
        ("tenant", "code"),
        published("repro_gateway_rejected_total", "Requests refused or shed, by rejection code."),
        published(
            "repro_gateway_quota_exceeded_total",
            "SUBMITs refused because a calendar budget was exhausted.",
            code="quota_exceeded",
        ),
    )
    auth_failed: int = counted(
        "repro_gateway_auth_failed_total",
        "Handshakes rejected for a missing or wrong bearer token.",
    )
    classify_errors: int = counted(
        "repro_gateway_classify_errors_total", "Admitted requests that failed inside the engine."
    )
    protocol_errors: int = counted(
        "repro_gateway_protocol_errors_total", "Frames rejected as malformed after the handshake."
    )
    reloads: int = counted("repro_gateway_reloads_total", "Successful RELOAD round trips.")
    tenant_model_hits: int = counted(
        "repro_gateway_tenant_model_hits_total",
        "Admitted requests whose tenant's model was registry-resident.",
    )
    tenant_model_misses: int = counted(
        "repro_gateway_tenant_model_misses_total",
        "Admitted requests that had to (re)load their tenant's model.",
    )
    submits = total("submits_by_tenant")
    results = total("results_by_tenant")
    shed = total("rejections", code="shed")
    rate_limited = total("rejections", code="rate_limited")
    quota_exceeded = total("rejections", code="quota_exceeded")

    @property
    def rejected(self) -> int:
        """Refusals under any other code (``over_capacity``, ``queue_full``)."""
        refused = sum(self.rejections.values())
        return refused - self.shed - self.rate_limited - self.quota_exceeded

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view of the counters (the STATS reply body)."""
        return {key: getattr(self, key) for key in _GATEWAY_KEYS}


class _GatewayInstruments:
    """The gateway's ``repro_gateway_*`` histograms and gauges (its
    counters are :class:`GatewayStats` fields).  Per-tenant children are
    looked up at call time — tenants appear dynamically."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.quota_used = metrics.gauge(
            "repro_gateway_quota_used",
            "Usage inside the current quota window, per tenant and axis.",
            labelnames=("tenant", "window", "resource"),
        )
        self.quota_limit = metrics.gauge(
            "repro_gateway_quota_limit",
            "Configured budget for the same (tenant, window, resource).",
            labelnames=("tenant", "window", "resource"),
        )
        self.request_latency = metrics.histogram(
            "repro_gateway_request_latency_seconds",
            "SUBMIT-decode to RESULT-enqueue latency, per SLO class.",
            labelnames=("slo_class",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.g_connections = metrics.gauge(
            "repro_gateway_connections", "Currently open client connections."
        ).labels()
        self.g_queued = metrics.gauge(
            "repro_gateway_queued", "Requests pooled in the admission queue."
        ).labels()
        self.g_in_flight = metrics.gauge(
            "repro_gateway_tenant_in_flight",
            "Admitted-but-unresolved requests per tenant.",
            labelnames=("tenant",),
        )


class _Connection:
    """Per-client state: identity after HELLO, plus the write side."""

    __slots__ = (
        "reader", "writer", "tenant", "client_name", "outbox", "closed",
        "max_outbox",
    )

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_outbox: int = 1024,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.tenant: Tenant | None = None
        self.client_name = "?"
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
            self.closed = True
            self.outbox.put_nowait(None)
            try:
                self.writer.close()
            except Exception:
                pass
            return
        self.outbox.put_nowait(protocol.encode_frame(frame))

    async def read_hello(self, timeout_s: float) -> Frame | None:
        """The client's HELLO frame, or None after an ERROR reply (a
        protocol version mismatch, or anything but HELLO first)."""
        try:
            frame = await asyncio.wait_for(protocol.read_frame(self.reader), timeout_s)
        except VersionMismatch as error:
            self.send(protocol.error_frame(error.code, str(error)))
            return None
        if frame is None or frame.kind is not FrameType.HELLO:
            self.send(protocol.error_frame("bad_handshake", "expected a HELLO frame first"))
            return None
        self.client_name = str(frame.meta.get("client", "?"))
        return frame

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


def answer_trace(
    connection: _Connection, frame: Frame, tracer: Tracer | None, stats
) -> None:
    """Reply to a TRACE frame by draining up to ``limit`` trace records.

    Shared by the gateway and the router.  A ``limit`` that is not a
    non-negative int is refused with a ``bad_trace`` ERROR frame and
    counted in ``stats.protocol_errors``; the connection stays open.
    """
    limit = frame.meta.get("limit")
    if limit is not None and (type(limit) is not int or limit < 0):
        stats.protocol_errors += 1
        connection.send(
            protocol.error_frame(
                "bad_trace", f"TRACE limit must be a non-negative int, got {limit!r}"
            )
        )
        return
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


class GatewayServer:
    """Socket front-end: TCP connections -> tenant admission -> engine.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.pipeline.GesturePrint` (ignored when
        an ``engine`` is passed).
    engine / scheduler / backend:
        Share an existing engine, or configure the private one.  The
        default scheduler targets ``slo_ms`` with the adaptive batch
        limit *and* the p95 safety-margin controller enabled — a network
        front-end lives or dies by its tail latency.  ``backend`` picks
        where batches execute (``repro.serving.backends``; default
        inline): with a thread or process pool the flush loop overlaps
        batch execution with socket IO and runs up to ``backend.slots``
        batches concurrently.  A backend passed here (or riding an
        external engine) is owned by the caller — close it after
        ``aclose``.
    hedge_ms:
        Tail-latency hedging for the private engine (see
        :class:`~repro.serving.engine.InferenceEngine`): a positive
        number hedges any batch airborne longer than that many
        milliseconds; ``"auto"`` derives the threshold from the
        scheduler's observed p95.  Like ``backend=``, it only configures
        the private engine — an external ``engine=`` brings its own
        hedging policy.
    tenants:
        A :class:`~repro.serving.gateway.tenants.TenantDirectory`;
        defaults to the stock premium/standard/batch tiers with unknown
        tenants mapped to ``standard``.
    queue_limit:
        Admission-room bound; beyond it the shedding policy engages.
    poll_interval_s:
        Flush-loop tick when nothing kicks it: the precision of hedge
        placement and of deadline checks on batches still assembling.
        Admissions and landings kick the loop directly, so the tick adds
        no latency to a request that finds a backend slot free.
    max_outbox_frames:
        Per-connection cap on result frames queued for a client that is
        not reading them; at the cap the connection is dropped and its
        pending work reclaimed (a slow consumer must not grow server
        memory without bound).
    reload_hook:
        Zero-arg callable returning the current ``model_version`` after
        re-checking the checkpoint (the CLI wires this to
        ``ModelRegistry.load(..., on_change=engine.swap_system)``); RELOAD
        frames answer ``reload_unavailable`` without one.
    metrics:
        Destination for the ``repro_gateway_*`` series; defaults to the
        process-global registry (scraped through
        ``repro serve --metrics-port`` or ``render_text``).
    tracer:
        A :class:`~repro.serving.observability.tracing.Tracer`; when
        given, every SUBMIT begins a :class:`TraceRecord` (tenant, SLO
        class, request id) that rides the request through admission and
        the engine to exactly one terminal — ``delivered``, ``shed``
        (with the rejection code), or ``error``.  Clients drain the ring
        remotely with a TRACE frame; pass ``Tracer(sink=TraceLog(path))``
        for an on-disk JSONL feed.  The private engine adopts this
        tracer; an external ``engine=`` keeps its own (gateway-begun
        traces still flow through it either way).
    node_id:
        Cluster identity of this shard.  When set it is stamped into
        HELLO replies, RESULT frames, and the STATS snapshot so a
        router (and ``bench_cluster.py``) can attribute traffic per
        shard.
    tenant_registry:
        A :class:`~repro.serving.registry.ModelRegistry` tracking
        *per-tenant* model residency: every admitted SUBMIT touches the
        key ``tenant::<tenant_id>``, loading it on first sight, so the
        registry's LRU models which tenants' weights this shard keeps
        hot.  Its hit rate is the tenant-affinity measure a consistent-
        hash router maximises and random routing destroys — the STATS
        snapshot summarises it under ``tenant_registry``.
    ssl_context:
        An :func:`~repro.serving.gateway.security.server_ssl_context`;
        when given the listener speaks TLS (the wire protocol rides on
        top unchanged).  Build it with ``cafile=`` to additionally
        require client certificates — the mutual-TLS posture a shard
        uses so only its cluster router can connect.
    quota:
        A :class:`~repro.serving.gateway.quota.QuotaLedger` enforcing
        per-tenant calendar budgets *above* the token buckets: checked
        before admission (rejecting with ``quota_exceeded``, distinct
        from ``rate_limited``), charged on admission (requests) and
        delivery (compute-seconds), flushed to its state file on
        ``aclose`` so budgets survive a restart.
    """

    def __init__(
        self,
        system: GesturePrint | None = None,
        *,
        engine: InferenceEngine | None = None,
        scheduler: BatchScheduler | None = None,
        backend: ExecutionBackend | None = None,
        hedge_ms: float | str | None = None,
        tenants: TenantDirectory | None = None,
        max_batch_size: int = 32,
        slo_ms: float | None = 50.0,
        queue_limit: int = 256,
        poll_interval_s: float = 0.005,
        max_outbox_frames: int = 1024,
        handshake_timeout_s: float = 10.0,
        reload_hook: Callable[[], int] | None = None,
        name: str = "repro-gateway",
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        node_id: str | None = None,
        tenant_registry: ModelRegistry | None = None,
        ssl_context: ssl.SSLContext | None = None,
        quota: QuotaLedger | None = None,
    ) -> None:
        if engine is not None and backend is not None:
            raise ValueError(
                "backend= only configures the private engine; an external "
                "engine= brings its own backend (this pool would never be "
                "used, only leaked)"
            )
        if engine is not None and hedge_ms is not None:
            raise ValueError(
                "hedge_ms= only configures the private engine; an external "
                "engine= brings its own hedging policy"
            )
        if engine is None:
            if system is None:
                raise ValueError("pass a fitted system or an engine")
            if scheduler is None and slo_ms is not None:
                scheduler = BatchScheduler(
                    slo_ms=slo_ms, max_batch=max_batch_size, adapt_margin=True,
                    metrics=metrics,
                )
            engine = InferenceEngine(
                system,
                max_batch_size=max_batch_size,
                scheduler=scheduler,
                backend=backend,
                hedge_ms=hedge_ms,
                metrics=metrics,
                tracer=tracer,
            )
        self.engine = engine
        self._metrics = metrics if metrics is not None else get_metrics()
        self._m = _GatewayInstruments(self._metrics)
        #: Gateway-begun traces flow through whatever tracer the engine
        #: ended up with (an external engine keeps its own).
        self.tracer = tracer if tracer is not None else engine.tracer
        self.tenants = tenants if tenants is not None else TenantDirectory()
        self.admission = AdmissionQueue(
            self.tenants.classes.values(),
            queue_limit=queue_limit,
            clock=self.engine.clock,
        )
        self.poll_interval_s = poll_interval_s
        self.max_outbox_frames = max_outbox_frames
        self.handshake_timeout_s = handshake_timeout_s
        self.reload_hook = reload_hook
        self.name = name
        self.node_id = node_id
        self._tenant_registry = tenant_registry
        self._ssl_context = ssl_context
        self.quota = quota
        self.stats = GatewayStats()
        self._exporter = StatsExporter(self._metrics, self.stats)
        self.address: tuple[str, int] | None = None
        #: The scheduler's configured SLO, restored when no SLO-carrying
        #: tenant is connected (see :meth:`_refresh_slo`).
        self._base_slo_ms = (
            self.engine.scheduler.slo_ms if self.engine.scheduler is not None else None
        )
        self._connections: set[_Connection] = set()
        self._server: asyncio.base_events.Server | None = None
        self._flush_task: asyncio.Task | None = None
        self._kick: asyncio.Event | None = None
        self._running = False
        self._metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Scrape-time gauges: connection/queue depth + tenant in-flight.

        Runs on the scraper's thread, off the event loop: it only reads
        integers (atomic under the GIL), the same guarantee the STATS
        snapshot already leans on.
        """
        self._m.g_connections.set(len(self._connections))
        self._m.g_queued.set(len(self.admission))
        for tenant in self.tenants.tenants:
            self._m.g_in_flight.labels(tenant.tenant_id).set(
                tenant.stats.in_flight
            )
        if self.quota is not None:
            for tenant_id, record in self.quota.snapshot().items():
                policy = record["policy"] or {}
                for window in ("day", "month"):
                    usage = record[window]
                    kind = "daily" if window == "day" else "monthly"
                    for resource, used in (
                        ("requests", usage["requests"]),
                        ("compute_s", usage["compute_s"]),
                    ):
                        self._m.quota_used.labels(
                            tenant_id, window, resource
                        ).set(used)
                        limit = policy.get(f"{kind}_{resource}")
                        if limit is not None:
                            self._m.quota_limit.labels(
                                tenant_id, window, resource
                            ).set(limit)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._running:
            raise RuntimeError("server already started")
        self._kick = asyncio.Event()
        loop = asyncio.get_running_loop()
        kick = self._kick

        def _wake_flush_loop() -> None:
            # Fired by the engine from whatever thread the backend lands
            # a batch in; hop onto the loop so collection is prompt
            # instead of waiting out the poll tick.
            try:
                loop.call_soon_threadsafe(kick.set)
            except RuntimeError:
                pass  # loop already closed during shutdown

        self.engine.on_batch_complete = _wake_flush_loop
        self._server = await asyncio.start_server(
            self._on_connection, host, port, ssl=self._ssl_context
        )
        self._running = True
        self._flush_task = asyncio.create_task(self._flush_loop())
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Serve until cancelled (start() must have been awaited)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, drop connections, and drain the flush loop."""
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
        for connection in list(self._connections):
            self._drop_connection(connection)
        # Anything still queued or in the engine is undeliverable now.
        for request in self.admission.purge(lambda _request: True):
            if request.trace is not None:
                request.trace.finish("shed", code="shutdown")

        def _release(meta) -> bool:
            if isinstance(meta, GatewayRequest):
                meta.tenant.stats.in_flight -= 1
                return True
            return False

        self.engine.discard_pending(_release, code="shutdown")
        self.engine.on_batch_complete = None
        # Settle airborne batches so a pooled backend can be closed
        # immediately after; their deliveries were suppressed above.
        self.engine.drain()
        if self.quota is not None:
            self.quota.close()  # persist unsynced charges across restart
        self._metrics.unregister_collector(self._collect_metrics)
        self._exporter.close()

    @property
    def num_connections(self) -> int:
        """Currently open client connections."""
        return len(self._connections)

    # ------------------------------------------------------------------
    # Flush loop: the only code that touches the engine
    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        assert self._kick is not None
        while self._running:
            try:
                await asyncio.wait_for(self._kick.wait(), self.poll_interval_s)
            except asyncio.TimeoutError:
                pass
            self._kick.clear()
            while self._running and self._pump_once():
                # Yield between batches: new frames get *read* (and
                # admitted, and prioritised) while a backlog drains, so
                # a premium request arriving mid-flood waits at most a
                # couple of batch executions, not the whole queue.  With
                # a pooled backend the dispatched batch is airborne by
                # now — the loop is already back to socket IO while the
                # executor runs it, and the engine's completion hook
                # kicks us the moment it lands.
                #
                # The yield must outlast the reader tasks, not just the
                # selector: each sleep(0) resumes this task ahead of the
                # work queued behind it — read callbacks after the first
                # (they wake the reader tasks), the readers' parsing and
                # admission after the second — so the third resumes with
                # the buffered frames admitted.  An inline batch blocks
                # the loop while a burst arrives; a shorter yield would
                # put part of it on the free slot as a partial batch and
                # leave the rest unread behind it.
                for _ in range(3):
                    await asyncio.sleep(0)

    def _pump_once(self) -> bool:
        """One batch cycle: feed up to the batch limit, dispatch it.

        Work-conserving: while a backend slot is free, whatever was fed
        is dispatched at once (``engine.poll(dispatch_idle=True)``) — a
        lone request never waits for company or for its deadline.
        Feeding stops at the adaptive batch limit, and stops entirely
        while every backend slot is busy, so the *admission queue* is
        where batches grow, and where overload pools (and sheds), until
        a landing frees a slot and kicks the loop.  Deadlines order that
        queue; the scheduler's depth and deadline triggers still release
        a batch first when they fire, and each release is counted under
        the trigger that fired.  Returns whether any work happened (the
        flush loop keeps pumping, with yields in between, until it
        reports idle; idle-with-airborne parks on the kick event until a
        completion lands).
        """
        engine = self.engine
        # Collect whatever the backend finished; a freed slot takes
        # anything left pending (e.g. behind a hedge that held the slot).
        landed = engine.poll(dispatch_idle=True)
        budget = 0
        # slot_free counts hedge duplicates too: while a hedge borrows a
        # slot, feeding pauses so the duplicate work displaces *queued*
        # admission-room requests, never a premium batch mid-assembly.
        if engine.slot_free:
            budget = max(engine.batch_limit - engine.num_pending, 0)
        # Class-pure composition: one cycle drains one class, so a
        # premium batch never waits out batch-class rows sharing its
        # vectorised call; lower classes get the very next cycle.
        batch = self.admission.take_front_class(budget) if budget else []
        for request in batch:
            self._feed(request)
        flushed = engine.poll(dispatch_idle=True) if batch else []
        return bool(batch) or bool(flushed) or bool(landed)

    def _feed(self, request: GatewayRequest) -> None:
        try:
            self.engine.submit(
                request.sample,
                meta=request,
                callback=lambda result, request=request: self._deliver(request, result),
                on_error=lambda error, request=request: self._classify_failed(
                    request, error
                ),
                arrival=request.received,
                deadline_ms=request.deadline_ms,
                priority=request.tenant.slo_class.priority,
                defer_flush=True,  # the pump polls right after feeding
                trace=request.trace,
            )
        except ValueError as error:
            # Engine validation (wrong channel count, ...): fail this
            # request, keep the flush loop and the connection alive.
            self._classify_failed(request, error)

    def _deliver(self, request: GatewayRequest, result: SampleResult) -> None:
        tenant = request.tenant
        tenant.stats.delivered += 1
        tenant.stats.in_flight -= 1
        latency_s = self.engine.clock() - request.received
        tenant.stats.record_latency(latency_s)
        if self.quota is not None:
            self.quota.charge_compute(tenant.tenant_id, latency_s)
        self.stats.results_by_tenant[tenant.tenant_id, tenant.slo_class.name] += 1
        self._m.request_latency.labels(tenant.slo_class.name).observe(latency_s)
        request.connection.send(
            protocol.result_frame(request.request_id, result, node_id=self.node_id)
        )

    def _classify_failed(self, request: GatewayRequest, error: Exception) -> None:
        tenant = request.tenant
        tenant.stats.failed += 1
        tenant.stats.in_flight -= 1
        self.stats.classify_errors += 1
        request.connection.send(
            protocol.error_frame(
                "classify_failed", str(error), request_id=request.request_id
            )
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer, max_outbox=self.max_outbox_frames)
        self.stats.connections_total += 1
        writer_task = asyncio.create_task(connection.write_loop())
        try:
            if not await self._handshake(connection):
                self.stats.handshakes_rejected += 1
                return
            self._connections.add(connection)
            self._refresh_slo()
            await self._serve_frames(connection)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        except ProtocolError as error:
            self.stats.protocol_errors += 1
            connection.send(protocol.error_frame(error.code, str(error)))
        finally:
            self._connections.discard(connection)
            self._refresh_slo()
            self._reclaim(connection)
            connection.closed = True
            connection.outbox.put_nowait(None)  # let queued frames flush out
            try:
                await asyncio.wait_for(writer_task, timeout=5.0)
            except (asyncio.TimeoutError, ConnectionError):
                writer_task.cancel()
            self._drop_connection(connection)

    async def _handshake(self, connection: _Connection) -> bool:
        """HELLO exchange; False (after an ERROR reply) on any rejection."""
        frame = await connection.read_hello(self.handshake_timeout_s)
        if frame is None:
            return False
        tenant_id = str(frame.meta.get("tenant", "anonymous"))
        # Authenticate before resolve: a stranger with a bad token must
        # not materialise a tenant record (or learn whether the id is
        # known — the authenticator's decoy compare keeps timing flat).
        raw_token = frame.meta.get("token")
        token = raw_token if isinstance(raw_token, str) else None
        if not self.tenants.authenticate(tenant_id, token):
            self.stats.auth_failed += 1
            connection.send(
                protocol.error_frame(
                    "auth_failed",
                    f"bearer token missing or invalid for tenant {tenant_id!r}",
                )
            )
            return False
        tenant = self.tenants.resolve(tenant_id)
        if tenant is None:
            connection.send(
                protocol.error_frame(
                    "unknown_tenant",
                    f"tenant {tenant_id!r} has no assignment and the "
                    "directory rejects unknown tenants",
                )
            )
            return False
        connection.tenant = tenant
        connection.send(
            protocol.hello_reply(
                server=self.name,
                tenant=tenant.tenant_id,
                slo_class=tenant.slo_class.name,
                slo_ms=tenant.slo_class.slo_ms,
                model_version=self.engine.model_version,
                node_id=self.node_id,
            )
        )
        return True

    async def _serve_frames(self, connection: _Connection) -> None:
        while True:
            frame = await protocol.read_frame(connection.reader)
            if frame is None:
                return  # clean EOF
            if frame.kind is FrameType.SUBMIT:
                self._on_submit(connection, frame)
            elif frame.kind is FrameType.STATS:
                connection.send(protocol.stats_frame(self.snapshot()))
            elif frame.kind is FrameType.RELOAD:
                self._on_reload(connection)
            elif frame.kind is FrameType.TRACE:
                answer_trace(connection, frame, self.tracer, self.stats)
            else:
                connection.send(
                    protocol.error_frame(
                        "unexpected_frame",
                        f"cannot handle {frame.kind.name} after the handshake",
                    )
                )

    def _on_submit(self, connection: _Connection, frame: Frame) -> None:
        tenant = connection.tenant
        assert tenant is not None
        self.stats.submits_by_tenant[tenant.tenant_id, tenant.slo_class.name] += 1
        try:
            request_id, sample, deadline_ms = protocol.decode_submit(frame)
        except ProtocolError as error:
            self.stats.protocol_errors += 1
            # The id is untrusted here (decode may have rejected it):
            # echo it only when it is actually an int.
            raw_id = frame.meta.get("id")
            connection.send(
                protocol.error_frame(
                    error.code,
                    str(error),
                    request_id=raw_id if isinstance(raw_id, int) else None,
                )
            )
            return
        if deadline_ms is None:
            deadline_ms = tenant.slo_class.slo_ms
        request = GatewayRequest(
            connection=connection,
            tenant=tenant,
            request_id=request_id,
            sample=sample,
            deadline_ms=deadline_ms,
            received=self.engine.clock(),
        )
        if self.tracer is not None:
            request.trace = self.tracer.begin(
                tenant=tenant.tenant_id,
                slo_class=tenant.slo_class.name,
                request_id=request_id,
                submit=request.received,
            )
        # Quota sits *above* the token bucket: a calendar budget is a
        # harder "no" than a rate limit, so it is checked first and
        # rejects with its own code — a client must not read a burst
        # limit into an exhausted monthly budget.
        if self.quota is not None:
            reason = self.quota.check(tenant.tenant_id)
            if reason is not None:
                self.stats.rejections[tenant.tenant_id, "quota_exceeded"] += 1
                if request.trace is not None:
                    request.trace.finish("shed", code="quota_exceeded")
                connection.send(
                    protocol.error_frame(
                        "quota_exceeded",
                        f"tenant {tenant.tenant_id!r}: {reason}",
                        request_id=request_id,
                    )
                )
                return
        # The arrival timestamp drives the tenant's token-bucket refill,
        # so admission metering and deadline scheduling share one clock.
        admitted, reject_code, victims = self.admission.offer(
            request, now=request.received
        )
        for victim in victims:
            self.stats.rejections[victim.tenant.tenant_id, "shed"] += 1
            if victim.trace is not None:
                victim.trace.finish("shed", code="shed")
            victim.connection.send(
                protocol.error_frame(
                    "shed",
                    "shed under overload to protect higher-priority tenants",
                    request_id=victim.request_id,
                )
            )
        if not admitted:
            self.stats.rejections[tenant.tenant_id, reject_code] += 1
            if request.trace is not None:
                request.trace.finish("shed", code=reject_code)
            connection.send(
                protocol.error_frame(
                    reject_code,
                    f"request rejected ({reject_code}) for tenant "
                    f"{tenant.tenant_id!r} [{tenant.slo_class.name}]",
                    request_id=request_id,
                )
            )
            return
        if request.trace is not None:
            request.trace.mark_admitted(request.received)
        if self.quota is not None:
            self.quota.charge_request(tenant.tenant_id)
        if self._tenant_registry is not None:
            self._touch_tenant_model(tenant.tenant_id)
        assert self._kick is not None
        self._kick.set()

    def _touch_tenant_model(self, tenant_id: str) -> None:
        """Track per-tenant model residency in the tenant registry.

        Every tenant shares this shard's weights today (per-user
        fine-tuning is a separate ROADMAP item), but the LRU dynamics
        are the real thing: a tenant outside the registry pays a model
        (re)load on arrival and evicts someone else.  The hit/miss
        split is the affinity signal ``bench_cluster.py`` asserts on.
        """
        registry = self._tenant_registry
        assert registry is not None
        key = f"tenant::{tenant_id}"
        if registry.get(key) is not None:
            self.stats.tenant_model_hits += 1
        else:
            self.stats.tenant_model_misses += 1
            registry.put(key, self.engine.system)

    def _on_reload(self, connection: _Connection) -> None:
        if self.reload_hook is None:
            connection.send(
                protocol.error_frame(
                    "reload_unavailable", "server was started without a reload hook"
                )
            )
            return
        before = self.engine.model_version
        try:
            version = int(self.reload_hook())
        except Exception as error:  # checkpoint mid-write, IO error, ...
            connection.send(protocol.error_frame("reload_failed", str(error)))
            return
        self.stats.reloads += 1
        connection.send(
            protocol.reload_frame(model_version=version, swapped=version != before)
        )

    # ------------------------------------------------------------------
    def reload_tenants(self, config: dict) -> None:
        """Apply a new ``--tenants`` config to a *running* server.

        Must run on the serving event loop (the CLI's reload hook hops
        there).  Delegates to :meth:`TenantDirectory.reload` for the
        directory semantics — class changes apply to queued requests,
        auth to the next handshake, quota budgets to the next request —
        then re-buckets the admission queue under the new class objects
        and re-derives the scheduler's SLO, the two pieces of *server*
        state that were built from the old classes.  Historically the
        queue kept credit rows for classes that no longer existed and
        KeyError'd on the first post-reload offer; ``rebind`` is the
        fix, and ``tests/serving/test_security.py`` pins it.
        """
        self.tenants.reload(config)
        self.admission.rebind(self.tenants.classes.values())
        self._refresh_slo()

    def _refresh_slo(self) -> None:
        """Point the scheduler's SLO at the tightest *connected* class.

        The adaptive batch limit bounds a batch's execution by the SLO
        budget — but bounding it by a premium SLO while only backfill
        tenants are connected wastes throughput, and bounding it by a lax
        one while a premium tenant is live ruins that tenant's tail (a
        premium request arriving mid-flush waits out the whole batch).
        So the budget follows who is actually on the wire: the minimum
        ``slo_ms`` over connected tenants' classes, falling back to the
        configured default when none of them carries an SLO.
        """
        scheduler = self.engine.scheduler
        if scheduler is None:
            return
        active = [
            connection.tenant.slo_class.slo_ms
            for connection in self._connections
            if connection.tenant is not None
            and connection.tenant.slo_class.slo_ms is not None
        ]
        scheduler.slo_ms = min(active) if active else self._base_slo_ms

    def _reclaim(self, connection: _Connection) -> None:
        """Reclaim a dead connection's queued and in-engine requests."""
        purged = self.admission.purge(
            lambda request: request.connection is connection
        )
        for request in purged:
            if request.trace is not None:
                request.trace.finish("shed", code="disconnect")

        def _release(meta) -> bool:
            if isinstance(meta, GatewayRequest) and meta.connection is connection:
                meta.tenant.stats.in_flight -= 1
                return True
            return False

        self.engine.discard_pending(_release, code="disconnect")

    def _drop_connection(self, connection: _Connection) -> None:
        connection.closed = True
        try:
            connection.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Operational summary (the STATS reply)."""
        engine_stats = self.engine.stats
        scheduler = self.engine.scheduler
        return {
            "server": self.name,
            "node_id": self.node_id,
            "tenant_registry": self._tenant_registry_summary(),
            "model_version": self.engine.model_version,
            "connections": self.num_connections,
            "queued": len(self.admission),
            "queue_depths": self.admission.depths,
            "gateway": self.stats.as_dict(),
            "engine": {
                "requests": engine_stats.requests,
                "batches": engine_stats.batches,
                "batched_samples": engine_stats.batched_samples,
                "mean_batch": engine_stats.mean_batch,
                "max_batch": engine_stats.max_batch,
                "failed_batches": engine_stats.failed_batches,
                "retried_batches": engine_stats.retried_batches,
                "hedged_batches": engine_stats.hedged_batches,
                "hedge_wins": engine_stats.hedge_wins,
                "precision": self.engine.precision,
                "swaps": engine_stats.swaps,
                "in_flight": self.engine.num_in_flight,
                # A supervised process pool's describe() carries the
                # per-worker health rows plus respawn/crash/redispatch
                # counters, so a STATS frame answers "did we lose a
                # worker, and did it heal?" remotely.
                "backend": self.engine.backend.describe(),
            },
            "scheduler": scheduler.snapshot() if scheduler is not None else None,
            "tenants": self.tenants.snapshot(),
            "auth": {
                "enabled": self.tenants.auth is not None,
                "required": (
                    self.tenants.auth.required
                    if self.tenants.auth is not None
                    else False
                ),
                "tenants_with_tokens": (
                    self.tenants.auth.tenant_ids
                    if self.tenants.auth is not None
                    else []
                ),
            },
            "quota": self.quota.snapshot() if self.quota is not None else None,
        }

    def _tenant_registry_summary(self) -> dict | None:
        """Residency summary for the STATS snapshot: which tenants are
        model-hot on this shard and how often arrivals found them so.
        Counters are the *gateway's* (per-admitted-SUBMIT), not the
        registry's own, so other registry traffic can't dilute them."""
        registry = self._tenant_registry
        if registry is None:
            return None
        hits = self.stats.tenant_model_hits
        misses = self.stats.tenant_model_misses
        total = hits + misses
        prefix = "tenant::"
        return {
            "capacity": registry.capacity,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
            "resident_tenants": sorted(
                key[len(prefix):]
                for key in registry.keys()
                if key.startswith(prefix)
            ),
        }


class BackgroundGateway:
    """Run a :class:`GatewayServer` on a daemon thread with its own loop.

    The blocking world's handle on the async server: tests, examples,
    benchmarks, and ordinary scripts do::

        with BackgroundGateway(server) as (host, port):
            client = GatewayClient(host, port, tenant="edge-7")
            ...

    All server state stays confined to the background loop; the owning
    thread only ever reads the bound address and signals shutdown.
    """

    def __init__(
        self, server: GatewayServer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = server
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None
        self.address: tuple[str, int] | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.address = await self.server.start(self._host, self._port)
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.aclose()

    def start(self) -> tuple[str, int]:
        """Spawn the loop thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("background gateway already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="gateway-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("gateway failed to start") from self._error
        if self.address is None:
            raise RuntimeError("gateway did not come up within 30 s")
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        """Signal shutdown and join the loop thread (idempotent)."""
        if self._thread is None or self._loop is None or self._stop is None:
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *_exc_info) -> None:
        self.stop()
