"""The three workloads: ``sparse``, ``saturated`` and ``frames``.

:func:`run_workload` builds the workload's stack :data:`SETUP_REPEATS`
times (timing each build as ``setup_s``), measures for ``seconds``,
checks every output, and returns an :class:`Outcome`.  With
``trace=True`` it instead measures an untraced leg and a traced leg of
``seconds / 2`` each and returns the per-layer split (see
``perfbench/README.md``).
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from benchmarks.common import percentile
from perfbench.fixture import Fixture
from perfbench.harness import (
    PROBE_REFERENCE_S,
    HostProbe,
    SpanRecorder,
    accuracies,
    covered_time,
    ms_percentile,
    result_mismatch,
    self_times,
)
from perfbench.loadgen import LoadGenerator, Request
from repro.core import GesturePrintRuntime, load_system
from repro.radar import Frame
from repro.serving import (
    ClusterRouter,
    GatewayServer,
    InferenceEngine,
    MetricsRegistry,
    ModelRegistry,
    StreamHub,
    Tracer,
)
from repro.serving.gateway import quantise_sample

#: Stack builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Host probes after each stack build of a compute-bound workload.
SETUP_PROBES = 5
#: Open-loop offered load of ``sparse`` (requests per second, both
#: connections together) — far below the ~500 ev/s inline capacity.
SPARSE_RATE_PER_S = 30.0
#: Sequential ``deadline_ms=0`` requests per connection in the warm-up.
SPARSE_WARMUP = 8
#: Slice length (s) over which ``saturated`` and ``frames`` scale their
#: times by the host's speed.
SLICE_S = 2.0
#: Requests each ``saturated`` connection keeps in flight.
SATURATED_WINDOW = 32
#: Closed-loop requests per connection in the ``saturated`` warm-up
#: (lets the adaptive batch limit settle before measuring).
SATURATED_WARMUP = 128
FRAME_STREAMS = 8
#: Empty frames after every recording.  A recording's own idle tail
#: carries arm-at-rest residue the segmenter can read as motion, so
#: back-to-back recordings would merge into one segment; this gap gives
#: the segmenter the all-static window it needs to close each gesture
#: (inside a ``push_round``, the stream's last one included).
FRAME_GAP_IDLE = 12
#: Rounds of a throw-away composition pushed by the ``frames`` warm-up.
FRAME_WARMUP_ROUNDS = 60
#: Distinct stream compositions a ``frames`` run cycles through; each is
#: replayed once through standalone runtimes for the output check.
FRAME_COMPOSITIONS = 3
#: Router-hop probes per path (direct and via the router) in the traced run.
HOP_PROBES = 60
TRACE_CAPACITY = 1 << 17

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "gra": "fraction",
    "uia": "fraction",
}

LAYER_UNITS = {
    "nn.fps.ms": "ms",
    "nn.fps.calls": "count",
    "nn.ball_query.ms": "ms",
    "nn.ball_query.calls": "count",
    "nn.group_points.ms": "ms",
    "nn.shared_mlp.ms": "ms",
    "nn.sa.self_ms": "ms",
    "nn.global.ms": "ms",
    "nn.fusion_heads.self_ms": "ms",
    "core.predict.ms": "ms",
    "core.predict.rows": "rows",
    "core.predict.ms_per_row": "ms",
    "core.gesidnet.forwards_per_predict": "ratio",
    "core.gesidnet.ms": "ms",
    "preprocessing.segmenter_push.ms": "ms",
    "preprocessing.keep_main_cluster.ms": "ms",
    "preprocessing.keep_main_cluster.calls": "count",
    "preprocessing.normalize.ms": "ms",
    "hub.push_round.self_ms": "ms",
    "engine.batches": "count",
    "engine.mean_batch": "rows",
    "engine.queue_wait_p50_ms": "ms",
    "engine.exec_p50_ms": "ms",
    "engine.flush.self_ms": "ms",
    "scheduler.deadline_flushes": "count",
    "scheduler.depth_flushes": "count",
    "scheduler.batch_limit": "rows",
    "scheduler.linger_p50_ms": "ms",
    "gateway.admission_wait_p50_ms": "ms",
    "gateway.deliver_p50_ms": "ms",
    "gateway.wire_p50_ms": "ms",
    "gateway.shed": "count",
    "gateway.rejected": "count",
    "router.hop_p50_ms": "ms",
    "router.forwarded": "count",
    "router.redispatched": "count",
    "registry.load_ms": "ms",
    "loadgen.lag_p95_ms": "ms",
    "trace.overhead_pct": "%",
    "unattributed_ms": "ms",
}


@dataclass
class Outcome:
    """One run's metrics (``name -> (value, samples)``) and its checks."""

    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
class ServerLoop:
    """An asyncio loop on its own thread hosting every server of a stack.

    The main thread only coordinates (it blocks on the server loop or on
    the load generator's pipe), so the servers have the interpreter to
    themselves, as they would in a process of their own.
    """

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-servers", daemon=True
        )
        self.thread.start()

    def run(self, coroutine, timeout: float = 60.0):
        """Run ``coroutine`` on the server loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout)

    def close(self) -> None:
        async def _cancel_rest() -> None:
            rest = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)

        self.run(_cancel_rest(), timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def load_checkpoint(fixture: Fixture):
    """``(system, load seconds)`` through a fresh :class:`ModelRegistry`."""
    start = time.perf_counter()
    system = ModelRegistry(capacity=2).load(fixture.checkpoint)
    return system, time.perf_counter() - start


def wire_references(fixture: Fixture) -> list:
    """In-process ``predict_one(quantise_sample(x))`` of every pool sample,
    from an independent load of the same checkpoint."""
    engine = InferenceEngine(load_system(fixture.checkpoint), metrics=MetricsRegistry())
    try:
        return [engine.predict_one(quantise_sample(x)) for x in fixture.pool_x]
    finally:
        engine.close()


def check_requests(
    requests: list[Request], outcome: Outcome, references: list
) -> list[Request]:
    """Byte-check every delivered result; count the rest as failed.

    Returns the delivered requests.
    """
    delivered = [r for r in requests if r.result is not None]
    outcome.attempted += len(requests)
    outcome.failed += len(requests) - len(delivered)
    errors: dict[str, int] = {}
    for request in requests:
        if request.result is None:
            code = request.error or "no_reply"
            errors[code] = errors.get(code, 0) + 1
    if errors:
        outcome.details["errors"] = errors
    for request in delivered:
        why = result_mismatch(request.result, references[request.pool_index])
        if why is not None:
            outcome.mismatches.append(
                f"lane {request.lane} request {request.request_id} "
                f"(pool sample {request.pool_index}): {why}"
            )
    return delivered


def put_accuracy(
    fixture: Fixture, delivered: list[Request], outcome: Outcome
) -> None:
    gra, uia = accuracies(
        [r.result.gesture for r in delivered],
        [r.result.user for r in delivered],
        [int(fixture.pool_gesture[r.pool_index]) for r in delivered],
        [int(fixture.pool_user[r.pool_index]) for r in delivered],
    )
    outcome.put("gra", gra, len(delivered))
    outcome.put("uia", uia, len(delivered))


def put_latency(outcome: Outcome, latencies_s: list[float]) -> None:
    outcome.put("latency_p50_ms", ms_percentile(latencies_s, 50), len(latencies_s))
    outcome.put("latency_p95_ms", ms_percentile(latencies_s, 95), len(latencies_s))


def slice_by_time(items: list, when, start: float, seconds: float) -> list[list]:
    """``items`` in the window's :data:`SLICE_S` slices by ``when(item)``;
    items outside ``[start, start + seconds)`` are left out."""
    count = max(int(seconds // SLICE_S), 1)
    width = seconds / count
    grouped: list[list] = [[] for _ in range(count)]
    for item in items:
        offset = when(item) - start
        if 0 <= offset < seconds:
            grouped[min(int(offset / width), count - 1)].append(item)
    return grouped


def scaled_slices(
    items: list, when, readings: list[tuple[float, float]], start: float, seconds: float
) -> list[tuple[list, float]]:
    """``(items, scale)`` of every slice of the window that holds items.

    A small shared host drifts between speed states lasting tens of
    seconds, often a whole run (on a 2-core VM, a fixed ``predict`` loop
    read 10 and 16.5 batches/s in turn).  A slice's ``scale`` is
    :data:`PROBE_REFERENCE_S` over the median :class:`HostProbe` reading
    taken in it; multiplying a compute-bound time by it gives the time at
    the reference host speed.  A slice without readings (the program held
    the probing thread throughout) takes the scale of the nearest slice
    with some.  Every item in the window is kept, so a stall of the
    program anywhere in it still shows.
    """
    groups = slice_by_time(items, when, start, seconds)
    probes = slice_by_time(readings, lambda reading: reading[0], start, seconds)
    scales = [
        PROBE_REFERENCE_S / statistics.median(d for _, d in probe) if probe else None
        for probe in probes
    ]
    known = [i for i, scale in enumerate(scales) if scale is not None]
    if not known:
        raise RuntimeError("no host probe readings in the measured window")
    nearest = [scales[min(known, key=lambda j: abs(j - i))] for i in range(len(scales))]
    return [(group, scale) for group, scale in zip(groups, nearest) if group]


def host_scale() -> float:
    """The :func:`scaled_slices` scale of the host's speed right now."""
    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    return PROBE_REFERENCE_S / statistics.median(d for _, d in probe.readings)


def make_tracer(metrics: MetricsRegistry) -> Tracer:
    """A tracer whose ring holds a whole traced leg without dropping."""
    return Tracer(TRACE_CAPACITY, metrics=metrics)


def put_trace_stages(outcome: Outcome, records: list[dict], *, gateway: bool) -> None:
    """Per-request stages from terminal trace records (``Tracer.drain``).

    The records carry ``admission_wait_ms`` (submit->admitted),
    ``queue_wait_ms`` (admitted->dispatched, or submit->dispatched when
    nothing admitted it), ``exec_ms`` (dispatched->landed) and
    ``total_ms`` (submit->finished); delivery is what remains.
    """
    delivered = [r for r in records if r["terminal"] == "delivered"]
    admission = [r["admission_wait_ms"] or 0.0 for r in delivered]
    queue = [r["queue_wait_ms"] for r in delivered]
    execute = [r["exec_ms"] for r in delivered]
    stages = {
        "engine.queue_wait_p50_ms": [a + q for a, q in zip(admission, queue)],
        "engine.exec_p50_ms": execute,
    }
    if gateway:
        stages["scheduler.linger_p50_ms"] = queue
        stages["gateway.deliver_p50_ms"] = [
            r["total_ms"] - a - q - e
            for r, a, q, e in zip(delivered, admission, queue, execute)
        ]
    for metric, values in stages.items():
        value = percentile(values, 50)
        outcome.put(metric, 0.0 if value is None else value, len(values))


# ----------------------------------------------------------------------
# Span-derived per-layer metrics
# ----------------------------------------------------------------------
def span_metrics(
    recorder: SpanRecorder, outcome: Outcome, *, window_s: float, units: int, thread: int
) -> None:
    spans = recorder.spans
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def mean_ms(name: str, *, self_only: bool = False, keep=None) -> tuple[float, int]:
        chosen = [s for s in by_name.get(name, ()) if keep is None or keep(s)]
        if not chosen:
            return 0.0, 0
        values = [own[s.span_id] if self_only else s.duration for s in chosen]
        return 1e3 * sum(values) / len(values), len(values)

    def put_mean(metric: str, name: str, **kwargs) -> None:
        value, count = mean_ms(name, **kwargs)
        outcome.put(metric, value, count)

    def put_calls(metric: str, name: str) -> None:
        count = len(by_name.get(name, ()))
        outcome.put(metric, count, count)

    put_mean("nn.fps.ms", "nn.fps")
    put_calls("nn.fps.calls", "nn.fps")
    put_mean("nn.ball_query.ms", "nn.ball_query")
    put_calls("nn.ball_query.calls", "nn.ball_query")
    put_mean("nn.group_points.ms", "nn.group_points")
    put_mean("nn.shared_mlp.ms", "nn.shared_mlp")
    put_mean("nn.sa.self_ms", "nn.sa", self_only=True)
    put_mean("nn.global.ms", "nn.global")
    put_mean("nn.fusion_heads.self_ms", "core.gesidnet", self_only=True)
    predicts = by_name.get("core.predict", [])
    rows = sum(s.size for s in predicts)
    predict_ms = 1e3 * sum(s.duration for s in predicts)
    outcome.put("core.predict.ms", predict_ms / len(predicts) if predicts else 0.0, len(predicts))
    outcome.put("core.predict.rows", rows / len(predicts) if predicts else 0.0, len(predicts))
    outcome.put("core.predict.ms_per_row", predict_ms / rows if rows else 0.0, rows)
    forwards = len(by_name.get("core.gesidnet", ()))
    outcome.put(
        "core.gesidnet.forwards_per_predict",
        forwards / len(predicts) if predicts else 0.0,
        len(predicts),
    )
    put_mean("core.gesidnet.ms", "core.gesidnet")
    put_mean("preprocessing.segmenter_push.ms", "preprocessing.segmenter_push")
    put_mean("preprocessing.keep_main_cluster.ms", "preprocessing.keep_main_cluster")
    put_calls("preprocessing.keep_main_cluster.calls", "preprocessing.keep_main_cluster")
    put_mean("preprocessing.normalize.ms", "preprocessing.normalize")
    put_mean("hub.push_round.self_ms", "hub.push_round", self_only=True)
    # Engine release calls (flush, or a poll) that actually ran a batch.
    batch_parents = {s.parent for s in predicts}
    put_mean(
        "engine.flush.self_ms",
        "engine.flush",
        self_only=True,
        keep=lambda s: s.span_id in batch_parents,
    )
    waits = recorder.admission_waits
    outcome.put("gateway.admission_wait_p50_ms", ms_percentile(waits, 50), len(waits))
    uncovered = window_s - covered_time(spans, thread)
    outcome.put("unattributed_ms", 1e3 * uncovered / max(units, 1), units)


def fill_missing_layers(outcome: Outcome) -> None:
    """Layers a workload does not exercise report zero work."""
    for name in LAYER_UNITS:
        outcome.metrics.setdefault(name, (0.0, 0))


def overhead_pct(untraced: float, traced: float, *, higher_is_better: bool) -> float:
    if untraced <= 0:
        return 0.0
    change = (untraced - traced) if higher_is_better else (traced - untraced)
    return 100.0 * change / untraced


# ----------------------------------------------------------------------
# sparse: open loop through the router to two shards
# ----------------------------------------------------------------------
@dataclass
class ClusterStack:
    shards: dict[str, GatewayServer]
    router: ClusterRouter
    #: node id -> the tenant the ring places on it; lane ``i`` of the load
    #: generator is the tenant of the ``i``-th node in sorted order.
    tenants: dict[str, str]
    load_s: float
    setup_s: float


def build_cluster(
    fixture: Fixture, servers: ServerLoop, gen: LoadGenerator, *, traced: bool
) -> ClusterStack:
    start = time.perf_counter()
    system, load_s = load_checkpoint(fixture)
    metrics = MetricsRegistry()
    shards = {
        node: GatewayServer(
            system,
            node_id=node,
            metrics=metrics,
            tracer=make_tracer(metrics) if traced else None,
        )
        for node in ("a", "b")
    }
    addresses = {node: servers.run(s.start()) for node, s in shards.items()}
    router = ClusterRouter(
        addresses, metrics=metrics, tracer=make_tracer(metrics) if traced else None
    )
    router_address = servers.run(router.start())
    tenants: dict[str, str] = {}
    for candidate in (f"tenant-{i}" for i in range(1000)):
        tenants.setdefault(router.ring.owner(candidate), candidate)
        if len(tenants) == len(shards):
            break
    if sorted(tenants) != sorted(shards):
        raise RuntimeError(f"could not place one tenant per shard: {tenants}")
    while any(router.membership.get(n).last_heartbeat is None for n in shards):
        time.sleep(0.005)
    gen.call("connect", [(*router_address, tenants[node]) for node in sorted(tenants)])
    gen.call("warm", SPARSE_WARMUP)
    return ClusterStack(shards, router, tenants, load_s, time.perf_counter() - start)


def close_cluster(stack: ClusterStack, servers: ServerLoop, gen: LoadGenerator) -> None:
    gen.call("disconnect")
    servers.run(stack.router.aclose())
    for shard in stack.shards.values():
        servers.run(_close_gateway(shard))


async def _close_gateway(server: GatewayServer) -> None:
    await server.aclose()
    server.engine.close()


def _sparse(fixture: Fixture, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    with closing(ServerLoop()) as servers, closing(LoadGenerator(fixture.pool_x, seed)) as gen:
        if not trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                if setups:
                    close_cluster(stack, servers, gen)
                stack = build_cluster(fixture, servers, gen, traced=False)
                setups.append(stack.setup_s)
            records = gen.call("open_loop", SPARSE_RATE_PER_S, seconds)
            close_cluster(stack, servers, gen)
            delivered = check_requests(records, outcome, wire_references(fixture))
            outcome.put("setup_s", statistics.median(setups), len(setups))
            put_latency(outcome, [r.done - r.due for r in delivered])
            span = max(r.done for r in delivered) - min(r.due for r in records)
            outcome.put("throughput_per_s", len(delivered) / span, len(delivered))
            put_accuracy(fixture, delivered, outcome)
            return outcome

        half = seconds / 2
        # Untraced leg: the reference for the tracing overhead.
        stack = build_cluster(fixture, servers, gen, traced=False)
        load_times = [stack.load_s]
        plain = gen.call("open_loop", SPARSE_RATE_PER_S, half)
        close_cluster(stack, servers, gen)
        # Traced leg.
        stack = build_cluster(fixture, servers, gen, traced=True)
        load_times.append(stack.load_s)
        gateways = list(stack.shards.values())
        before = _counters(gateways, stack.router)
        for tracer in [g.tracer for g in gateways] + [stack.router.tracer]:
            tracer.drain()
        recorder = SpanRecorder()
        recorder.install()
        try:
            window_start = time.perf_counter()
            traced = gen.call("open_loop", SPARSE_RATE_PER_S, half)
            window_s = time.perf_counter() - window_start
        finally:
            recorder.uninstall()
        after = _counters(gateways, stack.router)
        shard_records = [r for g in gateways for r in g.tracer.drain()]
        router_records = stack.router.tracer.drain()
        hops = gen.call(
            "probes",
            [(*stack.shards[node].address, stack.tenants[node]) for node in sorted(stack.tenants)],
            HOP_PROBES,
        )
        batch_limits = [g.engine.scheduler.batch_limit for g in gateways]
        close_cluster(stack, servers, gen)

    references = wire_references(fixture)
    check_requests(plain, outcome, references)
    delivered = check_requests(traced, outcome, references)
    span_metrics(
        recorder, outcome, window_s=window_s, units=len(delivered), thread=servers.thread.ident
    )
    put_trace_stages(outcome, shard_records, gateway=True)
    lanes = [stack.tenants[node] for node in sorted(stack.tenants)]
    put_wire(outcome, lanes, delivered, router_records)
    put_counter_deltas(outcome, before, after)
    outcome.put("scheduler.batch_limit", float(np.mean(batch_limits)), len(batch_limits))
    outcome.put(
        "router.hop_p50_ms",
        ms_percentile(hops["via"], 50) - ms_percentile(hops["direct"], 50),
        HOP_PROBES,
    )
    outcome.put("registry.load_ms", 1e3 * statistics.median(load_times), len(load_times))
    lags = [r.sent - r.due for r in traced]
    outcome.put("loadgen.lag_p95_ms", ms_percentile(lags, 95), len(lags))
    plain_p50 = percentile([r.done - r.due for r in plain if r.result is not None], 50)
    traced_p50 = percentile([r.done - r.due for r in delivered], 50)
    outcome.put(
        "trace.overhead_pct",
        overhead_pct(plain_p50, traced_p50, higher_is_better=False),
        len(delivered),
    )
    return outcome


def _counters(gateways: list[GatewayServer], router: ClusterRouter | None = None) -> dict:
    totals = {
        "engine.batches": 0,
        "engine.samples": 0,
        "scheduler.deadline_flushes": 0,
        "scheduler.depth_flushes": 0,
        "gateway.shed": 0,
        "gateway.rejected": 0,
    }
    for server in gateways:
        totals["engine.batches"] += server.engine.stats.batches
        totals["engine.samples"] += server.engine.stats.batched_samples
        snapshot = server.engine.scheduler.snapshot()
        totals["scheduler.deadline_flushes"] += snapshot["deadline_flushes"]
        totals["scheduler.depth_flushes"] += snapshot["depth_flushes"]
        totals["gateway.shed"] += server.stats.shed
        totals["gateway.rejected"] += server.stats.rejected + server.stats.rate_limited
    if router is not None:
        totals["router.forwarded"] = router.stats.forwarded
        totals["router.redispatched"] = router.stats.redispatched
    return totals


def put_counter_deltas(outcome: Outcome, before: dict, after: dict) -> None:
    delta = {key: after[key] - before[key] for key in after}
    batches = delta.pop("engine.batches")
    samples = delta.pop("engine.samples")
    outcome.put("engine.batches", batches, batches)
    outcome.put("engine.mean_batch", samples / batches if batches else 0.0, batches)
    for key, value in delta.items():
        outcome.put(key, value, value)


def put_wire(
    outcome: Outcome, lanes: list[str], delivered: list[Request], records: list[dict]
) -> None:
    """Client round trip minus the server's submit->finished, per request.

    ``records`` are the terminal trace records of the server the clients
    talk to, matched by (tenant, request id); ``lanes[i]`` is the tenant
    of load-generator lane ``i``.
    """
    server_ms = {
        (r["tenant"], r["request_id"]): r["total_ms"]
        for r in records
        if r["terminal"] == "delivered"
    }
    values = []
    for request in delivered:
        total = server_ms.get((lanes[request.lane], request.request_id))
        if total is not None:
            values.append(1e3 * (request.done - request.sent) - total)
    value = percentile(values, 50)
    outcome.put("gateway.wire_p50_ms", 0.0 if value is None else value, len(values))


# ----------------------------------------------------------------------
# saturated: closed loop straight to one gateway
# ----------------------------------------------------------------------
SATURATED_TENANTS = ("client-0", "client-1")


@dataclass
class GatewayStack:
    server: GatewayServer
    load_s: float
    setup_s: float


def build_gateway(
    fixture: Fixture, servers: ServerLoop, gen: LoadGenerator, *, traced: bool
) -> GatewayStack:
    start = time.perf_counter()
    system, load_s = load_checkpoint(fixture)
    metrics = MetricsRegistry()
    server = GatewayServer(
        system, metrics=metrics, tracer=make_tracer(metrics) if traced else None
    )
    address = servers.run(server.start())
    gen.call("connect", [(*address, tenant) for tenant in SATURATED_TENANTS])
    gen.call("closed_loop", SATURATED_WINDOW, None, SATURATED_WARMUP)
    return GatewayStack(server, load_s, time.perf_counter() - start)


def close_gateway(stack: GatewayStack, servers: ServerLoop, gen: LoadGenerator) -> None:
    gen.call("disconnect")
    servers.run(_close_gateway(stack.server))


#: Requests in flight in the ``saturated`` closed loop.
SATURATED_IN_FLIGHT = SATURATED_WINDOW * len(SATURATED_TENANTS)


@dataclass
class SaturatedRun:
    """One measured ``saturated`` window."""

    start: float
    records: list[Request]
    #: ``(delivered requests, scale)`` per slice, see :func:`scaled_slices`.
    slices: list[tuple[list[Request], float]]
    #: Server-loop time the probe took (s).
    probe_s: float

    def round_trips(self, *, scaled: bool = True) -> list[float]:
        return [
            (scale if scaled else 1.0) * (r.done - r.sent)
            for group, scale in self.slices
            for r in group
        ]

    def throughput(self, *, scaled: bool = True) -> float:
        # A closed loop holds a fixed number in flight, so by Little's law
        # the delivery rate is that number over the mean round trip (a
        # count over whole slices would step a batch at a time).
        return SATURATED_IN_FLIGHT / statistics.fmean(self.round_trips(scaled=scaled))


def measure_saturated(servers: ServerLoop, gen: LoadGenerator, seconds: float) -> SaturatedRun:
    """Run the closed loop for ``seconds`` while a :class:`HostProbe`
    samples the host between the server loop's callbacks."""
    probe = HostProbe()
    probing = asyncio.run_coroutine_threadsafe(probe.sample_forever(), servers.loop)
    try:
        start, records = gen.call("closed_loop", SATURATED_WINDOW, seconds, None)
    finally:
        if not probing.cancel():
            probing.result()  # it ended early: raise the probe's error
    delivered = [r for r in records if r.result is not None]
    slices = scaled_slices(delivered, lambda r: r.done, probe.readings, start, seconds)
    return SaturatedRun(start, records, slices, probe.busy_s)


def _saturated(fixture: Fixture, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    with closing(ServerLoop()) as servers, closing(LoadGenerator(fixture.pool_x, seed)) as gen:
        if not trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                if setups:
                    close_gateway(stack, servers, gen)
                stack = build_gateway(fixture, servers, gen, traced=False)
                setups.append(host_scale() * stack.setup_s)
            run = measure_saturated(servers, gen, seconds)
            close_gateway(stack, servers, gen)
            delivered = check_requests(run.records, outcome, wire_references(fixture))
            round_trips = run.round_trips()
            unscaled = run.round_trips(scaled=False)
            outcome.details["slice_scales"] = [scale for _, scale in run.slices]
            outcome.details["unscaled"] = {
                "latency_p50_ms": ms_percentile(unscaled, 50),
                "latency_p95_ms": ms_percentile(unscaled, 95),
                "throughput_per_s": run.throughput(scaled=False),
            }
            outcome.put("setup_s", statistics.median(setups), len(setups))
            put_latency(outcome, round_trips)
            outcome.put("throughput_per_s", run.throughput(), len(round_trips))
            put_accuracy(fixture, delivered, outcome)
            return outcome

        half = seconds / 2
        stack = build_gateway(fixture, servers, gen, traced=False)
        load_times = [stack.load_s]
        plain = measure_saturated(servers, gen, half)
        close_gateway(stack, servers, gen)

        stack = build_gateway(fixture, servers, gen, traced=True)
        load_times.append(stack.load_s)
        server = stack.server
        before = _counters([server])
        server.tracer.drain()
        recorder = SpanRecorder()
        recorder.install()
        try:
            window_start = time.perf_counter()
            traced = measure_saturated(servers, gen, half)
            window_s = time.perf_counter() - window_start - traced.probe_s
        finally:
            recorder.uninstall()
        after = _counters([server])
        records = server.tracer.drain()
        batch_limit = server.engine.scheduler.batch_limit
        close_gateway(stack, servers, gen)

    references = wire_references(fixture)
    check_requests(plain.records, outcome, references)
    delivered = check_requests(traced.records, outcome, references)
    span_metrics(
        recorder, outcome, window_s=window_s, units=len(delivered), thread=servers.thread.ident
    )
    put_trace_stages(outcome, records, gateway=True)
    put_wire(outcome, list(SATURATED_TENANTS), delivered, records)
    put_counter_deltas(outcome, before, after)
    outcome.put("scheduler.batch_limit", batch_limit, 1)
    outcome.put("registry.load_ms", 1e3 * statistics.median(load_times), len(load_times))
    outcome.put(
        "trace.overhead_pct",
        overhead_pct(plain.throughput(), traced.throughput(), higher_is_better=True),
        len(delivered),
    )
    return outcome


# ----------------------------------------------------------------------
# frames: raw radar streams through an in-process StreamHub
# ----------------------------------------------------------------------
@dataclass
class Stream:
    stream_id: str
    seed: int
    frames: list
    #: ``(motion start, motion end, gesture, user)`` in stream frame indices.
    gestures: list[tuple[int, int, int, int]]


def deal_streams(fixture: Fixture, rng: np.random.Generator) -> list[Stream]:
    """Deal the whole frame bank into :data:`FRAME_STREAMS` streams.

    ``rng`` decides which recordings go to which stream, their order,
    and each stream's runtime seed (which drives point resampling).
    """
    bank = fixture.bank
    order = rng.permutation(bank.size)
    per_stream = bank.size // FRAME_STREAMS
    streams = []
    for s in range(FRAME_STREAMS):
        frames: list = []
        gestures = []
        for index in order[s * per_stream : (s + 1) * per_stream]:
            start, end = bank.motion[index]
            offset = len(frames)
            gestures.append(
                (offset + int(start), offset + int(end), int(bank.gesture[index]),
                 int(bank.user[index]))
            )
            frames.extend(bank.frames(index))
            frames.extend(Frame(np.zeros((0, 5))) for _ in range(FRAME_GAP_IDLE))
        streams.append(Stream(f"device-{s}", int(rng.integers(2**31)), frames, gestures))
    return streams


def compositions(fixture: Fixture, seed: int, count: int, purpose: int = 0) -> list:
    """``count`` seeded stream compositions, each a fresh deal of the bank."""
    rng = np.random.default_rng([seed, purpose, 0xF4A3E5])
    return [deal_streams(fixture, rng) for _ in range(count)]


def match_events(stream: Stream, events: list) -> dict[int, object]:
    """Gesture index -> the event overlapping its motion the most."""
    best: dict[int, tuple[int, object]] = {}
    for event in events:
        overlaps = [
            min(event.end_frame, end) - max(event.start_frame, start)
            for start, end, _, _ in stream.gestures
        ]
        index = int(np.argmax(overlaps))
        if overlaps[index] > 0 and overlaps[index] > best.get(index, (0, None))[0]:
            best[index] = (overlaps[index], event)
    return {index: event for index, (_, event) in best.items()}


def event_mismatch(got, want) -> str | None:
    for name in (
        "start_frame", "end_frame", "gesture", "gesture_confidence", "user",
        "user_confidence", "num_points",
    ):
        if getattr(got, name) != getattr(want, name):
            return f"{name} {getattr(got, name)} != {getattr(want, name)}"
    if np.asarray(got.user_probs).tobytes() != np.asarray(want.user_probs).tobytes():
        return "user_probs differ in their bytes"
    return None


@dataclass
class HubStack:
    hub: StreamHub
    load_s: float
    setup_s: float


@dataclass
class Round:
    """One ``push_round`` call."""

    start: float
    duration: float
    frames: int
    #: Events the call delivered; its duration is each one's latency.
    events: int


@dataclass
class Pass:
    """One composition pushed through the hub."""

    composition: int
    events: dict[str, list]
    rounds: list[Round]


def push_rate(rounds: list[Round]) -> float:
    """Frames pushed per second of ``push_round`` time, all streams together."""
    return sum(r.frames for r in rounds) / sum(r.duration for r in rounds)


def event_latencies(rounds: list[Round]) -> list[float]:
    return [r.duration for r in rounds for _ in range(r.events)]


def run_pass(
    hub: StreamHub,
    streams: list[Stream],
    rounds: int | None = None,
    composition: int = 0,
    probe: HostProbe | None = None,
) -> Pass:
    """Open every stream, push its rounds, close them again.

    Between rounds, outside the timed calls, ``probe`` samples the host.
    """
    for stream in streams:
        hub.open_stream(stream.stream_id, seed=stream.seed)
    total = max(len(stream.frames) for stream in streams)
    rounds = total if rounds is None else min(rounds, total)
    timed: list[Round] = []
    for r in range(rounds):
        batch = {s.stream_id: s.frames[r] for s in streams if r < len(s.frames)}
        pushed = time.perf_counter()
        delivered = hub.push_round(batch)
        timed.append(Round(pushed, time.perf_counter() - pushed, len(batch), len(delivered)))
        if probe is not None:
            probe.sample_if_due()
    events = {stream.stream_id: hub.events(stream.stream_id) for stream in streams}
    for stream in streams:
        hub.close_stream(stream.stream_id)
    return Pass(composition, events, timed)


def build_hub(fixture: Fixture, seed: int, *, traced: bool) -> HubStack:
    start = time.perf_counter()
    system, load_s = load_checkpoint(fixture)
    metrics = MetricsRegistry()
    engine = InferenceEngine(
        system, metrics=metrics, tracer=make_tracer(metrics) if traced else None
    )
    hub = StreamHub(engine=engine)
    (warmup,) = compositions(fixture, seed, 1, purpose=1)
    run_pass(hub, warmup, rounds=FRAME_WARMUP_ROUNDS)
    return HubStack(hub, load_s, time.perf_counter() - start)


@dataclass
class FramesRun:
    """One measured ``frames`` window."""

    passes: list[Pass]
    #: Wall time of the window less the probe's own time (s).
    window_s: float
    #: ``(rounds, scale)`` per slice, see :func:`scaled_slices`.
    slices: list[tuple[list[Round], float]]

    def rounds(self, *, scaled: bool = True) -> list[Round]:
        return [
            Round(r.start, (scale if scaled else 1.0) * r.duration, r.frames, r.events)
            for group, scale in self.slices
            for r in group
        ]


def measure_frames(hub: StreamHub, deals: list, seconds: float) -> FramesRun:
    """Whole passes, cycling through ``deals``, until ``seconds`` elapsed,
    with a :class:`HostProbe` sampling the host between rounds."""
    probe = HostProbe()
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        index = len(passes) % len(deals)
        passes.append(run_pass(hub, deals[index], composition=index, probe=probe))
    wall_s = time.perf_counter() - start
    rounds = [r for p in passes for r in p.rounds]
    slices = scaled_slices(rounds, lambda r: r.start, probe.readings, start, wall_s)
    return FramesRun(passes, wall_s - probe.busy_s, slices)


def check_frames(
    fixture: Fixture, deals: list, passes: list[Pass], outcome: Outcome
) -> tuple[list, list]:
    """Byte-check every event against a standalone runtime; count misses.

    Each stream of each composition is replayed once through a
    :class:`GesturePrintRuntime` with the stream's seed, and every pass
    of that composition is compared with the replay.  Returns
    ``(events, labels)`` of the gestures that produced an event.
    """
    system = load_system(fixture.checkpoint)
    references: dict[tuple[int, str], list] = {}
    for index in sorted({run.composition for run in passes}):
        for stream in deals[index]:
            runtime = GesturePrintRuntime(system, seed=stream.seed)
            for frame in stream.frames:
                runtime.push_frame(frame)
            references[index, stream.stream_id] = runtime.events
    events, labels = [], []
    for number, run in enumerate(passes):
        for stream in deals[run.composition]:
            reference = references[run.composition, stream.stream_id]
            got = run.events[stream.stream_id]
            if len(got) != len(reference):
                outcome.mismatches.append(
                    f"{stream.stream_id} pass {number}: {len(got)} events, "
                    f"standalone runtime gave {len(reference)}"
                )
            for k, (event, want) in enumerate(zip(got, reference)):
                why = event_mismatch(event, want)
                if why is not None:
                    outcome.mismatches.append(
                        f"{stream.stream_id} pass {number} event {k}: {why}"
                    )
            matched = match_events(stream, got)
            outcome.attempted += len(stream.gestures)
            outcome.failed += len(stream.gestures) - len(matched)
            for index, event in matched.items():
                events.append(event)
                labels.append(stream.gestures[index][2:])
    return events, labels


def _frames(fixture: Fixture, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    deals = compositions(fixture, seed, FRAME_COMPOSITIONS)
    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            if setups:
                stack.hub.engine.close()
            stack = build_hub(fixture, seed, traced=False)
            setups.append(host_scale() * stack.setup_s)
        run = measure_frames(stack.hub, deals, seconds)
        stack.hub.engine.close()
        events, labels = check_frames(fixture, deals, run.passes, outcome)
        rounds, unscaled = run.rounds(), run.rounds(scaled=False)
        outcome.details["slice_scales"] = [scale for _, scale in run.slices]
        outcome.details["unscaled"] = {
            "latency_p50_ms": ms_percentile(event_latencies(unscaled), 50),
            "latency_p95_ms": ms_percentile(event_latencies(unscaled), 95),
            "throughput_per_s": push_rate(unscaled),
        }
        outcome.put("setup_s", statistics.median(setups), len(setups))
        put_latency(outcome, event_latencies(rounds))
        outcome.put("throughput_per_s", push_rate(rounds), sum(r.frames for r in rounds))
        gra, uia = accuracies(
            [e.gesture for e in events], [e.user for e in events],
            [g for g, _ in labels], [u for _, u in labels],
        )
        outcome.put("gra", gra, len(events))
        outcome.put("uia", uia, len(events))
        return outcome

    half = seconds / 2
    stack = build_hub(fixture, seed, traced=False)
    load_times = [stack.load_s]
    plain = measure_frames(stack.hub, deals, half)
    stack.hub.engine.close()
    stack = build_hub(fixture, seed, traced=True)
    load_times.append(stack.load_s)
    engine = stack.hub.engine
    before = (engine.stats.batches, engine.stats.batched_samples)
    engine.tracer.drain()
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = measure_frames(stack.hub, deals, half)
    finally:
        recorder.uninstall()
    engine.close()
    check_frames(fixture, deals, plain.passes + traced.passes, outcome)
    span_metrics(
        recorder, outcome, window_s=traced.window_s, units=len(traced.rounds()),
        thread=threading.get_ident(),
    )
    batches = engine.stats.batches - before[0]
    samples = engine.stats.batched_samples - before[1]
    outcome.put("engine.batches", batches, batches)
    outcome.put("engine.mean_batch", samples / batches if batches else 0.0, batches)
    put_trace_stages(outcome, engine.tracer.drain(), gateway=False)
    outcome.put("registry.load_ms", 1e3 * statistics.median(load_times), len(load_times))
    outcome.put(
        "trace.overhead_pct",
        overhead_pct(push_rate(plain.rounds()), push_rate(traced.rounds()), higher_is_better=True),
        len(traced.rounds()),
    )
    return outcome


# ----------------------------------------------------------------------
RUNNERS = {"sparse": _sparse, "saturated": _saturated, "frames": _frames}


def run_workload(
    name: str, fixture: Fixture, seed: int, seconds: float, trace: bool
) -> Outcome:
    outcome = RUNNERS[name](fixture, seed, seconds, trace)
    if trace:
        fill_missing_layers(outcome)
    return outcome
