"""Shared serving layer: micro-batched inference for many streams.

Four pieces, layered under the runtimes in :mod:`repro.core`:

* :class:`InferenceEngine` — accepts classification requests (normalised
  gesture clouds, each timestamped and optionally deadlined),
  micro-batches them, and runs one vectorised ``GesturePrint.predict``
  per flush; byte-identical to the per-event path, with a synchronous
  ``predict_one`` for latency-critical callers, and hot model reload via
  ``swap_system`` (version-tagged results, no dropped tickets).
* :class:`BatchScheduler` — deadline-aware batching policy: flushes on
  a free backend slot (the gateway's work-conserving path), or by
  trading queue depth against the oldest request's remaining SLO budget
  (in-process accumulation), and adapts the batch limit online from
  observed per-batch latency
  (submit-to-landing on the engine's backend, executor queueing
  included).
* :mod:`repro.serving.backends` — pluggable execution: inline (default),
  thread pool over per-thread replicas, or a process pool whose workers
  attach read-only mmap'd weight arenas (``--backend``/``--workers`` on
  the CLI).
* :class:`ModelRegistry` — keyed, LRU-cached load/save of fitted systems
  over :mod:`repro.core.persistence`; ``load(..., on_change=...)`` turns
  an overwritten checkpoint into an engine hot-swap.
* :class:`StreamHub` — multiplexes N concurrent single- or multi-person
  runtimes over one shared engine with deterministic per-stream RNG.
* :mod:`repro.serving.gateway` — the network front-end: a pure-stdlib
  asyncio TCP server speaking a versioned binary protocol, with
  per-tenant SLO classes, weighted priority admission, and load
  shedding (:class:`GatewayServer` / :class:`GatewayClient`).
* :mod:`repro.serving.cluster` — horizontal scale-out: a consistent-hash
  router (:class:`ClusterRouter` / :class:`HashRing`) fronting N gateway
  shards with tenant-affine routing, heartbeat membership, and
  exactly-once cross-node redispatch; see ``docs/cluster.md``.
* :mod:`repro.serving.observability` — the operator surface every layer
  above reports into: a stdlib metrics registry with a Prometheus
  ``/metrics`` side port (:class:`MetricsRegistry` /
  :class:`MetricsServer`) and per-ticket lifecycle tracing with
  exactly-one-terminal records (:class:`Tracer`); see
  ``docs/observability.md``.
"""

from repro.serving.backends import (
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    ThreadPoolBackend,
    WorkerCrashError,
    create_backend,
)
from repro.serving.cluster import (
    ClusterRouter,
    EmptyRingError,
    HashRing,
    MembershipTable,
    NodeProcess,
)
from repro.serving.engine import EngineStats, InferenceEngine, SampleResult, Ticket
from repro.serving.gateway import (
    AsyncGatewayClient,
    BackgroundGateway,
    GatewayClient,
    GatewayError,
    GatewayServer,
    SLOClass,
    TenantDirectory,
)
from repro.serving.hub import StreamError, StreamEvent, StreamHub, derive_stream_seed
from repro.serving.observability import (
    MetricsRegistry,
    MetricsServer,
    TraceLog,
    TraceRecord,
    Tracer,
    get_metrics,
)
from repro.serving.registry import ModelRegistry, RegistryStats
from repro.serving.scheduler import BatchScheduler, SchedulerStats, request_order

__all__ = [
    "AsyncGatewayClient",
    "BackgroundGateway",
    "BatchScheduler",
    "ClusterRouter",
    "EmptyRingError",
    "HashRing",
    "MembershipTable",
    "NodeProcess",
    "EngineStats",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "ThreadPoolBackend",
    "WorkerCrashError",
    "create_backend",
    "GatewayClient",
    "GatewayError",
    "GatewayServer",
    "InferenceEngine",
    "SLOClass",
    "SampleResult",
    "SchedulerStats",
    "TenantDirectory",
    "Ticket",
    "MetricsRegistry",
    "MetricsServer",
    "ModelRegistry",
    "RegistryStats",
    "TraceLog",
    "TraceRecord",
    "Tracer",
    "get_metrics",
    "StreamError",
    "StreamEvent",
    "StreamHub",
    "derive_stream_seed",
    "request_order",
]
