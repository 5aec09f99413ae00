"""Micro-batched inference engine for fitted GesturePrint systems.

The deployed pipeline (Fig. 7) classifies every gesture the moment its
segment closes — a batch-of-1 forward pass per event.  Under many
concurrent streams that wastes most of the vectorised numpy forward: the
per-call Python overhead (module walks, sampling loops, kernel
dispatches) dominates the useful math.

:class:`InferenceEngine` decouples *when a request arrives* from *when
the model runs*: callers ``submit`` classifier-ready samples and receive
:class:`Ticket` handles; the engine stacks everything pending into
vectorised batches.  A synchronous :meth:`predict_one` path is kept for
latency-critical callers.

Execution is pluggable (:mod:`repro.serving.backends`): the engine's
flush path splits into **dispatch** — drain the pending queue in
priority order, group by sample shape, submit each group to the
:class:`~repro.serving.backends.ExecutionBackend` — and **collect** —
harvest completed batch futures and deliver their tickets.  With the
default :class:`~repro.serving.backends.InlineBackend` the two happen
back-to-back in the caller's thread (the historical behaviour, kept
bit-for-bit); with a thread or process pool, batches are *airborne*
between dispatch and collection and the caller (e.g. the gateway's
event loop) overlaps its own work with the executor's.

Batches are released by one of four triggers:

* **depth** — the queue reached the effective batch limit (a fixed
  ``max_batch_size``, or the adaptive limit of an attached
  :class:`~repro.serving.scheduler.BatchScheduler`);
* **deadline** — with a scheduler, every request carries an arrival
  timestamp and an optional per-request deadline; :meth:`submit` and
  :meth:`poll` flush as soon as waiting any longer would be predicted to
  miss the earliest pending deadline (a deadline already in the past is
  clamped to "due now": it forces an immediate dispatch instead of
  feeding negative slack into the scheduler);
* **idle slot** — ``poll(dispatch_idle=True)`` (the gateway's pump)
  dispatches whatever is pending while a backend slot is free, so the
  backend never idles while work waits;
* **explicit** — :meth:`flush` (the hub's end-of-round / end-of-stream
  paths), which also blocks until every airborne batch has landed.

Hot reload: :meth:`swap_system` dispatches everything pending on the
*old* weights first — airborne batches carry the system reference and
``model_version`` they were submitted with, so no ticket is ever
delivered against mixed or wrong-version weights even while batches are
in flight — and stamps every :class:`SampleResult` with the
``model_version`` that produced it.

All execution paths are **byte-identical**: the nn layers pin every BLAS
call to row-stable kernels, so a sample classified alone produces
bit-for-bit the same posteriors as the same sample inside a micro-batch,
on any backend (enforced by ``tests/serving/test_engine.py`` and
``tests/serving/test_backends.py``).
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.pipeline import GesturePrint, PipelineResult
from repro.serving.backends import ExecutionBackend, InlineBackend, retain_heap
from repro.serving.observability.metrics import MetricsRegistry, StatsExporter, counted, get_metrics
from repro.serving.observability.metrics import published, tally, total
from repro.serving.observability.tracing import TraceRecord, Tracer
from repro.serving.scheduler import BatchScheduler, request_order


@dataclass(frozen=True)
class SampleResult:
    """Posteriors for one classified sample (one row of a batch).

    ``model_version`` identifies the weights that produced the row: it
    starts at 0 and increments on every :meth:`InferenceEngine.swap_system`,
    making hot reloads observable to downstream consumers.
    """

    gesture: int
    gesture_probs: np.ndarray
    user: int
    user_probs: np.ndarray
    model_version: int = 0

    @classmethod
    def from_row(
        cls, result: PipelineResult, row: int, *, model_version: int = 0
    ) -> "SampleResult":
        return cls(
            gesture=int(result.gesture_pred[row]),
            gesture_probs=result.gesture_probs[row].copy(),
            user=int(result.user_pred[row]),
            user_probs=result.user_probs[row].copy(),
            model_version=model_version,
        )


class Ticket:
    """Handle for one queued classification request.

    ``result()`` raises until the owning engine collects the batch the
    request rode in; an optional ``callback`` fires at delivery time with
    the :class:`SampleResult`, and ``on_error`` fires if the batch the
    request rode in failed — so deferred callers (the hub's streams)
    never lose a span silently.

    ``arrival`` is the engine-clock submission timestamp; ``deadline``
    (same clock, absolute) is the latest acceptable delivery time, or
    None when the request has no SLO of its own.  ``priority`` orders
    the flush drain (lower value = more important; ties by deadline then
    arrival) — the gateway maps tenant SLO classes onto it.
    """

    __slots__ = (
        "meta",
        "arrival",
        "deadline",
        "priority",
        "trace",
        "_callback",
        "_on_error",
        "_result",
        "_error",
        "_done",
        "_cancelled",
    )

    def __init__(
        self,
        meta: Any = None,
        callback: Callable[[SampleResult], None] | None = None,
        on_error: Callable[[Exception], None] | None = None,
        arrival: float = 0.0,
        deadline: float | None = None,
        priority: int = 0,
        trace: TraceRecord | None = None,
    ) -> None:
        self.meta = meta
        self.arrival = arrival
        self.deadline = deadline
        self.priority = priority
        #: Lifecycle trace riding this request (see
        #: :mod:`repro.serving.observability.tracing`); the delivery /
        #: failure / cancellation guards below record its terminal, so
        #: exactly-once delivery implies exactly one terminal record.
        self.trace = trace
        self._callback = callback
        self._on_error = on_error
        self._result: SampleResult | None = None
        self._error: Exception | None = None
        self._done = False
        self._cancelled = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def result(self) -> SampleResult:
        if self._cancelled:
            raise RuntimeError("request was cancelled before it was flushed")
        if not self._done:
            raise RuntimeError("request not flushed yet; call engine.flush()")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _deliver(self, result: SampleResult) -> None:
        self._result = result
        self._done = True
        if self.trace is not None:
            self.trace.finish("delivered")
        if self._callback is not None:
            self._callback(result)

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._done = True
        if self.trace is not None:
            self.trace.finish("error", code=type(error).__name__)
        if self._on_error is not None:
            self._on_error(error)

    def _cancel(self, code: str = "cancelled") -> None:
        self._cancelled = True
        if self.trace is not None:
            self.trace.finish("shed", code=code)


def _future_ok(future: Future) -> bool:
    """Done with a usable result (not cancelled, no exception)."""
    return future.done() and not future.cancelled() and future.exception() is None


@dataclass(eq=False)  # identity semantics: entries hold numpy arrays
class _InFlightBatch:
    """One dispatched batch between backend submission and collection.

    ``version`` and the entries' samples pin the batch to the weights it
    was dispatched against; ``dispatched`` anchors the submit-to-landing
    wall time the scheduler learns (execution *plus* executor queueing).
    ``batch`` and ``system`` are kept so a straggling batch can be
    *hedged*: resubmitted verbatim to a second backend slot, first
    usable result wins, the loser is cancelled at collection.
    """

    entries: list[tuple[np.ndarray, Ticket]]
    future: Future
    version: int
    dispatched: float
    batch: np.ndarray | None = None
    system: Any = None
    hedge: Future | None = None
    hedged_at: float | None = None

    @property
    def settled(self) -> bool:
        """Ready to collect: a usable result exists, or nothing can still win."""
        if _future_ok(self.future):
            return True
        if self.hedge is not None and _future_ok(self.hedge):
            return True
        return self.future.done() and (self.hedge is None or self.hedge.done())


@dataclass
class EngineStats:
    """Operational counters: the engine's only count store, published to
    ``/metrics`` at scrape time, labelled by backend."""

    #: Requests accepted: ``sync`` (``predict_one``) or ``async`` (``submit``).
    requests_by_mode: Counter = tally(
        ("mode",),
        published("repro_engine_requests_total", "Requests accepted by the engine"),
        keys=("async", "sync"),
    )
    batches: int = counted("repro_engine_batches_total", "Batches that landed and delivered")
    batched_samples: int = counted(
        "repro_engine_batched_samples_total", "Samples delivered via batches"
    )
    max_batch: int = 0
    failed_batches: int = counted(
        "repro_engine_failed_batches_total", "Batches whose forward pass raised"
    )
    swaps: int = counted("repro_engine_swaps_total", "Hot model swaps applied")
    dispatched_batches: int = counted(
        "repro_engine_dispatched_batches_total", "Batches submitted to the execution backend"
    )
    #: Batches that landed only after a crash redispatch (a supervised
    #: backend moved them off a dead worker); their tickets delivered
    #: normally, but the scheduler's latency model excluded them.
    retried_batches: int = counted(
        "repro_engine_retried_batches_total", "Batches recovered by a crash redispatch"
    )
    #: Batches duplicated onto a second backend slot because the primary
    #: outlived the hedge threshold; ``hedge_wins`` counts the subset
    #: where the duplicate actually delivered first.
    hedged_batches: int = counted(
        "repro_engine_hedged_batches_total", "Batches duplicated onto a second backend slot"
    )
    hedge_wins: int = counted(
        "repro_engine_hedge_wins_total", "Hedges that delivered before the primary"
    )
    #: Hedge placements the backend refused (pool at capacity or
    #: closing); the primary keeps running, but a climbing count means
    #: the hedge budget is writing checks the pool can't cash.
    hedge_rejected: int = counted(
        "repro_engine_hedge_rejected_total", "Hedge placements the backend refused"
    )
    requests = total("requests_by_mode")
    sync_requests = total("requests_by_mode", mode="sync")

    @property
    def mean_batch(self) -> float:
        return self.batched_samples / self.batches if self.batches else 0.0


#: Batch-size histogram buckets (samples per dispatched batch).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class _EngineInstruments:
    """The engine's histograms and gauges, labelled by backend (its
    counters are :class:`EngineStats` fields)."""

    def __init__(self, metrics: MetricsRegistry, backend: str) -> None:
        self.batch_latency = metrics.histogram(
            "repro_engine_batch_latency_seconds",
            "Submit-to-landing wall time per batch (executor queueing included)",
            ("backend",),
        ).labels(backend=backend)
        self.queue_wait = metrics.histogram(
            "repro_engine_queue_wait_seconds",
            "Arrival-to-delivery wall time per ticket",
            ("backend",),
        ).labels(backend=backend)
        self.batch_size = metrics.histogram(
            "repro_engine_batch_size",
            "Samples per delivered batch",
            ("backend",),
            buckets=_BATCH_SIZE_BUCKETS,
        ).labels(backend=backend)
        self.pending = metrics.gauge(
            "repro_engine_pending", "Requests queued for the next dispatch", ("backend",)
        ).labels(backend=backend)
        self.in_flight = metrics.gauge(
            "repro_engine_in_flight_batches",
            "Dispatched batches not yet collected",
            ("backend",),
        ).labels(backend=backend)
        self.model_version = metrics.gauge(
            "repro_engine_model_version",
            "Version of the weights currently serving",
            ("backend",),
        ).labels(backend=backend)


class InferenceEngine:
    """Shared, micro-batched classification front-end for one system.

    Parameters
    ----------
    system:
        A fitted :class:`~repro.core.pipeline.GesturePrint`.
    max_batch_size:
        Hard auto-flush threshold: ``submit`` triggers a flush as soon as
        this many requests are pending, bounding both memory and the
        latency of the oldest queued request.
    scheduler:
        Optional :class:`~repro.serving.scheduler.BatchScheduler`.  When
        attached, the effective batch limit is the *minimum* of
        ``max_batch_size`` and the scheduler's adaptive limit, and
        ``submit``/``poll`` also flush when the earliest pending deadline
        is about to run out of budget.  The engine adopts the scheduler's
        clock so arrival timestamps and deadlines share one time base.
    backend:
        Optional :class:`~repro.serving.backends.ExecutionBackend`; the
        default :class:`~repro.serving.backends.InlineBackend` executes
        batches synchronously in the flushing thread.  The caller owns a
        backend it passes in (close it when done); the engine closes the
        backend it created itself via :meth:`close`.
    clock:
        Monotonic time source (overridden by the scheduler's, if any).
    hedge_ms:
        Tail-latency hedging.  ``None`` (default) disables it.  A float
        duplicates any airborne batch older than that many milliseconds
        onto a second backend slot — first usable result wins, the loser
        is cancelled at collection, and no ticket is ever delivered
        twice (delivery happens exactly once per batch, from whichever
        future won).  The string ``"auto"`` derives the threshold from
        the attached scheduler's latency model
        (:meth:`~repro.serving.scheduler.BatchScheduler.hedge_threshold_s`):
        roughly the observed p95, floored at twice the predicted
        batch time, and inactive until the model has observations.
        Hedged batches are excluded from the scheduler's EWMA and p95
        window exactly like crash-retried ones.
    metrics:
        :class:`~repro.serving.observability.metrics.MetricsRegistry` to
        instrument against (default: the process-global one).  Pass a
        disabled registry to opt out entirely.
    tracer:
        Optional :class:`~repro.serving.observability.tracing.Tracer`.
        When set, every ``submit`` without an attached trace begins one,
        and dispatch / hedge / landing marks plus the exactly-once
        terminal are recorded per ticket.
    """

    def __init__(
        self,
        system: GesturePrint,
        *,
        max_batch_size: int = 32,
        scheduler: BatchScheduler | None = None,
        backend: ExecutionBackend | None = None,
        clock: Callable[[], float] = time.monotonic,
        hedge_ms: float | str | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if system.gesture_model is None:
            raise ValueError("the system must be fitted first")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if isinstance(hedge_ms, str):
            if hedge_ms != "auto":
                raise ValueError("hedge_ms must be a float, None, or 'auto'")
            if scheduler is None:
                raise ValueError("hedge_ms='auto' needs an attached scheduler")
        elif hedge_ms is not None and hedge_ms <= 0:
            raise ValueError("hedge_ms must be > 0")
        retain_heap()
        self.system = system
        self.max_batch_size = max_batch_size
        self.scheduler = scheduler
        self._hedge_auto = hedge_ms == "auto"
        self._hedge_s = hedge_ms / 1e3 if isinstance(hedge_ms, (int, float)) else None
        self._clock = scheduler.clock if scheduler is not None else clock
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else InlineBackend()
        if scheduler is not None:
            scheduler.bind_backend(self.backend.name, self.backend.slots)
        self.stats = EngineStats()
        self.model_version = 0
        self._metrics = metrics if metrics is not None else get_metrics()
        self._tracer = tracer
        self._m = _EngineInstruments(self._metrics, self.backend.name)
        self._m.model_version.set(0)
        self._pending: list[tuple[np.ndarray, Ticket]] = []
        self._in_flight: list[_InFlightBatch] = []
        # After the state it reads: a scrape may run on another thread.
        self._metrics.register_collector(self._collect_metrics)
        self._exporter = StatsExporter(
            self._metrics, self.stats, labels={"backend": self.backend.name}
        )
        self._in_flush = False
        self._flush_requested = False
        self._pending_swap: GesturePrint | None = None
        #: Zero-arg hook fired (from the completing thread!) whenever an
        #: airborne batch lands; the gateway points this at a threadsafe
        #: event-loop wakeup so collection is prompt, not poll-paced.
        self.on_batch_complete: Callable[[], None] | None = None
        self.backend.prepare(system)

    # ------------------------------------------------------------------
    @property
    def clock(self) -> Callable[[], float]:
        """The engine's time source; ``submit`` arrivals must use it."""
        return self._clock

    @property
    def tracer(self) -> Tracer | None:
        """The lifecycle tracer, if one was attached."""
        return self._tracer

    def _collect_metrics(self) -> None:
        """Scrape-time gauge refresh (registered as a metrics collector)."""
        self._m.pending.set(len(self._pending))
        self._m.in_flight.set(len(self._in_flight))

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    @property
    def num_in_flight(self) -> int:
        """Dispatched batches not yet collected."""
        return len(self._in_flight)

    @property
    def num_airborne(self) -> int:
        """Backend submissions still occupying slots (primaries + live hedges).

        A hedge is a *second* submission of the same batch: until it (or
        its primary) lands, it holds an executor slot just like a
        first-class dispatch, so feeders gating on free capacity must
        count it — gating on :attr:`num_in_flight` alone would oversubscribe
        the pool by one batch per live hedge.
        """
        live_hedges = sum(
            1
            for flight in self._in_flight
            if flight.hedge is not None and not flight.hedge.done()
        )
        return len(self._in_flight) + live_hedges

    @property
    def slot_free(self) -> bool:
        """True while the backend has a slot no submission occupies."""
        return self.backend.slots > self.num_airborne

    @property
    def hedging(self) -> bool:
        """True when a hedge policy (fixed or auto) is configured."""
        return self._hedge_auto or self._hedge_s is not None

    @property
    def precision(self) -> str:
        """Numeric precision the serving path runs at (see ``--precision``)."""
        stamped = getattr(self.system, "serve_precision", None)
        if stamped:
            return str(stamped)
        return str(getattr(self.backend, "precision", "float64"))

    @property
    def batch_limit(self) -> int:
        """Effective depth threshold (hard cap ∧ adaptive scheduler limit)."""
        if self.scheduler is None:
            return self.max_batch_size
        return min(self.max_batch_size, self.scheduler.batch_limit)

    def _validate(self, sample: np.ndarray) -> np.ndarray:
        sample = np.asarray(sample, dtype=np.float64)
        needed = max(3, self.system.config.network.in_feature_channels)
        if sample.ndim != 2 or sample.shape[1] < needed:
            raise ValueError(
                f"expected a (num_points, >= {needed} channels) sample, "
                f"got shape {sample.shape}"
            )
        return sample

    # ------------------------------------------------------------------
    def predict_one(self, sample: np.ndarray) -> SampleResult:
        """Classify one sample synchronously (the latency-critical path)."""
        sample = self._validate(sample)
        self.stats.requests_by_mode["sync"] += 1
        result = self.system.predict(sample[None, ...])
        return SampleResult.from_row(result, 0, model_version=self.model_version)

    def submit(
        self,
        sample: np.ndarray,
        *,
        meta: Any = None,
        callback: Callable[[SampleResult], None] | None = None,
        on_error: Callable[[Exception], None] | None = None,
        arrival: float | None = None,
        deadline_ms: float | None = None,
        priority: int = 0,
        defer_flush: bool = False,
        trace: TraceRecord | None = None,
    ) -> Ticket:
        """Queue one sample for the next micro-batch.

        ``arrival`` backdates the request (engine clock; e.g. to the
        instant the gesture segment closed upstream) — it defaults to
        now.  ``deadline_ms`` is this request's own latency budget,
        measured from arrival; without one, a scheduler's global SLO (if
        any) applies.  A deadline that is *already in the past* (a
        backdated arrival plus a short budget) is clamped to "due now":
        the request rides the immediate-flush path, and the scheduler
        never sees negative slack — which would force a batch-of-1 flush
        on every subsequent submit and poison the adaptive limit's
        latency observations with panic batches.  ``priority`` (lower =
        more important) orders the flush drain across requests; equal
        priorities keep submission order, so plain callers are unaffected
        by the default.

        ``defer_flush`` skips the auto-flush check: the caller promises
        an imminent :meth:`poll`.  A feeder draining a backlog needs it —
        once queued requests have *already overrun* their deadlines, the
        auto-flush would otherwise fire on the first submit of every
        refill and degrade the engine to batch-1 exactly when load is
        highest.  Deferring lets the whole refill ride one batch.

        Auto-flushes on the depth and deadline triggers described in the
        module docstring.  Auto-flush failures are routed to the failed
        tickets (``result()`` / ``on_error``) instead of being raised
        here, so one stream's poison sample cannot blow up another
        stream's ``submit``.
        """
        sample = self._validate(sample)
        now = self._clock()
        arrival = now if arrival is None else arrival
        deadline = None if deadline_ms is None else arrival + deadline_ms / 1e3
        if deadline is not None and deadline < now:
            deadline = now  # stale already at submit: due immediately
        if trace is None and self._tracer is not None:
            trace = self._tracer.begin(submit=arrival)
        ticket = Ticket(
            meta=meta,
            callback=callback,
            on_error=on_error,
            arrival=arrival,
            deadline=deadline,
            priority=priority,
            trace=trace,
        )
        self._pending.append((sample, ticket))
        self.stats.requests_by_mode["async"] += 1
        if not defer_flush and self._should_flush(now):
            self.flush(raise_on_error=False)
        return ticket

    # ------------------------------------------------------------------
    def _earliest_slack(self, now: float) -> float | None:
        """Remaining budget (s) of the most urgent pending request."""
        slo_s = self.scheduler.slo_s if self.scheduler is not None else None
        earliest: float | None = None
        for _, ticket in self._pending:
            deadline = ticket.deadline
            if deadline is None and slo_s is not None:
                deadline = ticket.arrival + slo_s
            if deadline is not None and (earliest is None or deadline < earliest):
                earliest = deadline
        return None if earliest is None else earliest - now

    def _should_flush(self, now: float, *, idle_slot: bool = False) -> bool:
        depth = len(self._pending)
        if depth == 0:
            return False
        if depth >= self.max_batch_size:  # hard cap, scheduler or not
            return True
        if self.scheduler is not None:
            if self.scheduler.should_flush(depth, slack_s=self._earliest_slack(now)):
                return True
            if idle_slot:
                self.scheduler.note_idle_flush()
            return idle_slot
        if idle_slot:
            return True
        # No scheduler: still honour explicit per-request deadlines.
        slack = self._earliest_slack(now)
        return slack is not None and slack <= 0.0

    def poll(self, *, dispatch_idle: bool = False) -> list[Ticket]:
        """Collect landed batches; dispatch if the queue must run *now*.

        The serving loop calls this once per frame round (the gateway
        once per pump): completed airborne batches deliver their
        tickets, and the depth/deadline triggers release a new dispatch
        — without ever blocking on the backend.  Errors are routed to
        the failed tickets, never raised here.

        ``dispatch_idle`` makes the poll work-conserving: if a backend
        slot is free (live hedges count as occupying one), everything
        pending is dispatched now, counted as an idle-slot flush.  The
        gateway passes it — its admission queue is where batches grow
        while every slot is busy.  In-process callers leave it off: the
        inline backend's single slot always looks free, and a hub with a
        scheduler relies on accumulating across rounds.
        """
        if self._in_flush:
            return []
        delivered: list[Ticket] = []
        self._in_flush = True
        try:
            if self._in_flight:
                _, landed = self._collect(block=False)
                delivered.extend(landed)
                self._maybe_hedge(self._clock())
            idle_slot = dispatch_idle and self.slot_free
            if self._should_flush(self._clock(), idle_slot=idle_slot):
                self.dispatch()
                _, landed = self._collect(block=False)
                delivered.extend(landed)
        finally:
            self._in_flush = False
        self._run_deferred()
        return delivered

    # ------------------------------------------------------------------
    def dispatch(self) -> int:
        """Drain the pending queue into backend submissions.

        Requests are drained in :func:`~repro.serving.scheduler.request_order`
        — priority class first, then earliest deadline, then arrival; the
        sort is stable, so plain same-priority traffic keeps submission
        order — then grouped by sample shape (streams may normalise to
        different point counts); each group becomes one backend batch,
        pinned to the current system reference and ``model_version``.
        Returns the number of batches submitted.  Non-blocking: with a
        pooled backend the batches are airborne until :meth:`poll`,
        :meth:`drain`, or :meth:`flush` collects them.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        pending.sort(
            key=lambda entry: request_order(
                entry[1].priority, entry[1].deadline, entry[1].arrival
            )
        )
        groups: dict[tuple[int, ...], list[tuple[np.ndarray, Ticket]]] = {}
        for sample, ticket in pending:
            if ticket.cancelled:
                continue
            groups.setdefault(sample.shape, []).append((sample, ticket))
        submitted = 0
        for entries in groups.values():
            batch = np.stack([sample for sample, _ in entries])
            dispatched = self._clock()
            try:
                future = self.backend.submit(self.system, batch)
            except Exception as error:  # refused submission (closed pool, ...)
                future = Future()
                future.set_exception(error)
            self._in_flight.append(
                _InFlightBatch(
                    entries=entries,
                    future=future,
                    version=self.model_version,
                    dispatched=dispatched,
                    batch=batch,
                    system=self.system,
                )
            )
            self.stats.dispatched_batches += 1
            for _, ticket in entries:
                if ticket.trace is not None:
                    ticket.trace.mark_dispatched(
                        dispatched,
                        batch_size=len(entries),
                        model_version=self.model_version,
                    )
            submitted += 1
            if self.on_batch_complete is not None:
                future.add_done_callback(self._notify_complete)
        return submitted

    def _notify_complete(self, _future: Future) -> None:
        hook = self.on_batch_complete
        if hook is not None:
            try:
                hook()
            except Exception:
                pass  # a dying waker must not take the executor down

    # ------------------------------------------------------------------
    def _hedge_threshold_s(self, batch_size: int) -> float | None:
        """Age past which an airborne batch earns a hedge (None: never)."""
        if self._hedge_s is not None:
            return self._hedge_s
        if self._hedge_auto and self.scheduler is not None:
            return self.scheduler.hedge_threshold_s(batch_size)
        return None

    def _maybe_hedge(self, now: float) -> int:
        """Duplicate over-age airborne batches onto spare backend slots.

        A batch is hedged at most once, only while its primary is still
        running, and only while fewer than ``slots - 1`` hedges are live
        — a pool-wide stall (every slot slow) is a capacity problem
        hedging would only amplify, whereas one straggler among healthy
        slots is exactly the tail this cuts.  Returns hedges placed.
        """
        if not self.hedging or not self._in_flight:
            return 0
        budget = max(int(self.backend.slots) - 1, 1) - sum(
            1
            for flight in self._in_flight
            if flight.hedge is not None and not flight.hedge.done()
        )
        placed = 0
        for flight in self._in_flight:
            if budget <= 0:
                break
            if flight.hedge is not None or flight.future.done():
                continue
            if flight.batch is None or flight.system is None:
                continue
            threshold = self._hedge_threshold_s(len(flight.entries))
            if threshold is None or now - flight.dispatched < threshold:
                continue
            try:
                # Urgent: the hedge jumps the backend's internal queue —
                # FIFO behind the backlog would forfeit the race.
                hedge = self.backend.submit_urgent(flight.system, flight.batch)
            except Exception:
                # No spare capacity / closing pool: the primary is still
                # in flight, so keep waiting — but count the refusal
                # rather than swallowing it invisibly (RC006).
                self.stats.hedge_rejected += 1
                continue
            flight.hedge = hedge
            flight.hedged_at = now
            self.stats.hedged_batches += 1
            for _, ticket in flight.entries:
                if ticket.trace is not None:
                    ticket.trace.mark_hedged(now)
            budget -= 1
            placed += 1
            if self.on_batch_complete is not None:
                hedge.add_done_callback(self._notify_complete)
        return placed

    def _next_hedge_due_s(self, now: float) -> float | None:
        """Seconds until the earliest unhedged airborne batch matures."""
        due: float | None = None
        for flight in self._in_flight:
            if flight.hedge is not None or flight.future.done():
                continue
            threshold = self._hedge_threshold_s(len(flight.entries))
            if threshold is None:
                continue
            remaining = flight.dispatched + threshold - now
            if due is None or remaining < due:
                due = remaining
        return None if due is None else max(due, 1e-3)

    # ------------------------------------------------------------------
    def _collect(self, *, block: bool) -> tuple[Exception | None, list[Ticket]]:
        """Harvest landed batches; optionally wait for the stragglers.

        Delivers per batch in dispatch order among whatever has landed;
        returns the first batch error (those tickets are already failed)
        and every ticket resolved by this call.
        """
        first_error: Exception | None = None
        delivered: list[Ticket] = []
        while self._in_flight:
            ready = [flight for flight in self._in_flight if flight.settled]
            if not ready:
                if not block:
                    break
                waitables = [flight.future for flight in self._in_flight]
                waitables.extend(
                    flight.hedge
                    for flight in self._in_flight
                    if flight.hedge is not None
                )
                # While hedging, cap the wait so stragglers can still be
                # duplicated from inside a blocking flush/drain.
                timeout = self._next_hedge_due_s(self._clock()) if self.hedging else None
                wait_futures(
                    waitables,
                    timeout=None if timeout is None else min(timeout, 0.1),
                    return_when=FIRST_COMPLETED,
                )
                if self.hedging:
                    self._maybe_hedge(self._clock())
                continue
            for flight in ready:
                self._in_flight.remove(flight)
                error = self._finish_batch(flight, delivered)
                if first_error is None:
                    first_error = error
        return first_error, delivered

    def _finish_batch(
        self, flight: _InFlightBatch, delivered: list[Ticket]
    ) -> Exception | None:
        """Resolve one landed batch's tickets (skipping cancelled ones).

        With a hedge in play, the first *usable* result wins: the
        primary if it landed cleanly, else the hedge.  The loser is
        cancelled — a queued loser never runs; one already running is
        abandoned (its late result lands in a future nobody reads), so
        each ticket is delivered exactly once no matter which copy won.
        """
        entries = flight.entries
        done = self._clock()
        hedged = flight.hedge is not None
        winner = flight.future
        if hedged and not _future_ok(flight.future) and _future_ok(flight.hedge):
            winner = flight.hedge
            self.stats.hedge_wins += 1
        if hedged:
            loser = flight.hedge if winner is flight.future else flight.future
            loser.cancel()  # best effort: a running loser is just abandoned
        # A supervised backend stamps ``retried`` on futures it had to
        # redispatch after a worker crash: the tickets deliver normally,
        # but the batch's wall time prices crash recovery, not the
        # backend — the scheduler must not learn from it.
        retried = bool(getattr(winner, "retried", False))
        try:
            result, exec_s = winner.result()
        except Exception as error:  # poison batch: fail this group only
            self.stats.failed_batches += 1
            for _, ticket in entries:
                if ticket.cancelled:
                    continue
                ticket._fail(error)
                delivered.append(ticket)
            return error
        if retried:
            # Count only batches the redispatch actually saved: a retried
            # batch whose second worker also died lands in the exception
            # path above and is a failed batch, not a recovered one.
            self.stats.retried_batches += 1
        if self.scheduler is not None:
            # Submit-to-landing wall time: execution *plus* executor
            # queueing, so the adaptive limit prices the backend it
            # actually runs on, not an idealised instant executor.
            # Retried and hedged batches are excluded inside (their wall
            # time prices the recovery, not the backend).
            self.scheduler.observe_batch(
                len(entries),
                done - flight.dispatched,
                service_s=exec_s,
                retried=retried,
                hedged=hedged,
            )
        self.stats.batches += 1
        self.stats.batched_samples += len(entries)
        self.stats.max_batch = max(self.stats.max_batch, len(entries))
        self._m.batch_size.observe(len(entries))
        self._m.batch_latency.observe(done - flight.dispatched)
        excluded = retried or hedged
        hedge_won = hedged and winner is flight.hedge
        for row, (_, ticket) in enumerate(entries):
            if ticket.cancelled:
                continue  # discarded while airborne: no late delivery
            if self.scheduler is not None:
                self.scheduler.record_queue_latency(
                    done - ticket.arrival, excluded=excluded
                )
            self._m.queue_wait.observe(done - ticket.arrival)
            if ticket.trace is not None:
                ticket.trace.mark_landed(
                    done,
                    worker=getattr(winner, "worker", None),
                    retried=retried,
                    hedge_win=hedge_won,
                )
            ticket._deliver(
                SampleResult.from_row(result, row, model_version=flight.version)
            )
            delivered.append(ticket)
        return None

    def _run_deferred(self) -> None:
        """Apply flushes/swaps requested by callbacks during delivery."""
        if self._flush_requested and not self._in_flush:
            self._flush_requested = False
            self.flush(raise_on_error=False)
        if self._pending_swap is not None and not self._in_flush:
            swap, self._pending_swap = self._pending_swap, None
            self.swap_system(swap)

    # ------------------------------------------------------------------
    def flush(self, *, raise_on_error: bool = True) -> list[Ticket]:
        """Dispatch everything pending and block until it all lands.

        Returns the tickets completed by this call — including tickets
        of batches that were already airborne when it was called.  A
        batch whose forward pass raises fails only its own tickets
        (``Ticket.result`` re-raises, ``on_error`` fires); the other
        batches still deliver.  With ``raise_on_error`` (the default for
        explicit calls) the first batch error is re-raised *after*
        everything landed and every ticket was resolved.

        Reentrancy: a delivery callback that submits (e.g. a chained
        second-stage classification) may trigger a nested flush; it is
        deferred to the tail of the outer flush, so batches never
        interleave and delivery order stays submission order.
        """
        if self._in_flush:
            # Nested call (from a delivery callback): run at the tail of
            # the outer flush instead of interleaving batches.
            self._flush_requested = True
            return []
        self._in_flush = True
        completed: list[Ticket] = []
        first_error: Exception | None = None
        try:
            while True:
                self._flush_requested = False
                self.dispatch()
                error, delivered = self._collect(block=True)
                completed.extend(delivered)
                if first_error is None:
                    first_error = error
                if not (self._pending or self._in_flight or self._flush_requested):
                    break
        finally:
            self._in_flush = False
        if self._pending_swap is not None:
            swap, self._pending_swap = self._pending_swap, None
            self.swap_system(swap)
        if first_error is not None and raise_on_error:
            raise first_error
        return completed

    def drain(self, *, raise_on_error: bool = False) -> list[Ticket]:
        """Block until every airborne batch lands; deliver its tickets.

        Unlike :meth:`flush` this does not dispatch the pending queue —
        it only settles what is already in the air (the gateway's
        shutdown path).
        """
        if self._in_flush or not self._in_flight:
            return []
        self._in_flush = True
        try:
            error, delivered = self._collect(block=True)
        finally:
            self._in_flush = False
        self._run_deferred()
        if error is not None and raise_on_error:
            raise error
        return delivered

    # ------------------------------------------------------------------
    def swap_system(self, system: GesturePrint) -> int:
        """Hot-swap the fitted system; returns the new ``model_version``.

        Everything pending is dispatched on the *old* weights first, so
        no ticket is dropped and none is delivered against mixed
        weights.  Batches already airborne are untouched: they carry the
        system reference and version they were dispatched with, finish
        on the old weights, and deliver with the old ``model_version`` —
        the swap never waits for them.  Results produced after the swap
        carry the incremented version.  Safe to call from a delivery
        callback: mid-flush swaps are deferred until the current flush
        fully drains.
        """
        if system.gesture_model is None:
            raise ValueError("the swapped-in system must be fitted first")
        if system is self.system:
            return self.model_version
        if self._in_flush:
            self._pending_swap = system
            return self.model_version + 1
        if self._pending:
            self._in_flush = True
            try:
                self.dispatch()
                self._collect(block=False)  # inline batches land right here
            finally:
                self._in_flush = False
        self.system = system
        self.model_version += 1
        self.stats.swaps += 1
        self._m.model_version.set(self.model_version)
        # Pre-stage the new weights (e.g. the process backend's arena
        # export) off the first post-swap batch's critical path.
        self.backend.prepare(system)
        self._run_deferred()
        return self.model_version

    # ------------------------------------------------------------------
    def discard_pending(
        self,
        predicate: Callable[[Any], bool] | None = None,
        *,
        code: str = "cancelled",
    ) -> int:
        """Cancel queued *and airborne* requests instead of flushing them.

        ``predicate`` receives each ticket's ``meta`` and keeps the entry
        when it returns False; with no predicate everything is
        cancelled.  Queued requests never reach a batch; requests whose
        batch is already airborne cannot be unsubmitted, but their
        delivery (callback and all) is suppressed at collection — a
        closed stream or dropped connection never receives a late
        result.  ``code`` names the cause on the cancelled tickets'
        trace records (``"disconnect"``, ``"shed"``, ...).  Returns the
        number of cancelled requests.
        """
        kept: list[tuple[np.ndarray, Ticket]] = []
        cancelled = 0
        for sample, ticket in self._pending:
            if predicate is None or predicate(ticket.meta):
                ticket._cancel(code)
                cancelled += 1
            else:
                kept.append((sample, ticket))
        self._pending = kept
        for flight in self._in_flight:
            for _, ticket in flight.entries:
                if ticket.done or ticket.cancelled:
                    continue
                if predicate is None or predicate(ticket.meta):
                    ticket._cancel(code)
                    cancelled += 1
        return cancelled

    def predict_many(self, samples: np.ndarray) -> list[SampleResult]:
        """Convenience: submit a stack of samples and flush immediately."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 3:
            raise ValueError(
                f"expected (batch, num_points, channels), got shape {samples.shape}"
            )
        tickets = [self.submit(sample) for sample in samples]
        self.flush()
        return [ticket.result() for ticket in tickets]

    def close(self) -> None:
        """Settle all outstanding work and release an engine-owned backend.

        Everything still pending is flushed (errors route to the tickets,
        not raised here) and every airborne batch collected, upholding
        the no-ticket-ever-dropped invariant through shutdown.
        """
        self.flush(raise_on_error=False)
        self._metrics.unregister_collector(self._collect_metrics)
        self._exporter.close()
        if self._owns_backend:
            self.backend.close()
