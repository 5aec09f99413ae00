"""Per-ticket lifecycle tracing: submit → … → exactly one terminal.

A :class:`TraceRecord` follows one request across every serving layer:

* the **gateway** begins it at SUBMIT (tenant, SLO class, wire request
  id) and marks admission — or finishes it on the spot when admission
  sheds, rate-limits, or rejects;
* the **engine** marks dispatch (batch size, model version), hedging,
  and landing (worker id, retried / hedge-win flags), and finishes the
  record from the ticket's own exactly-once delivery guards — so a
  hedged batch whose two copies both land, or a crash-redispatched
  batch, still produces exactly one terminal per ticket;
* standalone engine embedders get the same records without a gateway:
  pass a :class:`Tracer` to :class:`~repro.serving.engine.InferenceEngine`
  and ``submit`` begins one per ticket.

Timestamps are **engine-clock monotonic** (RC004): durations computed
between them are immune to wall-clock steps.  The single sanctioned
wall-clock field is ``wall_start`` — stamped once at ``begin`` so a
human can line a trace up against log timestamps; it never enters any
latency math.

Completed records land in a bounded ring (:class:`Tracer`): overflow
evicts the oldest and **counts the drop** instead of silently growing
(RC007's sanctioned alternative to append-only telemetry lists).  The
ring is drained over the gateway's TRACE frame; an optional
:class:`TraceLog` JSONL sink (``repro serve --trace-log``) tees every
terminal record to disk, written outside every tracer lock.

Terminal states: ``delivered`` (result reached the caller), ``shed``
(admission, backpressure, or disconnect cancelled it — ``code`` says
which), ``error`` (the batch failed; ``code`` is the exception type).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable, TextIO

from repro.serving.observability.metrics import MetricsRegistry, StatsExporter, counted, get_metrics
from repro.serving.observability.metrics import published, tally

__all__ = ["TERMINALS", "TraceLog", "TraceRecord", "TraceStats", "Tracer"]

#: The three mutually exclusive ways a ticket's story ends.
TERMINALS = ("delivered", "shed", "error")


class TraceRecord:
    """One request's lifecycle. Mutated only through ``mark_*``/``finish``."""

    __slots__ = (
        "trace_id",
        "tenant",
        "slo_class",
        "request_id",
        "wall_start",
        "submit",
        "admitted",
        "dispatched",
        "hedged_at",
        "landed",
        "finished",
        "terminal",
        "code",
        "worker",
        "batch_size",
        "model_version",
        "retried",
        "hedged",
        "hedge_win",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        *,
        tenant: str | None = None,
        slo_class: str | None = None,
        request_id: int | None = None,
        submit: float | None = None,
    ) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.tenant = tenant
        self.slo_class = slo_class
        self.request_id = request_id
        # The one sanctioned wall-clock read in the serving stack: human
        # log correlation only, never latency math (those use the
        # monotonic marks below).
        self.wall_start = time.time()  # repro-check: ignore[RC004]
        self.submit = tracer.clock() if submit is None else submit
        self.admitted: float | None = None
        self.dispatched: float | None = None
        self.hedged_at: float | None = None
        self.landed: float | None = None
        self.finished: float | None = None
        self.terminal: str | None = None
        self.code: str | None = None
        self.worker: int | None = None
        self.batch_size: int | None = None
        self.model_version: int | None = None
        self.retried = False
        self.hedged = False
        self.hedge_win = False

    # -- lifecycle marks (single-writer per stage; no lock needed) -----
    def mark_admitted(self, now: float | None = None) -> None:
        self.admitted = self._tracer.clock() if now is None else now

    def mark_dispatched(
        self, now: float, *, batch_size: int, model_version: int
    ) -> None:
        self.dispatched = now
        self.batch_size = batch_size
        self.model_version = model_version

    def mark_hedged(self, now: float) -> None:
        self.hedged = True
        self.hedged_at = now

    def mark_landed(
        self,
        now: float,
        *,
        worker: int | None = None,
        retried: bool = False,
        hedge_win: bool = False,
    ) -> None:
        self.landed = now
        self.worker = worker
        self.retried = retried
        self.hedge_win = hedge_win

    def finish(self, terminal: str, *, code: str | None = None) -> bool:
        """Record the terminal state; False if one was already recorded.

        The exactly-once guard lives in the tracer (one check-and-set
        under its leaf lock), so racing finishers — a delivery callback
        and a disconnect purge, say — resolve to one terminal record.
        """
        return self._tracer._finish(self, terminal, code)

    # ------------------------------------------------------------------
    def _ms(self, start: float | None, end: float | None) -> float | None:
        if start is None or end is None:
            return None
        return round((end - start) * 1e3, 3)

    def to_dict(self) -> dict[str, Any]:
        """JSONL / TRACE-frame shape: marks plus derived durations (ms)."""
        return {
            "trace_id": self.trace_id,
            "tenant": self.tenant,
            "slo_class": self.slo_class,
            "request_id": self.request_id,
            "wall_start": self.wall_start,
            "terminal": self.terminal,
            "code": self.code,
            "worker": self.worker,
            "batch_size": self.batch_size,
            "model_version": self.model_version,
            "retried": self.retried,
            "hedged": self.hedged,
            "hedge_win": self.hedge_win,
            "admission_wait_ms": self._ms(self.submit, self.admitted),
            "queue_wait_ms": self._ms(
                self.admitted if self.admitted is not None else self.submit,
                self.dispatched,
            ),
            "exec_ms": self._ms(self.dispatched, self.landed),
            "total_ms": self._ms(self.submit, self.finished),
        }


class TraceLog:
    """Append-only JSONL sink for terminal trace records.

    One line per record, flushed per write so a crash loses at most the
    line being written.  Writes happen outside every tracer lock; the
    sink's own lock only serialises concurrent writers on the file.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._file: TextIO | None = open(self.path, "a", encoding="utf-8")
        self.written = 0

    def write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._file is None:
                return
            self._file.write(line + "\n")
            self._file.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


@dataclass
class TraceStats:
    """The tracer's counters; written under the tracer's lock."""

    terminals: Counter = tally(
        ("terminal",),
        published("repro_traces_total", "Terminal trace records by outcome"),
    )
    dropped: int = counted(
        "repro_trace_buffer_dropped_total",
        "Terminal trace records evicted from the ring before a drain",
    )


class Tracer:
    """Begin / finish trace records; keep the last ``capacity`` of them.

    The ring holds *terminal* records only — a record in flight lives on
    its ticket, not here, so an abandoned record costs nothing.  When
    the ring is full the oldest record is evicted and
    :attr:`dropped` increments: the TRACE frame reports the count, and
    ``repro_trace_buffer_dropped_total`` exposes it to scrapers, so a
    too-slow consumer sees the loss instead of inferring it.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        sink: TraceLog | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self.sink = sink
        self._lock = threading.Lock()
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.stats = TraceStats()
        self._next_id = 1
        metrics = metrics if metrics is not None else get_metrics()
        StatsExporter(metrics, self.stats)
        self._m_buffered = metrics.gauge(
            "repro_trace_buffer_size",
            "Terminal trace records currently buffered",
        )
        metrics.register_collector(self._collect)

    def _collect(self) -> None:
        with self._lock:
            size = len(self._ring)
        self._m_buffered.set(size)

    # ------------------------------------------------------------------
    def begin(
        self,
        *,
        tenant: str | None = None,
        slo_class: str | None = None,
        request_id: int | None = None,
        submit: float | None = None,
    ) -> TraceRecord:
        with self._lock:
            trace_id = self._next_id
            self._next_id += 1
        return TraceRecord(
            self,
            trace_id,
            tenant=tenant,
            slo_class=slo_class,
            request_id=request_id,
            submit=submit,
        )

    def _finish(self, record: TraceRecord, terminal: str, code: str | None) -> bool:
        if terminal not in TERMINALS:
            raise ValueError(f"unknown terminal {terminal!r}; one of {TERMINALS}")
        now = self.clock()
        with self._lock:
            if record.terminal is not None:
                return False  # exactly-once: a second finisher lost the race
            record.terminal = terminal
            record.code = code
            record.finished = now
            entry = record.to_dict()
            if len(self._ring) == self._ring.maxlen:
                self.stats.dropped += 1
            self._ring.append(entry)
            self.stats.terminals[terminal] += 1
        sink = self.sink
        if sink is not None:
            sink.write(entry)  # file IO stays outside the ring lock
        return True

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        with self._lock:
            return self.stats.dropped

    @property
    def buffered(self) -> int:
        with self._lock:
            return len(self._ring)

    def peek(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Newest-last view of buffered records, without consuming."""
        with self._lock:
            records = list(self._ring)
        return records if limit is None else records[-limit:]

    def drain(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Consume up to ``limit`` oldest records (all, when None)."""
        with self._lock:
            take = len(self._ring) if limit is None else min(limit, len(self._ring))
            return [self._ring.popleft() for _ in range(take)]
