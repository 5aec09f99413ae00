"""Deadline-aware adaptive batching policy for the inference engine.

The deployed pipeline classifies a gesture the moment its segment closes,
so serving *latency* — not just throughput — is the product constraint.
PR 1's engine flushed only on ``max_batch_size`` or an explicit call: a
lone queued span could wait unboundedly for company.

:class:`BatchScheduler` closes that gap.  It owns two decisions:

* **when to flush** — release the batch when it reaches the batch limit
  (*depth*), when running it *now* is predicted to just meet the
  earliest pending deadline (*deadline*), or — when the engine is polled
  with a free backend slot — at once (*idle slot*, counted through
  :meth:`note_idle_flush`).  The gateway polls that way, so it never
  idles the backend while work waits: a lone request dispatches at once
  and batches grow only while every slot is busy (the adaptive batching
  of Clipper, Crankshaw et al., NSDI'17); deadlines there order and shed
  work instead of delaying it.  Cross-round accumulation still applies
  in-process — a :class:`~repro.serving.hub.StreamHub` with an SLO:
  between the depth and deadline triggers the batch keeps accumulating,
  so spans closing near each other ride one vectorised forward pass;
* **how large a batch to allow** — adapt the effective batch limit
  online from observed per-batch latency (an exponentially-weighted
  linear model ``latency ≈ overhead + per_sample · batch``), so the
  engine runs the largest batch whose predicted execution time still
  fits inside the latency budget.

The scheduler is a pure policy object: it never touches the queue and
has no threads.  The engine consults :meth:`should_flush` on every
``submit``/``poll`` and reports measurements back through
:meth:`observe_batch` / :meth:`record_queue_latency`.  Every engine
owns exactly one scheduler (one built with ``slo_ms=None`` when the
caller passes none), and every release is counted under the trigger
that fired (``depth_flushes``, ``deadline_flushes``, ``idle_flushes``).
The engine's ``max_batch_size`` is the upper clamp of the batch limit
(handed over through :meth:`bind`), so a full batch is a depth flush.

Backend honesty: with a pooled execution backend
(:mod:`repro.serving.backends`), a batch's latency is no longer just its
forward pass — it queues in the executor behind other airborne batches
and crosses a thread or process boundary.  The engine therefore feeds
:meth:`observe_batch` the **submit-to-landing wall time** of the backend
it actually runs on (plus the worker-measured pure execution time via
``service_s``), so the EWMA model amortises the *whole* pipeline: the
adaptive limit prices executor queueing into its budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.serving.observability.metrics import LatencyWindow, MetricsRegistry, StatsExporter
from repro.serving.observability.metrics import counted, get_metrics

#: Forgetting factor of the latency model; higher adapts faster.
_EWMA_ALPHA = 0.25


def request_order(
    priority: int, deadline: float | None, arrival: float
) -> tuple[int, float, float]:
    """Drain-order sort key for one pending request.

    More important classes (lower ``priority``) first, then earlier
    deadlines, then earlier arrivals — the order the engine empties its
    queue in and the gateway feeds its admission queue into the engine,
    so under overload a premium request is classified (and delivered)
    ahead of batch traffic that arrived first.
    """
    return (priority, math.inf if deadline is None else deadline, arrival)


@dataclass
class SchedulerStats:
    """Why batches were released, plus the adaptation state."""

    depth_flushes: int = counted(
        "repro_scheduler_depth_flushes_total",
        "Batches released because the queue hit the batch limit",
    )
    deadline_flushes: int = counted(
        "repro_scheduler_deadline_flushes_total",
        "Batches released to protect the earliest pending deadline",
    )
    #: Batches released below the limit, ahead of any deadline, because
    #: a backend slot was free (see :meth:`BatchScheduler.note_idle_flush`).
    idle_flushes: int = counted(
        "repro_scheduler_idle_flushes_total",
        "Batches released at once because a backend slot was free",
    )
    #: Retried and hedged batches are not observed (see
    #: :meth:`BatchScheduler.observe_batch`); the engine counts them.
    observed_batches: int = counted(
        "repro_scheduler_observed_batches_total", "Batch latency observations fed to the EWMA model"
    )
    #: Delivered-latency samples kept out of the p95 sliding window
    #: (rides of retried or hedged batches — see
    #: ``record_queue_latency(excluded=...)``).
    excluded_latency_samples: int = counted(
        "repro_scheduler_excluded_latency_samples_total",
        "Delivered-latency samples kept out of the p95 window "
        "(rides of retried or hedged batches)",
    )
    #: Delivered queue latencies (seconds), most recent last.
    queue_window: LatencyWindow = field(default_factory=LatencyWindow, repr=False)
    #: Submit-to-landing wall times (seconds) of recent non-excluded
    #: batches — the hedge threshold's statistic: it is on the same
    #: clock as the flight age it is compared against, where the
    #: arrival-based ``queue_window`` would double-count pre-dispatch
    #: wait and hedge far too late under assembly-heavy load.
    wall_window: LatencyWindow = field(default_factory=LatencyWindow, repr=False)


class BatchScheduler:
    """Latency-budgeted batching policy.

    Parameters
    ----------
    slo_ms:
        Target p95 queue latency (submit -> delivery) in milliseconds.
        ``None``: no global budget — the batch limit stays at the
        engine's cap, and only requests carrying their own deadline can
        force a deadline flush.  Latency statistics are tracked either
        way.
    safety:
        Fraction of the SLO budget the *execution* of a full batch may
        consume; the rest is queueing headroom (keeps p95, not the mean,
        under the target).
    margin_ms:
        Scheduling slack: flush when the earliest deadline's remaining
        budget falls within ``predicted batch latency + margin``.
    clock:
        Monotonic time source (injectable for deterministic tests).
    metrics:
        :class:`~repro.serving.observability.metrics.MetricsRegistry` to
        instrument against (default: the process-global one).  Flush
        triggers and exclusions are :class:`SchedulerStats` fields,
        published at scrape time; the adaptation state
        (batch limit, margin, learned model, queue p95) is exported as
        gauges refreshed at scrape time from :meth:`snapshot`.
    """

    def __init__(
        self,
        *,
        slo_ms: float | None = 50.0,
        safety: float = 0.8,
        margin_ms: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if slo_ms is not None and slo_ms < 0:
            raise ValueError("slo_ms must be >= 0")
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        self.slo_ms = slo_ms
        #: Upper clamp of the batch limit: the owning engine's
        #: ``max_batch_size``, set by :meth:`bind`.
        self.max_batch: int | None = None
        self.safety = safety
        self.margin_s = margin_ms / 1e3
        self.clock = clock
        self.stats = SchedulerStats()
        # EW moments of (batch_size, latency) for the linear model.
        self._mx = self._my = self._mxx = self._mxy = 0.0
        self._fitted = False
        # EWMA of executor wait (submit-to-landing minus pure execution).
        self._mwait = 0.0
        self._wait_fitted = False
        self._metrics = metrics = metrics if metrics is not None else get_metrics()
        self._exporter = StatsExporter(metrics, self.stats)
        self._m_gauges = {
            key: metrics.gauge(f"repro_scheduler_{key}", help_text)
            for key, help_text in (
                ("batch_limit", "Adaptive batch limit currently in force"),
                ("margin_ms", "Scheduling safety margin (ms)"),
                ("per_sample_ms", "Learned per-sample batch cost (ms)"),
                ("overhead_ms", "Learned fixed batch overhead (ms)"),
                ("queue_p95_ms", "Sliding-window p95 of delivered latency (ms)"),
                ("executor_wait_ms", "EWMA executor queueing wait (ms)"),
            )
        }
        metrics.register_collector(self._collect_metrics)

    def close(self) -> None:
        """Stop publishing (the owning engine's :meth:`close` calls it)."""
        self._metrics.unregister_collector(self._collect_metrics)
        self._exporter.close()

    def _collect_metrics(self) -> None:
        """Scrape-time gauge refresh from the adaptation snapshot."""
        snapshot = self.snapshot()
        for key, gauge in self._m_gauges.items():
            value = snapshot[key]
            gauge.set(0.0 if value is None else float(value))

    # ------------------------------------------------------------------
    @property
    def slo_s(self) -> float | None:
        return None if self.slo_ms is None else self.slo_ms / 1e3

    def _model(self) -> tuple[float, float]:
        """``(overhead_s, per_sample_s)`` of the current latency fit.

        The regression slope is clamped to the amortised per-sample cost
        ``mean_latency / mean_batch``: a noisier slope (batch sizes that
        barely vary make ``cov/var`` explode) would feed back into a
        smaller batch limit, whose higher amortised cost shrinks the
        limit further — a ratchet to batches of one.  The amortised bound
        turns that loop into a stable fixed point at the largest batch
        whose execution fits the budget.
        """
        if not self._fitted or self._mx <= 0.0:
            return 0.0, 0.0
        amortised = self._my / self._mx
        var = self._mxx - self._mx * self._mx
        cov = self._mxy - self._mx * self._my
        if var > 1.0 and cov > 0.0:
            per_sample = min(cov / var, amortised)
            overhead = max(self._my - per_sample * self._mx, 0.0)
        else:
            # Degenerate (constant batch sizes, or noise-dominated):
            # attribute everything to the per-sample term.
            per_sample = amortised
            overhead = 0.0
        return overhead, per_sample

    def predicted_latency_s(self, batch_size: int) -> float:
        """Predicted execution time of a batch of ``batch_size``."""
        overhead, per_sample = self._model()
        return overhead + per_sample * max(batch_size, 0)

    @property
    def batch_limit(self) -> int:
        """Largest batch whose predicted execution fits the budget, at
        most the engine's cap (the cap itself without an SLO)."""
        if self.max_batch is None:
            raise RuntimeError("the scheduler is not bound to an engine yet")
        if self.slo_s is None or not self._fitted:
            return self.max_batch
        overhead, per_sample = self._model()
        budget = self.slo_s * self.safety
        if per_sample <= 0.0:
            return self.max_batch
        limit = int((budget - overhead) / per_sample)
        return max(1, min(limit, self.max_batch))

    # ------------------------------------------------------------------
    def should_flush(
        self,
        depth: int,
        *,
        slack_s: float | None = None,
    ) -> bool:
        """Release the pending batch now?

        ``depth`` is the queue depth; ``slack_s`` is the earliest pending
        deadline's remaining budget (seconds), or None when nothing
        pending carries a deadline and no SLO applies.
        """
        if depth <= 0:
            return False
        if depth >= self.batch_limit:
            self.stats.depth_flushes += 1
            return True
        if slack_s is not None and slack_s <= self.predicted_latency_s(depth) + self.margin_s:
            self.stats.deadline_flushes += 1
            return True
        return False

    def note_idle_flush(self) -> None:
        """Count a batch released because a backend slot was free.

        The engine calls this only after :meth:`should_flush` declined,
        so every release is counted under exactly one reason.
        """
        self.stats.idle_flushes += 1

    # ------------------------------------------------------------------
    def bind(self, max_batch: int) -> None:
        """Adopt the owning engine's hard batch cap (called once, by the
        engine's constructor)."""
        self.max_batch = max_batch

    def observe_batch(
        self,
        batch_size: int,
        latency_s: float,
        *,
        service_s: float | None = None,
        retried: bool = False,
        hedged: bool = False,
    ) -> None:
        """Feed one executed batch's measured latency into the model.

        ``latency_s`` is the submit-to-landing wall time on the engine's
        backend (execution *plus* executor queueing); ``service_s``, when
        the backend reports it, is the pure forward-pass time measured
        where it ran — the difference is tracked as the executor wait
        (see ``executor_wait_ms`` in :meth:`snapshot`).

        ``retried`` marks a batch that was redispatched after a worker
        crash: its wall time includes crash detection, respawn, and the
        second execution, none of which describe the backend's
        steady-state cost — so it is **excluded from the EWMA model**
        (one crash must not poison the adaptive limit into a panic
        spiral of tiny batches).  ``hedged`` marks a batch the engine
        duplicated onto a second slot because the primary outlived its
        hedge threshold; its wall time prices the straggler (or the
        hedge race), so it is excluded the same way.  Both are counted
        by the engine (``EngineStats.retried_batches`` /
        ``hedged_batches``), not here.
        """
        if batch_size < 1 or latency_s < 0.0 or retried or hedged:
            return
        if service_s is not None:
            wait = max(latency_s - service_s, 0.0)
            if not self._wait_fitted:
                self._mwait, self._wait_fitted = wait, True
            else:
                self._mwait += _EWMA_ALPHA * (wait - self._mwait)
        a = _EWMA_ALPHA
        if not self._fitted:
            self._mx, self._my = float(batch_size), float(latency_s)
            self._mxx = float(batch_size) ** 2
            self._mxy = float(batch_size) * float(latency_s)
            self._fitted = True
        else:
            self._mx = (1 - a) * self._mx + a * batch_size
            self._my = (1 - a) * self._my + a * latency_s
            self._mxx = (1 - a) * self._mxx + a * batch_size * batch_size
            self._mxy = (1 - a) * self._mxy + a * batch_size * latency_s
        self.stats.observed_batches += 1
        self.stats.wall_window.append(float(latency_s))

    def record_queue_latency(self, latency_s: float, *, excluded: bool = False) -> None:
        """Record one delivered request's submit -> delivery latency.

        ``excluded`` marks samples that rode a retried or hedged batch:
        their latency prices crash recovery or a deliberately delayed
        hedge race, not the batching policy the p95 reports on.
        Excluded samples are counted but kept out of the sliding window
        entirely.
        """
        if excluded:
            self.stats.excluded_latency_samples += 1
            return
        self.stats.queue_window.append(latency_s)

    def hedge_threshold_s(self, batch_size: int) -> float | None:
        """Age (s) past which an airborne batch deserves a hedge copy.

        ``None`` until the latency model has at least one observation —
        hedging blind would duplicate every batch during warm-up.  Once
        fitted, the threshold is the observed p95 *batch wall time*
        (submit to landing — the same clock the flight age being tested
        runs on; the arrival-based queue window would double-count
        pre-dispatch wait), floored at twice the predicted
        submit-to-landing time of this batch so a well-behaved batch is
        never hedged merely because the window is stale, and at 1 ms so
        a microsecond-fast model cannot hedge-storm.
        """
        if not self._fitted:
            return None
        predicted = self.predicted_latency_s(batch_size)
        if self._wait_fitted:
            predicted += self._mwait
        floor = 2.0 * predicted
        p95 = self.stats.wall_window.p95()
        if p95 is not None:
            return max(p95, floor, 1e-3)
        # No delivered samples yet: triple the prediction stands in for
        # the unknown tail.
        return max(3.0 * predicted, floor, 1e-3)

    @property
    def queue_p95_ms(self) -> float | None:
        """p95 of the recorded queue latencies (None before any delivery)."""
        p95 = self.stats.queue_window.p95()
        return None if p95 is None else p95 * 1e3

    def snapshot(self) -> dict:
        """Operational summary for benchmarks / the CLI."""
        overhead, per_sample = self._model()
        return {
            "slo_ms": self.slo_ms,
            "executor_wait_ms": self._mwait * 1e3 if self._wait_fitted else None,
            "batch_limit": self.batch_limit,
            "overhead_ms": overhead * 1e3,
            "per_sample_ms": per_sample * 1e3,
            "margin_ms": self.margin_s * 1e3,
            "depth_flushes": self.stats.depth_flushes,
            "deadline_flushes": self.stats.deadline_flushes,
            "idle_flushes": self.stats.idle_flushes,
            "observed_batches": self.stats.observed_batches,
            "excluded_latency_samples": self.stats.excluded_latency_samples,
            "queue_p95_ms": self.queue_p95_ms,
        }
