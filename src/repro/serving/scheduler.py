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
  in-process — a :class:`~repro.serving.hub.StreamHub` with a scheduler:
  between the depth and deadline triggers the batch keeps accumulating,
  so spans closing near each other ride one vectorised forward pass;
* **how large a batch to allow** — adapt the effective batch limit
  online from observed per-batch latency (an exponentially-weighted
  linear model ``latency ≈ overhead + per_sample · batch``), so the
  engine runs the largest batch whose predicted execution time still
  fits inside the latency budget.

A third, optional decision closes the loop end to end: the **p95
safety-margin controller** (``adapt_margin=True``) watches the sliding
window of delivered queue latencies and widens the scheduling margin
when the observed p95 breaches the SLO (flushing earlier buys latency
back) or narrows it when the p95 sits well under target (bigger batches
buy throughput back).

The scheduler is a pure policy object: it never touches the queue and
has no threads.  The engine consults :meth:`should_flush` on every
``submit``/``poll`` and reports measurements back through
:meth:`observe_batch` / :meth:`record_queue_latency`.  Every release is
counted under the trigger that fired (``depth_flushes``,
``deadline_flushes``, ``idle_flushes``); a batch the engine releases at
its own hard ``max_batch_size`` cap counts as none of them.

Backend honesty: with a pooled execution backend
(:mod:`repro.serving.backends`), a batch's latency is no longer just its
forward pass — it queues in the executor behind other airborne batches
and crosses a thread or process boundary.  The engine therefore feeds
:meth:`observe_batch` the **submit-to-landing wall time** of the backend
it actually runs on (plus the worker-measured pure execution time via
``service_s``), so the EWMA model amortises the *whole* pipeline: the
adaptive limit prices executor queueing into its budget, the p95 margin
controller reacts to tail latency the clients really see, and swapping
backends re-learns the new cost profile within a few batches.
:meth:`bind_backend` records which backend the observations describe.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque

from repro.serving.observability.metrics import MetricsRegistry, StatsExporter, counted, get_metrics


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
    observed_batches: int = counted(
        "repro_scheduler_observed_batches_total", "Batch latency observations fed to the EWMA model"
    )
    #: Batches excluded from the latency model because a worker crash
    #: forced a redispatch (their wall time prices the crash recovery,
    #: not the backend's steady-state cost).
    retried_batches: int = 0
    #: Batches excluded because the engine hedged them onto a second
    #: slot: whichever copy lands first, the observation prices the
    #: straggler recovery, not the backend's steady-state cost.
    hedged_batches: int = 0
    #: Delivered-latency samples kept out of the p95 sliding window
    #: (rides of retried or hedged batches — see
    #: ``record_queue_latency(excluded=...)``).
    excluded_latency_samples: int = counted(
        "repro_scheduler_excluded_latency_samples_total",
        "Delivered-latency samples kept out of the p95 window "
        "(rides of retried or hedged batches)",
    )
    #: Safety-margin controller activity (see ``adapt_margin``).
    margin_widened: int = 0
    margin_narrowed: int = 0
    #: Delivered queue latencies (seconds), most recent last.
    queue_window: Deque[float] = field(default_factory=deque, repr=False)
    #: Submit-to-landing wall times (seconds) of recent non-excluded
    #: batches — the hedge threshold's statistic: it is on the same
    #: clock as the flight age it is compared against, where the
    #: arrival-based ``queue_window`` would double-count pre-dispatch
    #: wait and hedge far too late under assembly-heavy load.
    wall_window: Deque[float] = field(default_factory=deque, repr=False)


class BatchScheduler:
    """Latency-budgeted batching policy.

    Parameters
    ----------
    slo_ms:
        Target p95 queue latency (submit -> delivery) in milliseconds.
        ``None`` disables deadline-forced flushes: the policy degrades to
        a pure depth threshold (PR 1 behaviour) while still tracking
        latency statistics.
    min_batch / max_batch:
        Clamp for the adaptive batch limit.
    ewma_alpha:
        Forgetting factor of the latency model; higher adapts faster.
    safety:
        Fraction of the SLO budget the *execution* of a full batch may
        consume; the rest is queueing headroom (keeps p95, not the mean,
        under the target).
    margin_ms:
        Scheduling slack: flush when the earliest deadline's remaining
        budget falls within ``predicted batch latency + margin``.  With
        ``adapt_margin`` this is only the starting point.
    adapt_margin:
        Enable the p95 safety-margin controller: every ``adapt_every``
        delivered requests, compare the sliding-window p95 against the
        SLO and widen the margin (earlier deadline flushes, lower
        queueing latency) when the p95 breaches the target, or narrow it
        (larger batches, higher throughput) when the p95 sits comfortably
        below ``margin_target`` x SLO.  Multiplicative in both directions
        and clamped to ``margin_bounds_ms``, so one noisy window cannot
        slam the margin to an extreme.
    margin_bounds_ms:
        ``(lo, hi)`` clamp of the adaptive margin, milliseconds.
    margin_target:
        Fraction of the SLO the controller steers the observed p95
        toward; the dead band between ``margin_target * slo`` and the SLO
        keeps the controller quiet when latency is already on target.
    adapt_every:
        Delivered-request interval between controller decisions (also the
        minimum window fill before the first one).
    window:
        Number of delivered-latency samples kept for the p95 estimate.
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
        min_batch: int = 1,
        max_batch: int = 64,
        ewma_alpha: float = 0.25,
        safety: float = 0.8,
        margin_ms: float = 2.0,
        adapt_margin: bool = False,
        margin_bounds_ms: tuple[float, float] = (0.5, 25.0),
        margin_target: float = 0.8,
        adapt_every: int = 32,
        window: int = 512,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if slo_ms is not None and slo_ms < 0:
            raise ValueError("slo_ms must be >= 0")
        if not 1 <= min_batch <= max_batch:
            raise ValueError("need 1 <= min_batch <= max_batch")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 < safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")
        if not 0.0 <= margin_bounds_ms[0] <= margin_bounds_ms[1]:
            raise ValueError("need 0 <= margin_bounds_ms[0] <= margin_bounds_ms[1]")
        if not 0.0 < margin_target <= 1.0:
            raise ValueError("margin_target must be in (0, 1]")
        if adapt_every < 1:
            raise ValueError("adapt_every must be >= 1")
        self.slo_ms = slo_ms
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.ewma_alpha = ewma_alpha
        self.safety = safety
        self.margin_s = margin_ms / 1e3
        self._initial_margin_s = self.margin_s
        self.adapt_margin = adapt_margin
        self.margin_bounds_s = (margin_bounds_ms[0] / 1e3, margin_bounds_ms[1] / 1e3)
        self.margin_target = margin_target
        self.adapt_every = adapt_every
        self._since_adapt = 0
        self.clock = clock
        self.stats = SchedulerStats()
        self._window = window
        # EW moments of (batch_size, latency) for the linear model.
        self._mx = self._my = self._mxx = self._mxy = 0.0
        self._fitted = False
        #: Execution backend the latency observations describe.
        self.backend_name: str | None = None
        self.backend_slots: int = 1
        # EWMA of executor wait (submit-to-landing minus pure execution).
        self._mwait = 0.0
        self._wait_fitted = False
        metrics = metrics if metrics is not None else get_metrics()
        StatsExporter(metrics, self.stats)
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
        limit further — a ratchet to ``min_batch``.  The amortised bound
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
        """Largest batch whose predicted execution fits the budget."""
        if self.slo_s is None or not self._fitted:
            return self.max_batch
        overhead, per_sample = self._model()
        budget = self.slo_s * self.safety
        if per_sample <= 0.0:
            return self.max_batch
        limit = int((budget - overhead) / per_sample)
        return max(self.min_batch, min(limit, self.max_batch))

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
    def bind_backend(self, name: str, slots: int = 1) -> None:
        """Record which execution backend the observations describe.

        Called by the engine at construction.  If the backend actually
        *changes* (a different name than previously bound), the whole
        learned state is reset — the EWMA latency model, the p95
        queue-latency window, and an adapted safety margin: costs and
        tails learned on one backend — e.g. the inline path's zero
        queueing — would misprice the next.
        """
        if self.backend_name is not None and self.backend_name != name:
            self._mx = self._my = self._mxx = self._mxy = 0.0
            self._fitted = False
            self._mwait = 0.0
            self._wait_fitted = False
            self.stats.queue_window.clear()
            self.stats.wall_window.clear()
            self._since_adapt = 0
            self.margin_s = self._initial_margin_s
        self.backend_name = name
        self.backend_slots = max(int(slots), 1)

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
        steady-state cost — so it is counted but **excluded from the
        EWMA model** (one crash must not poison the adaptive limit into
        a panic spiral of tiny batches).  ``hedged`` marks a batch the
        engine duplicated onto a second slot because the primary
        outlived its hedge threshold; its wall time prices the straggler
        (or the hedge race), so it is excluded the same way.
        """
        if batch_size < 1 or latency_s < 0.0:
            return
        if retried or hedged:
            if retried:
                self.stats.retried_batches += 1
            if hedged:
                self.stats.hedged_batches += 1
            return
        if service_s is not None:
            wait = max(latency_s - service_s, 0.0)
            if not self._wait_fitted:
                self._mwait, self._wait_fitted = wait, True
            else:
                self._mwait += self.ewma_alpha * (wait - self._mwait)
        a = self.ewma_alpha
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
        wall = self.stats.wall_window
        wall.append(float(latency_s))
        while len(wall) > self._window:
            wall.popleft()

    def record_queue_latency(self, latency_s: float, *, excluded: bool = False) -> None:
        """Record one delivered request's submit -> delivery latency.

        With ``adapt_margin`` this is also the controller's sensor: every
        ``adapt_every`` deliveries the sliding-window p95 is compared
        against the SLO and the safety margin nudged (see
        :meth:`_adapt_margin_once`).

        ``excluded`` marks samples that rode a retried or hedged batch:
        their latency prices crash recovery or a deliberately delayed
        hedge race, not the policy the controller is steering — feeding
        them in would widen the margin on every hedge and ratchet the
        engine toward panic batch-1 flushes.  Excluded samples are
        counted but kept out of the sliding window entirely.
        """
        if excluded:
            self.stats.excluded_latency_samples += 1
            return
        window = self.stats.queue_window
        window.append(latency_s)
        while len(window) > self._window:
            window.popleft()
        if self.adapt_margin and self.slo_s is not None:
            self._since_adapt += 1
            if self._since_adapt >= self.adapt_every and len(window) >= self.adapt_every:
                self._since_adapt = 0
                self._adapt_margin_once()

    def _adapt_margin_once(self) -> None:
        """One controller step: widen on a p95 breach, narrow when slack.

        Multiplicative moves (x1.5 up, x0.85 down) with a dead band in
        between: widening reacts fast because a breach is already
        user-visible, narrowing creeps so throughput is reclaimed without
        oscillating straight back into a breach.
        """
        p95_ms = self.queue_p95_ms
        if p95_ms is None:
            return
        lo, hi = self.margin_bounds_s
        if p95_ms > self.slo_ms:
            # The 0.5 ms seed lets widening escape a zero margin (x1.5
            # alone would pin it there forever).
            widened = min(max(self.margin_s, lo, 5e-4) * 1.5, hi)
            if widened > self.margin_s:
                self.margin_s = widened
                self.stats.margin_widened += 1
        elif p95_ms < self.margin_target * self.slo_ms:
            narrowed = max(self.margin_s * 0.85, lo)
            if narrowed < self.margin_s:
                self.margin_s = narrowed
                self.stats.margin_narrowed += 1

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
        window = self.stats.wall_window
        if window:
            ordered = sorted(window)
            rank = math.ceil(0.95 * len(ordered)) - 1
            return max(ordered[max(rank, 0)], floor, 1e-3)
        # No delivered samples yet: triple the prediction stands in for
        # the unknown tail.
        return max(3.0 * predicted, floor, 1e-3)

    @property
    def queue_p95_ms(self) -> float | None:
        """p95 of the recorded queue latencies (None before any delivery)."""
        window = self.stats.queue_window
        if not window:
            return None
        ordered = sorted(window)
        rank = math.ceil(0.95 * len(ordered)) - 1  # nearest-rank p95
        return ordered[max(rank, 0)] * 1e3

    def snapshot(self) -> dict:
        """Operational summary for benchmarks / the CLI."""
        overhead, per_sample = self._model()
        return {
            "slo_ms": self.slo_ms,
            "backend": self.backend_name,
            "backend_slots": self.backend_slots,
            "executor_wait_ms": self._mwait * 1e3 if self._wait_fitted else None,
            "batch_limit": self.batch_limit,
            "overhead_ms": overhead * 1e3,
            "per_sample_ms": per_sample * 1e3,
            "margin_ms": self.margin_s * 1e3,
            "margin_widened": self.stats.margin_widened,
            "margin_narrowed": self.stats.margin_narrowed,
            "depth_flushes": self.stats.depth_flushes,
            "deadline_flushes": self.stats.deadline_flushes,
            "idle_flushes": self.stats.idle_flushes,
            "observed_batches": self.stats.observed_batches,
            "retried_batches": self.stats.retried_batches,
            "hedged_batches": self.stats.hedged_batches,
            "excluded_latency_samples": self.stats.excluded_latency_samples,
            "queue_p95_ms": self.queue_p95_ms,
        }
