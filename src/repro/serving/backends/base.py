"""Execution backend contract: submit a batch, get a future back.

A backend owns *where* a stacked forward pass runs; the engine owns
everything else (queueing, batching policy, ticket delivery, version
tagging).  The contract is deliberately tiny:

``submit(system, batch)`` returns a ``concurrent.futures.Future`` that
resolves to ``(PipelineResult, exec_seconds)`` — the batch's posteriors
plus the pure execution time measured where the forward actually ran.
The engine measures submit-to-completion wall time itself, so the
difference is the executor queueing the scheduler's latency model must
not be blind to.

Backends capture the ``system`` argument per call: a hot swap hands
later submissions the new system while airborne batches keep the
reference (and weights) they were submitted with.

A *supervised* backend (the self-healing process pool) may complete a
batch on a different worker than the one it first dispatched to: it
stamps ``future.retried = True`` on any future it had to redispatch
after a worker crash, and the engine excludes those batches from the
scheduler's latency model (their wall time prices crash recovery, not
the backend).  Futures without the attribute are treated as not
retried, so plain backends need no change.
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import GesturePrint, PipelineResult

#: CLI / factory spellings, in documentation order.
BACKEND_NAMES = ("inline", "thread", "process")


class ExecutionBackend(abc.ABC):
    """Where a micro-batch's vectorised forward pass executes."""

    #: Factory spelling of this backend.
    name: str = "?"
    #: Batches the backend can usefully run at once; the gateway stops
    #: feeding the engine while this many are airborne, so overload keeps
    #: pooling (and shedding) in the admission queue, not the executor.
    slots: int = 1
    #: Numeric precision of the weights this backend serves (the process
    #: pool exports reduced-precision arenas itself; in-process backends
    #: run whatever system they are handed, converted or not).  Surfaced
    #: through ``engine.precision`` and the gateway STATS rows.
    precision: str = "float64"

    @abc.abstractmethod
    def submit(self, system: "GesturePrint", batch: np.ndarray) -> Future:
        """Run ``system.predict(batch)``; resolves to ``(result, exec_s)``."""

    def submit_urgent(self, system: "GesturePrint", batch: np.ndarray) -> Future:
        """Like :meth:`submit`, but entitled to jump any internal queue.

        The engine's hedge dispatch path: a hedge duplicates a batch
        whose flight already outlived the scheduler's tail threshold, so
        queueing it FIFO behind a backlog would forfeit the race it
        exists to win.  Backends with an internal queue (the process
        pool) place urgent work at the *front*; backends without one
        run it like any other submission — this default.
        """
        return self.submit(system, batch)

    def prepare(self, system: "GesturePrint") -> None:
        """Pre-stage a system off the hot path (e.g. export its weight
        arena before the first batch — or right after a hot swap — so the
        first submission doesn't pay for it)."""

    def close(self) -> None:
        """Release executor resources; submitted work is drained first."""

    def describe(self) -> dict:
        """Operational identity for snapshots/benchmarks."""
        return {"name": self.name, "slots": self.slots, "precision": self.precision}

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()


def timed_predict(system: "GesturePrint", batch: np.ndarray) -> "tuple[PipelineResult, float]":
    """``system.predict(batch)`` and its execution seconds: a submission's outcome."""
    start = time.perf_counter()
    result = system.predict(batch)
    return result, time.perf_counter() - start


def run_to_future(fn: Callable[..., Any], *args: Any) -> Future:
    """Execute ``fn`` now, capturing its outcome into a completed Future.

    The inline backend's whole submission path: the caller gets the same
    Future-shaped handle the pooled backends return, so the engine's
    collection logic has exactly one code path.
    """
    future: Future = Future()
    future.set_running_or_notify_cancel()
    try:
        future.set_result(fn(*args))
    except Exception as error:
        future.set_exception(error)
    return future


def create_backend(
    spec: str, *, workers: int | None = None, **kwargs: Any
) -> ExecutionBackend:
    """Build a backend from its CLI spelling (``--backend``/``--workers``)."""
    from repro.serving.backends.inline import InlineBackend
    from repro.serving.backends.process import ProcessPoolBackend
    from repro.serving.backends.threads import ThreadPoolBackend

    spec = str(spec).strip().lower()
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if spec == "inline":
        return InlineBackend()
    if spec == "thread":
        return ThreadPoolBackend(workers=2 if workers is None else workers, **kwargs)
    if spec == "process":
        return ProcessPoolBackend(workers=4 if workers is None else workers, **kwargs)
    raise ValueError(f"unknown backend {spec!r}; choose from {BACKEND_NAMES}")
