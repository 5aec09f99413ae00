"""Thread-pool execution over the one shared system."""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.serving.backends.base import ExecutionBackend, timed_predict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import GesturePrint


class ThreadPoolBackend(ExecutionBackend):
    """Run batches on a thread pool, every thread on the system it was handed.

    A frozen forward writes nothing on its modules (see
    ``docs/concurrency-invariants.md``), so every worker thread predicts
    through the caller's system object: one copy of the weights, and a
    hot swap costs nothing here.  An unfrozen eval forward still stores
    backward caches, but no forward reads them back, so concurrent
    predicts stay byte-identical too.  :meth:`prepare` switches a model
    left in training mode to eval on the calling thread, before any
    worker sees it.

    What this buys: the submitting thread (the gateway's event loop)
    keeps running — reading sockets, admitting, shedding — while NumPy
    executes, and BLAS kernels release the GIL, so multi-core machines
    see real overlap.  For full multi-core *exec* parallelism use
    :class:`~repro.serving.backends.ProcessPoolBackend`.
    """

    name = "thread"

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.slots = workers
        self.workers = workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-exec"
        )

    def prepare(self, system: "GesturePrint") -> None:
        for model in system.models():
            if model.training:
                model.eval()

    def submit(self, system: "GesturePrint", batch: np.ndarray) -> Future:
        return self._pool.submit(timed_predict, system, batch)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def describe(self) -> dict:
        return {**super().describe(), "workers": self.workers}
