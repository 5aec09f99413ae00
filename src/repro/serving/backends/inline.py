"""Synchronous in-thread execution — the default backend."""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING

import numpy as np

from repro.serving.backends.base import ExecutionBackend, run_to_future, timed_predict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import GesturePrint


class InlineBackend(ExecutionBackend):
    """Run every batch synchronously in the submitting thread.

    ``submit`` has already executed the forward by the time it returns,
    so the engine's dispatch-then-collect cycle degenerates to exactly
    the pre-backend flush: no extra threads, no reordering, identical
    timing behaviour.  This is the right backend for single-tenant and
    in-process callers where the submit thread has nothing better to do
    than the math itself.
    """

    name = "inline"
    slots = 1

    def submit(self, system: "GesturePrint", batch: np.ndarray) -> Future:
        return run_to_future(timed_predict, system, batch)
