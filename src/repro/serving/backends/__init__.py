"""Pluggable execution backends for the inference engine.

The engine's flush path is *submit a batch, collect its completion*;
where the forward pass actually runs is this package's concern:

* :class:`InlineBackend` — synchronous, in the caller's thread (the
  default; exactly the pre-backend behaviour).
* :class:`ThreadPoolBackend` — a thread pool whose threads all predict
  on the one system they were handed (a frozen forward writes nothing);
  overlaps exec with the caller (the gateway's event loop keeps reading
  sockets while NumPy runs, and BLAS releases the GIL).
* :class:`ProcessPoolBackend` — worker processes that attach the model
  as a **read-only mmap'd weight arena** (see
  :func:`repro.core.persistence.export_flat`) instead of unpickling a
  copy, for true multi-core parallelism with one shared physical copy
  of the weights.  The pool is **self-healing**: per-worker heartbeats,
  crash/hang detection, exactly-once batch redispatch, and budgeted
  respawn (:class:`WorkerCrashError` is the clean failure past the
  budget).

All three produce byte-identical posteriors to
:meth:`InferenceEngine.predict_one` (enforced by
``tests/serving/test_backends.py``).
"""

from repro.serving.backends.base import (
    BACKEND_NAMES,
    ExecutionBackend,
    create_backend,
    retain_heap,
)
from repro.serving.backends.inline import InlineBackend
from repro.serving.backends.process import ProcessPoolBackend, WorkerCrashError
from repro.serving.backends.threads import ThreadPoolBackend

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "InlineBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "WorkerCrashError",
    "create_backend",
    "retain_heap",
]
