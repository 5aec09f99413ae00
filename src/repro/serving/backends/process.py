"""Self-healing process-pool execution over read-only mmap'd weight arenas.

The point of this backend is what it does *not* do: it never pickles a
model.  The parent exports each system once as a flat weight bundle
(:func:`repro.core.persistence.export_flat` — one contiguous float64
arena plus a JSON manifest) and ships workers only the bundle *path*
with every batch.  Workers attach the arena with ``np.memmap(mode="r")``
(:func:`~repro.core.persistence.load_system_flat`), so all workers share
one physical copy of the weights through the page cache, attachment is
O(page faults) rather than O(deserialise), and a hot swap is "export the
new arena, send the new path" — airborne batches keep executing against
the old mapping.

Workers are spawned (not forked): the parent may be running an asyncio
event loop, BLAS pools, and a background gateway thread, none of which
survive a fork safely.

Supervision
-----------
Unlike a :class:`concurrent.futures.ProcessPoolExecutor` — where one
dead child marks the whole pool broken and fails every future — this
pool owns its workers directly and *heals*:

* each worker holds one duplex pipe; idle workers send a **heartbeat**
  on it every ``heartbeat_ms``, and every result doubles as one;
* a supervisor thread waits on the pipes plus the process sentinels, so
  a SIGKILLed worker is detected the instant the kernel reaps it; a
  silent worker (no message for ``miss_limit`` heartbeats while idle,
  or ``hang_timeout_s`` past that while executing a batch) is declared
  hung, killed, and treated the same way;
* the batch airborne on a dead worker is **redispatched exactly once**
  to a healthy worker (its future is stamped ``retried=True`` so the
  engine's scheduler excludes it from the latency model); a second
  crash fails the batch's tickets with :class:`WorkerCrashError`;
* the dead worker is **respawned** against the current weight bundle,
  up to ``max_respawns`` for the pool's lifetime; past the budget the
  pool degrades — it keeps serving on the surviving workers, and once
  none remain every submission fails with a clean
  :class:`WorkerCrashError` instead of hanging (the engine stays
  usable, routing the error to the affected tickets only);
* ``close()`` never leaves zombies: workers get a stop message, are
  joined under ``shutdown_timeout_s``, and whatever is still alive is
  terminated, killed, and reaped, with any still-airborne futures
  failed rather than stranded.

Arena lifetime: when an ``arena_refs`` provider is attached (the CLI
wires :class:`~repro.serving.ModelRegistry`), the pool refcounts every
bundle by *airborne batches* plus *worker attachments* (each worker
keeps the last two bundles mapped), so the registry can garbage-collect
a superseded bundle the moment the last batch lands and the last worker
lets go of it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait

import numpy as np

from repro.serving.backends.base import ExecutionBackend
from repro.serving.observability.metrics import MetricsRegistry, StatsExporter, counted, get_metrics

#: Bundles a worker keeps attached (current system + one swap-ago); the
#: parent mirrors this constant to model each worker's mappings for the
#: arena refcounts.
_ATTACH_CACHE = 2


class WorkerCrashError(RuntimeError):
    """A batch could not be completed because its worker died (or hung
    past the heartbeat deadline) and the redispatch/respawn budget was
    exhausted — or the pool was closed/degraded before it could run."""


def _worker_initializer(extra_sys_path: list[str]) -> None:
    """Mirror the parent's import path in a spawned worker."""
    for entry in reversed(extra_sys_path):
        if entry and entry not in sys.path:
            sys.path.insert(0, entry)


def _worker_attach(conn, attached: dict, bundle_dir: str, prefetch: bool):
    """Attach a bundle (evicting past the cache), prefetching its pages.

    With ``prefetch`` the arena's pages are touched *at attach time* —
    one read per page, sequential, readahead-friendly — instead of being
    first-faulted at random by the first forward pass, which is exactly
    the critical path of the first post-respawn batch.  Pages touched
    are reported to the parent as a ``("pf", npages)`` message.
    """
    system = attached.get(bundle_dir)
    if system is None:
        from repro.core.persistence import load_system_flat, prefetch_arena

        if prefetch:
            try:
                pages = prefetch_arena(bundle_dir)
            except OSError:
                pages = 0
            if pages:
                try:
                    conn.send(("pf", pages))
                except (EOFError, OSError):
                    pass
        system = load_system_flat(bundle_dir)
        attached[bundle_dir] = system
        while len(attached) > _ATTACH_CACHE:
            attached.pop(next(iter(attached)))
    return system


def _worker_main(
    conn, extra_sys_path: list[str], heartbeat_s: float, prefetch: bool = True
) -> None:
    """Worker loop: heartbeat while idle, attach bundles, run batches.

    Messages from the parent: ``("task", id, bundle_dir, batch)``,
    ``("warm", bundle_dir)`` (attach + prefetch ahead of the first
    batch; a respawned worker gets one immediately), ``("chaos", mode)``
    (fault injection for tests/chaos benchmarks), ``("stop",)``.
    Messages to the parent: ``("hb", t)`` heartbeats, ``("pf", npages)``
    prefetch reports, ``("result", id, PipelineResult, exec_s)``,
    ``("error", id, exc)``.
    """
    _worker_initializer(extra_sys_path)
    attached: dict[str, object] = {}
    chaos: str | None = None
    while True:
        try:
            if not conn.poll(heartbeat_s):
                conn.send(("hb", time.monotonic()))
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        kind = message[0]
        if kind == "stop":
            return
        if kind == "chaos":
            chaos = message[1]
            continue
        if kind == "warm":
            try:
                _worker_attach(conn, attached, message[1], prefetch)
            # Warm-up is advisory; the task path re-attaches and a real
            # attach failure surfaces there as a task error.
            # repro-check: ignore[RC006]
            except Exception:
                pass
            continue
        _, task_id, bundle_dir, batch = message
        if chaos == "die_in_task":
            os.kill(os.getpid(), signal.SIGKILL)
        if chaos == "hang_in_task":
            while True:  # simulated wedge: only the supervisor ends it
                time.sleep(3600.0)
        try:
            system = _worker_attach(conn, attached, bundle_dir, prefetch)
            start = time.perf_counter()
            result = system.predict(batch)
            payload = ("result", task_id, result, time.perf_counter() - start)
        except Exception as error:
            payload = ("error", task_id, error)
        try:
            conn.send(payload)
        except (EOFError, OSError):
            return
        except Exception as error:  # unpicklable result/exception
            try:
                conn.send(
                    ("error", task_id, RuntimeError(f"worker could not ship batch outcome: {error!r}"))
                )
            except Exception:
                return


def _repro_src_root() -> str:
    """The directory holding the ``repro`` package (for PYTHONPATH)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class _Task:
    """One airborne-or-queued batch between submit and its future."""

    __slots__ = ("task_id", "system", "bundle", "batch", "future", "retries")

    def __init__(self, task_id: int, system, bundle: str, batch: np.ndarray) -> None:
        self.task_id = task_id
        self.system = system  # strong ref: id(system) stays valid while airborne
        self.bundle = bundle
        self.batch = batch
        self.future: Future = Future()
        self.future.set_running_or_notify_cancel()
        self.retries = 0


class _Worker:
    """Parent-side handle: process, pipe, and modeled attach cache."""

    __slots__ = (
        "ident", "process", "conn", "task", "task_started", "last_seen",
        "attached", "tasks_done", "eof", "ready", "pinned_cpu",
    )

    def __init__(self, ident: int, process, conn) -> None:
        self.ident = ident
        self.process = process
        self.conn = conn
        #: CPU this worker was pinned to (``pin_cores``), or None.
        self.pinned_cpu: int | None = None
        self.task: _Task | None = None
        self.task_started = 0.0
        self.last_seen = time.monotonic()
        #: False until the first message arrives: a fresh spawn imports
        #: numpy + repro before it can heartbeat, so the miss deadline
        #: must not apply yet (only the spawn grace does).
        self.ready = False
        #: Bundles this worker has attached, oldest first (mirrors the
        #: worker-side cache: insert on first use, evict oldest past
        #: ``_ATTACH_CACHE``) — the worker half of the arena refcounts.
        self.attached: list[str] = []
        self.tasks_done = 0
        self.eof = False

    @property
    def alive(self) -> bool:
        return not self.eof and self.process.exitcode is None


@dataclass
class PoolStats:
    """Supervisor counters of one pool, published labelled by backend."""

    crashes: int = counted(
        "repro_backend_crashes_total", "Workers declared dead (exit, SIGKILL, or missed heartbeats)"
    )
    respawns: int = counted(
        "repro_backend_respawns_total", "Replacement workers spawned after a death"
    )
    redispatches: int = counted(
        "repro_backend_redispatches_total", "Batches moved off a dead worker onto a healthy one"
    )
    prefetched_pages: int = counted(
        "repro_backend_prefetched_pages_total",
        "Arena pages touched at attach time, ahead of the first batch",
    )


class ProcessPoolBackend(ExecutionBackend):
    """Self-healing multi-core execution behind the engine's batch contract.

    Parameters
    ----------
    workers:
        Worker process count (the backend's ``slots``).
    arena_provider:
        ``system -> bundle directory`` hook.  The CLI wires this to
        :meth:`~repro.serving.ModelRegistry.arena_for` so checkpoints
        loaded through the registry share its cached exports; without
        one, the backend exports into a private temporary directory on
        first sight of each system (and pre-exports in :meth:`prepare`).
    arena_refs:
        Optional object with ``addref_arena(bundle)`` /
        ``decref_arena(bundle)`` (duck-typed;
        :class:`~repro.serving.ModelRegistry` implements it).  When set,
        the pool pins each bundle for every airborne batch naming it and
        for every worker modeled as having it attached, enabling the
        registry's arena garbage collection.
    heartbeat_ms / miss_limit / hang_timeout_s / spawn_grace_s:
        Health-check knobs: idle workers heartbeat every
        ``heartbeat_ms``; a worker silent for ``miss_limit`` heartbeats
        while idle — or for ``hang_timeout_s`` beyond that while a batch
        is airborne on it — is declared dead, killed, and replaced.  A
        fresh spawn gets ``spawn_grace_s`` to finish its imports before
        the miss deadline applies (its first message arms it).
    max_respawns:
        Lifetime respawn budget for the pool.  Past it, dead workers are
        not replaced; once none survive, submissions fail with
        :class:`WorkerCrashError` instead of hanging.
    max_redispatch:
        How many times one batch may be moved off a dead worker before
        its future fails (default 1: redispatched exactly once).
    shutdown_timeout_s:
        ``close()``'s cooperative-join deadline before it escalates to
        terminate/kill — a wedged worker cannot leave a zombie behind.
    start_method:
        ``multiprocessing`` start method; spawn by default (see module
        docstring for why fork is unsafe here).
    precision:
        Arena precision for the pool's *own* exports (``float64`` /
        ``float32`` / ``int8`` — see :mod:`repro.serving.precision`).
        With an ``arena_provider`` the provider owns export precision
        instead; callers gate converted systems through the fidelity
        check before serving them.
    prefetch:
        Touch every arena page at attach time in the worker (one read
        per page) so a respawned worker pays its page faults off the
        batch critical path.  On by default; pages touched surface as
        ``prefetched_pages`` in :meth:`describe`.
    pin_cores:
        Pin each worker to one CPU of the parent's affinity mask,
        round-robin by worker id, via ``os.sched_setaffinity`` — arena
        pages and BLAS threads stop migrating between cores.  Graceful
        no-op on platforms without ``sched_setaffinity`` (macOS,
        Windows).
    metrics:
        :class:`~repro.serving.observability.metrics.MetricsRegistry` to
        instrument against (default: the process-global one).  Crash /
        respawn / redispatch / prefetch counters increment at the same
        sites as the ``describe()`` numbers; per-worker liveness is
        exported as gauges refreshed at scrape time.
    """

    name = "process"

    def __init__(
        self,
        workers: int = 4,
        *,
        arena_provider=None,
        arena_refs=None,
        heartbeat_ms: float = 100.0,
        miss_limit: int = 5,
        hang_timeout_s: float = 30.0,
        max_respawns: int = 8,
        max_redispatch: int = 1,
        shutdown_timeout_s: float = 5.0,
        spawn_grace_s: float = 120.0,
        start_method: str = "spawn",
        precision: str = "float64",
        prefetch: bool = True,
        pin_cores: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if heartbeat_ms <= 0:
            raise ValueError("heartbeat_ms must be > 0")
        if miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        if max_respawns < 0 or max_redispatch < 0:
            raise ValueError("max_respawns/max_redispatch must be >= 0")
        from repro.nn.serialization import flat_dtype_for

        flat_dtype_for(precision)  # validates the name
        self.workers = workers
        self.precision = precision
        self._prefetch = bool(prefetch)
        self._pin_cores = bool(pin_cores)
        self._cores: list[int] = []
        if self._pin_cores:
            try:
                self._cores = sorted(os.sched_getaffinity(0))
            except AttributeError:  # platform without CPU affinity
                self._pin_cores = False
        #: Most recent bundle handed to a worker; a respawned worker is
        #: warmed against it (attach + prefetch) before its first batch.
        self._last_bundle: str | None = None
        self._arena_provider = arena_provider
        self._arena_refs = arena_refs
        self._heartbeat_s = heartbeat_ms / 1e3
        self._idle_deadline_s = self._heartbeat_s * miss_limit
        self._hang_timeout_s = float(hang_timeout_s)
        self._max_respawns = max_respawns
        self._max_redispatch = max_redispatch
        self._shutdown_timeout_s = shutdown_timeout_s
        self._spawn_grace_s = max(spawn_grace_s, self._idle_deadline_s)
        self._ctx = multiprocessing.get_context(start_method)
        # Spawned children re-import this module by name; spawn ships
        # the parent's sys.path in its preparation data, and the
        # initializer re-asserts it (plus the repro src root) in case a
        # start-method variant or an embedding host trimmed it.
        self._extra_path = [_repro_src_root()] + list(sys.path)
        self._lock = threading.RLock()
        self._queue: list[_Task] = []
        self._task_ids = itertools.count()
        self._worker_ids = itertools.count()
        self._closed = False
        self._degraded = False
        self._supervisor_failed = False
        #: Respawns decided but not yet spawned (the supervisor spawns
        #: outside the lock so a death never stalls submit/dispatch),
        #: and spawns currently in flight — both count as capacity for
        #: the redispatch/degrade decisions.
        self._want_spawn = 0
        self._spawning = 0
        #: Consecutive spawn failures; a transient EAGAIN must not burn
        #: the whole pool, a persistent one must not retry forever.
        self._spawn_failures = 0
        #: Killed workers awaiting a non-blocking reap.
        self._reaping: list[_Worker] = []
        self.stats = PoolStats()
        self._metrics = metrics if metrics is not None else get_metrics()
        label = {"backend": self.name}
        self._exporter = StatsExporter(self._metrics, self.stats, labels=label)
        self._m_alive = self._metrics.gauge(
            "repro_backend_alive_workers", "Workers currently alive", ("backend",)
        ).labels(**label)
        self._m_queued = self._metrics.gauge(
            "repro_backend_queued", "Batches waiting for a free worker", ("backend",)
        ).labels(**label)
        self._m_degraded = self._metrics.gauge(
            "repro_backend_degraded",
            "1 when the respawn budget is exhausted and the pool is shrinking",
            ("backend",),
        ).labels(**label)
        self._m_worker_up = self._metrics.gauge(
            "repro_backend_worker_up",
            "1 while this worker is alive",
            ("backend", "worker"),
        )
        self._m_worker_busy = self._metrics.gauge(
            "repro_backend_worker_busy",
            "1 while this worker has a batch airborne",
            ("backend", "worker"),
        )
        self._seen_worker_labels: set[str] = set()
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._pool: list[_Worker] = [self._spawn_worker() for _ in range(workers)]
        self._metrics.register_collector(self._collect_metrics)  # reads _pool
        #: Exported bundles by system identity; values hold a strong
        #: system reference so an ``id`` is never recycled while mapped.
        self._bundles: dict[int, tuple[object, str]] = {}
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._own_bundles: list[str] = []
        self._export_count = 0
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    def _collect_metrics(self) -> None:
        """Scrape-time gauge refresh (registered as a metrics collector).

        Snapshots pool state under the lock, writes gauges after
        releasing it.  Workers that left the pool since the last scrape
        have their per-worker series pinned to 0 rather than frozen at
        their last live values.
        """
        with self._lock:
            alive = sum(1 for w in self._pool if w.alive)
            queued = len(self._queue)
            degraded = self._degraded
            rows = [
                (str(w.ident), w.alive, w.task is not None) for w in self._pool
            ]
        self._m_alive.set(alive)
        self._m_queued.set(queued)
        self._m_degraded.set(1.0 if degraded else 0.0)
        current = {ident for ident, _, _ in rows}
        for ident, is_alive, busy in rows:
            self._m_worker_up.labels(backend=self.name, worker=ident).set(
                1.0 if is_alive else 0.0
            )
            self._m_worker_busy.labels(backend=self.name, worker=ident).set(
                1.0 if busy else 0.0
            )
        for ident in self._seen_worker_labels - current:
            self._m_worker_up.labels(backend=self.name, worker=ident).set(0.0)
            self._m_worker_busy.labels(backend=self.name, worker=ident).set(0.0)
        self._seen_worker_labels |= current

    # ------------------------------------------------------------------
    # Arena bundles (export + refcounts)
    # ------------------------------------------------------------------
    def _own_export(self, system) -> str:
        from repro.core.persistence import export_flat

        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-arena-")
        self._export_count += 1
        bundle = os.path.join(self._tmpdir.name, f"v{self._export_count}")
        export_flat(system, bundle, precision=self.precision)
        # Keep this bundle plus its predecessor (batches dispatched just
        # before a swap may still attach to it); delete anything older
        # so repeated hot swaps don't accumulate weight copies on disk.
        self._own_bundles.append(bundle)
        if len(self._own_bundles) > 2:
            live = {path for _, path in self._bundles.values()}
            keep = set(self._own_bundles[-2:]) | live
            for old in self._own_bundles[:-2]:
                if old not in keep:
                    shutil.rmtree(old, ignore_errors=True)
            self._own_bundles = [
                path for path in self._own_bundles if path in keep
            ]
        return bundle

    def prepare(self, system) -> str:
        """The system's bundle directory, exporting it if unseen.

        With an ``arena_provider`` the provider is consulted every time
        (it caches by key + system identity itself, so this is one dict
        probe): a local shortcut could hand out a path the provider's
        garbage collector already retired — e.g. after swapping back to
        a previous system object — and the local cache would only pin
        superseded systems alive for nothing.
        """
        if self._arena_provider is not None:
            return os.fspath(self._arena_provider(system))
        entry = self._bundles.get(id(system))
        if entry is not None and entry[0] is system:
            return entry[1]
        bundle = self._own_export(system)
        self._bundles[id(system)] = (system, bundle)
        # Current system + the one it superseded: batches dispatched just
        # before a swap may still name the old bundle, anything older
        # cannot be airborne anymore (and pinning old systems here would
        # keep their full weight copies resident).
        while len(self._bundles) > 2:
            self._bundles.pop(next(iter(self._bundles)))
        return bundle

    def _retain(self, bundle: str) -> None:
        if self._arena_refs is not None:
            self._arena_refs.addref_arena(bundle)

    def _release(self, bundle: str) -> None:
        if self._arena_refs is not None:
            self._arena_refs.decref_arena(bundle)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        ident = next(self._worker_ids)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._extra_path, self._heartbeat_s, self._prefetch),
            name=f"repro-exec-{ident}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(ident, process, parent_conn)
        if self._pin_cores and self._cores:
            # Round-robin by worker id so replacements inherit a stable
            # spread; one CPU per worker keeps the arena's pages and the
            # BLAS threads resident on a single core's caches.
            cpu = self._cores[ident % len(self._cores)]
            try:
                os.sched_setaffinity(process.pid, {cpu})
                worker.pinned_cpu = cpu
            except (AttributeError, OSError):
                worker.pinned_cpu = None  # container/cgroup said no: run unpinned
        return worker

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"w")
        except (OSError, ValueError):
            pass  # closing

    def _model_attach(self, worker: _Worker, bundle: str) -> None:
        """Mirror the worker-side attach cache for the arena refcounts."""
        if bundle in worker.attached:
            return
        worker.attached.append(bundle)
        self._retain(bundle)
        while len(worker.attached) > _ATTACH_CACHE:
            self._release(worker.attached.pop(0))

    def _drop_worker_pins(self, worker: _Worker) -> None:
        for bundle in worker.attached:
            self._release(bundle)
        worker.attached.clear()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def slots(self) -> int:
        """Live execution capacity: alive workers plus replacements
        already budgeted or spawning.  A pool shrunk past its respawn
        budget reports the shrunken width, so the gateway's feed gate
        keeps overload pooling in the *admission queue* — where shedding
        and priority apply — instead of inside the pool's own queue
        behind the survivors.  Floored at 1 so feeders still probe a
        fully dead pool and surface its clean error instead of queueing
        forever."""
        with self._lock:
            live = (
                sum(1 for worker in self._pool if worker.alive)
                + self._want_spawn
                + self._spawning
            )
        return max(live, 1)

    def submit(self, system, batch: np.ndarray) -> Future:
        return self._submit(system, batch, urgent=False)

    def submit_urgent(self, system, batch: np.ndarray) -> Future:
        """Hedge path: the duplicate joins the *front* of the queue —
        it races a flight that already outlived the tail threshold, so
        waiting behind the backlog would forfeit the race."""
        return self._submit(system, batch, urgent=True)

    def _submit(self, system, batch: np.ndarray, *, urgent: bool) -> Future:
        bundle = self.prepare(system)
        with self._lock:
            if self._closed:
                raise RuntimeError("process pool is closed")
            if self._supervisor_failed:
                raise WorkerCrashError(
                    "worker pool supervisor crashed; restart the pool to resume"
                )
            if self._degraded and not any(w.alive for w in self._pool):
                raise WorkerCrashError(
                    "worker pool degraded: respawn budget exhausted and no "
                    "workers survive; restart the pool to resume"
                )
            task = _Task(
                next(self._task_ids), system, bundle, np.ascontiguousarray(batch)
            )
            self._retain(bundle)  # airborne pin, released when the batch lands
            if urgent:
                self._queue.insert(0, task)
            else:
                self._queue.append(task)
        self._wake()
        return task.future

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        try:
            self._supervise_loop()
        except Exception as error:
            # The supervisor must never die silently: a dead supervisor
            # means nothing dispatches, collects, or health-checks, and
            # every airborne future would hang forever.  Fail everything
            # outstanding cleanly instead, and make submit() refuse.
            actions: list = []
            with self._lock:
                self._supervisor_failed = True
                self._degraded = True
                crash = WorkerCrashError(f"worker pool supervisor crashed: {error!r}")
                for worker in self._pool:
                    task, worker.task = worker.task, None
                    if task is not None:
                        self._release(task.bundle)
                        actions.append(lambda f=task.future, e=crash: f.set_exception(e))
                self._fail_queued_locked(actions, crash)
            for action in actions:
                action()

    def _supervise_loop(self) -> None:
        tick = max(self._heartbeat_s / 2.0, 0.01)
        while True:
            actions: list = []
            with self._lock:
                if self._closed:
                    return
                self._dispatch_locked()
                waitables = [self._wake_r]
                for worker in self._pool:
                    if worker.alive:
                        waitables.append(worker.conn)
                        waitables.append(worker.process.sentinel)
            try:
                connection_wait(waitables, timeout=tick)
            except OSError:
                pass  # a sentinel/pipe closed under us; re-scan
            spawn_count = 0
            with self._lock:
                if self._closed:
                    return
                while self._wake_r.poll(0):
                    # poll(0) said bytes are buffered, so this recv
                    # cannot block.  # repro-check: ignore[RC002]
                    self._wake_r.recv_bytes()
                self._read_messages_locked(actions)
                self._check_health_locked(actions)
                self._reap_locked()
                spawn_count, self._want_spawn = self._want_spawn, 0
                self._spawning += spawn_count
                self._dispatch_locked()
            for action in actions:  # resolve futures outside the lock
                action()
            for _ in range(spawn_count):
                self._spawn_replacement()

    def _reap_locked(self) -> None:
        """Non-blocking waitpid sweep over killed workers (no zombies,
        and no join() stalling the lock while the kernel catches up)."""
        for worker in list(self._reaping):
            worker.process.join(timeout=0)
            if not worker.process.is_alive():
                self._reaping.remove(worker)

    #: Consecutive spawn failures tolerated (tick-paced retries) before
    #: the failure is treated like an exhausted respawn budget.
    _MAX_SPAWN_RETRIES = 3

    def _spawn_replacement(self) -> None:
        """Spawn one respawn-budgeted replacement *outside* the lock
        (Pipe + process start take tens of ms; a death must not stall
        submit/dispatch for the healthy part of the pool).

        A spawn failure can be transient (EAGAIN under fork pressure,
        momentary fd exhaustion): it is retried on the next supervisor
        tick, up to ``_MAX_SPAWN_RETRIES`` consecutive failures — only
        then, and only with no survivor and no other spawn pending, does
        the pool degrade and fail its queue.
        """
        try:
            worker = self._spawn_worker()
        except Exception as error:  # fd exhaustion, fork failure, ...
            actions: list = []
            with self._lock:
                self._spawning -= 1
                self._spawn_failures += 1
                if self._spawn_failures <= self._MAX_SPAWN_RETRIES:
                    self._want_spawn += 1  # retry next tick
                elif (
                    not any(w.alive for w in self._pool)
                    and self._want_spawn == 0
                    and self._spawning == 0
                ):
                    self._degraded = True
                    self._fail_queued_locked(
                        actions,
                        WorkerCrashError(f"worker respawn failed: {error!r}"),
                    )
            for action in actions:
                action()
            return
        with self._lock:
            self._spawning -= 1
            self._spawn_failures = 0
            if self._closed:
                pass  # closed while spawning: reap it below, not pooled
            else:
                self._pool.append(worker)
                # Warm the replacement against the bundle traffic is on:
                # attach + page prefetch happen now, while the worker is
                # idle, not under the first redispatched batch.
                if self._last_bundle is not None:
                    self._model_attach(worker, self._last_bundle)
                    try:
                        worker.conn.send(("warm", self._last_bundle))
                    except Exception:
                        worker.eof = True  # health check reaps it
                return
        worker.process.kill()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except Exception:
            pass

    def _dispatch_locked(self) -> None:
        for worker in self._pool:
            if not self._queue:
                return
            if worker.task is not None or not worker.alive:
                continue
            task = self._queue[0]
            self._model_attach(worker, task.bundle)
            try:
                worker.conn.send(("task", task.task_id, task.bundle, task.batch))
            except Exception:
                worker.eof = True  # broken pipe: health check reaps it
                continue
            self._queue.pop(0)
            self._last_bundle = task.bundle
            worker.task = task
            worker.task_started = time.monotonic()
            # Who ran it, for trace records: a redispatch overwrites the
            # stamp, so the future reports the worker that finished it.
            task.future.worker = worker.ident

    def _read_messages_locked(self, actions: list) -> None:
        now = time.monotonic()
        for worker in self._pool:
            if worker.eof:
                continue
            while True:
                try:
                    if not worker.conn.poll(0):
                        break
                    # poll(0) above guarantees a buffered message: this
                    # recv returns immediately, it never waits on the
                    # worker.  # repro-check: ignore[RC002]
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    worker.eof = True
                    break
                worker.last_seen = now
                worker.ready = True
                kind = message[0]
                if kind == "hb":
                    continue
                if kind == "pf":
                    self.stats.prefetched_pages += int(message[1])
                    continue
                task = worker.task
                if task is None or task.task_id != message[1]:
                    continue  # stale outcome from a task we already moved
                worker.task = None
                worker.tasks_done += 1
                self._release(task.bundle)  # the airborne pin
                future = task.future
                if task.retries:
                    future.retried = True
                if kind == "result":
                    _, _, result, exec_s = message
                    actions.append(
                        lambda f=future, r=result, s=exec_s: f.set_result((r, s))
                    )
                else:
                    _, _, error = message
                    actions.append(lambda f=future, e=error: f.set_exception(e))

    def _check_health_locked(self, actions: list) -> None:
        now = time.monotonic()
        for worker in list(self._pool):
            dead_reason = None
            if worker.process.exitcode is not None or worker.eof:
                dead_reason = f"exit code {worker.process.exitcode}"
            else:
                if worker.task is None:
                    # A fresh spawn imports numpy + repro before it can
                    # heartbeat: until its first message, only the (much
                    # longer) spawn grace applies, not the miss deadline.
                    deadline = (
                        self._idle_deadline_s if worker.ready else self._spawn_grace_s
                    )
                    reference = worker.last_seen
                else:
                    deadline = self._idle_deadline_s + self._hang_timeout_s
                    if not worker.ready:
                        deadline = max(deadline, self._spawn_grace_s)
                    reference = max(worker.last_seen, worker.task_started)
                if now - reference > deadline:
                    dead_reason = (
                        "missed heartbeat deadline"
                        if worker.task is None
                        else "hung mid-batch past the heartbeat deadline"
                    )
            if dead_reason is not None:
                self._handle_death_locked(worker, dead_reason, actions)

    def _handle_death_locked(
        self, worker: _Worker, reason: str, actions: list
    ) -> None:
        self.stats.crashes += 1
        self._pool.remove(worker)
        worker.eof = True
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.exitcode is None:
            try:
                worker.process.kill()  # SIGKILL: works on stopped processes too
            except Exception:
                pass
        worker.process.join(timeout=0)  # non-blocking; _reap_locked finishes
        if worker.process.is_alive():
            self._reaping.append(worker)
        self._drop_worker_pins(worker)
        lost = worker.task
        worker.task = None
        if self.stats.respawns < self._max_respawns:
            self.stats.respawns += 1
            self._want_spawn += 1  # spawned outside the lock
        # Someone must exist to run a redispatched batch: a survivor, a
        # replacement just budgeted, or one already spawning.  Otherwise
        # failing directly is the honest outcome (counting a redispatch
        # that immediately fails in _fail_queued_locked would lie).
        healthy = (
            self._want_spawn > 0
            or self._spawning > 0
            or any(w.alive for w in self._pool)
        )
        if lost is not None:
            if lost.retries < self._max_redispatch and healthy:
                lost.retries += 1
                self.stats.redispatches += 1
                lost.future.retried = True
                self._queue.insert(0, lost)  # ahead of newer work
            else:
                self._release(lost.bundle)
                why = (
                    "the redispatch budget is exhausted"
                    if healthy
                    else "no worker survives to take the redispatch"
                )
                actions.append(
                    lambda f=lost.future, r=reason, w=why: f.set_exception(
                        WorkerCrashError(f"worker died ({r}) and {w}")
                    )
                )
        if not healthy:
            self._degraded = True
            self._fail_queued_locked(
                actions,
                WorkerCrashError(
                    f"worker pool degraded: last worker died ({reason}) with "
                    "the respawn budget exhausted"
                ),
            )

    def _fail_queued_locked(self, actions: list, error: Exception) -> None:
        queued, self._queue = self._queue, []
        for task in queued:
            self._release(task.bundle)
            actions.append(lambda f=task.future, e=error: f.set_exception(e))

    # ------------------------------------------------------------------
    # Fault injection (tests + chaos benchmarks)
    # ------------------------------------------------------------------
    def inject_fault(self, mode: str = "die_in_task") -> int | None:
        """Arm one idle, healthy worker to fail on its *next* batch.

        ``die_in_task`` SIGKILLs the worker the moment the batch arrives
        (the batch is provably airborne and lost — the deterministic
        crash-mid-batch the fault tests and ``bench_faults`` need);
        ``hang_in_task`` wedges it instead, exercising the
        missed-heartbeat path.  Returns the armed worker's pid, or None
        when no idle worker could be armed.
        """
        with self._lock:
            for worker in self._pool:
                if worker.alive and worker.task is None:
                    try:
                        worker.conn.send(("chaos", mode))
                    except Exception:
                        worker.eof = True
                        continue
                    return worker.process.pid
        return None

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._metrics.unregister_collector(self._collect_metrics)
        self._exporter.close()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Include workers already killed but not yet reaped: close()
            # leaves no zombie behind, whatever state the pool was in.
            pool = list(self._pool) + list(self._reaping)
            self._reaping.clear()
            for worker in pool:
                if worker.alive:
                    try:
                        worker.conn.send(("stop",))
                    except Exception:
                        worker.eof = True
        self._wake()
        self._supervisor.join(timeout=self._shutdown_timeout_s + 5.0)
        # Cooperative join under a deadline, then escalate: close() must
        # reap every child even if it races an airborne (or wedged)
        # batch — a zombie worker outliving the pool is a bug.
        deadline = time.monotonic() + self._shutdown_timeout_s
        for worker in pool:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.0))
        for worker in pool:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in pool:
            if worker.process.is_alive():
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            # Shutdown teardown: the pipe may already be broken by the
            # worker's death, and there is nothing left to surface to.
            # repro-check: ignore[RC006]
            except Exception:
                pass
        actions: list = []
        with self._lock:
            for worker in pool:
                self._drop_worker_pins(worker)
                if worker.task is not None:
                    task, worker.task = worker.task, None
                    self._release(task.bundle)
                    actions.append(
                        lambda f=task.future: f.set_exception(
                            WorkerCrashError("process pool closed while the batch was airborne")
                        )
                    )
            self._fail_queued_locked(
                actions, WorkerCrashError("process pool closed before the batch ran")
            )
            self._pool.clear()
        for action in actions:
            action()
        try:
            self._wake_r.close()
            self._wake_w.close()
        except Exception:
            pass
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self._bundles.clear()

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        now = time.monotonic()
        with self._lock:
            worker_health = [
                {
                    "id": worker.ident,
                    "pid": worker.process.pid,
                    "alive": worker.alive,
                    "busy": worker.task is not None,
                    "tasks_done": worker.tasks_done,
                    "last_seen_ms": round((now - worker.last_seen) * 1e3, 1),
                    "attached_bundles": len(worker.attached),
                    "pinned_cpu": worker.pinned_cpu,
                }
                for worker in self._pool
            ]
            return {
                "name": self.name,
                "slots": self.slots,
                "workers": self.workers,
                "alive_workers": sum(1 for w in self._pool if w.alive),
                "worker_health": worker_health,
                "respawns": self.stats.respawns,
                "crashes": self.stats.crashes,
                "redispatches": self.stats.redispatches,
                "max_respawns": self._max_respawns,
                "heartbeat_ms": self._heartbeat_s * 1e3,
                "precision": self.precision,
                "prefetch": self._prefetch,
                "prefetched_pages": self.stats.prefetched_pages,
                "pin_cores": self._pin_cores,
                "degraded": self._degraded,
                "supervisor_failed": self._supervisor_failed,
                "reaping": len(self._reaping),
                "queued": len(self._queue),
                "bundles": len(self._bundles),
            }
