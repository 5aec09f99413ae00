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

Arena lifetime: the pool is the only owner of its bundles.  It exports
each system once, into its own temporary directory, and counts pins
under ``_lock``: one per airborne batch naming the bundle and one per
worker modelled as having it mapped (each worker keeps the last two
bundles attached).  A bundle is deleted exactly when it is no longer
the current system's and nothing pins it.  Until then it keeps its
system -> bundle mapping, so a hedge or a redispatch re-uses it.
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

from repro.serving.backends.base import ExecutionBackend, retain_heap, timed_predict
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
    """Mirror the parent's import path and heap policy in a spawned worker."""
    for entry in reversed(extra_sys_path):
        if entry and entry not in sys.path:
            sys.path.insert(0, entry)
    retain_heap()


def _worker_attach(conn, attached: dict, bundle_dir: str):
    """Attach a bundle (evicting past the cache), prefetching its pages.

    The arena's pages are touched *at attach time* — one read per page,
    sequential, readahead-friendly — instead of being first-faulted at
    random by the first forward pass, which is exactly the critical path
    of the first post-respawn batch.  Pages touched are reported to the
    parent as a ``("pf", npages)`` message.
    """
    system = attached.get(bundle_dir)
    if system is None:
        from repro.core.persistence import load_system_flat, prefetch_arena

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


def _worker_main(conn, extra_sys_path: list[str], heartbeat_s: float) -> None:
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
                _worker_attach(conn, attached, message[1])
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
            system = _worker_attach(conn, attached, bundle_dir)
            payload = ("result", task_id, *timed_predict(system, batch))
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

    __slots__ = ("task_id", "bundle", "batch", "future", "retries")

    def __init__(self, task_id: int, bundle: str, batch: np.ndarray) -> None:
        self.task_id = task_id
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
    arena_exports: int = counted(
        "repro_backend_arena_exports_total", "Flat weight-arena bundles exported to disk"
    )
    retired_arenas: int = counted(
        "repro_backend_retired_arenas_total",
        "Superseded arena bundles deleted once nothing pinned them",
    )


class ProcessPoolBackend(ExecutionBackend):
    """Self-healing multi-core execution behind the engine's batch contract.

    Parameters
    ----------
    workers:
        Worker process count (the backend's ``slots``).
    heartbeat_ms / hang_timeout_s:
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
    precision:
        Arena precision of the pool's exports (``float64`` / ``float32``
        / ``int8`` — see :mod:`repro.serving.precision`); callers gate
        converted systems through the fidelity check before serving
        them.
    pin_cores:
        Pin each worker to one CPU of the parent's affinity mask,
        round-robin by worker id, via ``os.sched_setaffinity`` — arena
        pages and BLAS threads stop migrating between cores.  Graceful
        no-op on platforms without ``sched_setaffinity`` (macOS,
        Windows).
    metrics:
        :class:`~repro.serving.observability.metrics.MetricsRegistry` to
        instrument against (default: the process-global one).  Crash /
        respawn / redispatch / prefetch / arena counters increment at
        the same sites as the ``describe()`` numbers; per-worker
        liveness and the live-arena count are exported as gauges
        refreshed at scrape time.

    Workers are always spawned (see the module docstring for why fork
    is unsafe here) and always prefetch a bundle's pages when they
    attach it.
    """

    name = "process"
    #: Heartbeats an idle worker may miss before it is declared hung.
    miss_limit = 5
    #: Times one batch may be moved off a dead worker before its future
    #: fails (redispatched exactly once).
    max_redispatch = 1
    #: ``close()``'s cooperative-join deadline before it escalates to
    #: terminate/kill — a wedged worker cannot leave a zombie behind.
    shutdown_timeout_s = 5.0
    #: Time a fresh spawn gets for its imports before the miss deadline.
    spawn_grace_s = 120.0

    def __init__(
        self,
        workers: int = 4,
        *,
        heartbeat_ms: float = 100.0,
        hang_timeout_s: float = 30.0,
        max_respawns: int = 8,
        precision: str = "float64",
        pin_cores: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if heartbeat_ms <= 0:
            raise ValueError("heartbeat_ms must be > 0")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        from repro.nn.serialization import flat_dtype_for

        flat_dtype_for(precision)  # validates the name
        self.workers = workers
        self.precision = precision
        self._pin_cores = bool(pin_cores)
        self._cores: list[int] = []
        if self._pin_cores:
            try:
                self._cores = sorted(os.sched_getaffinity(0))
            except AttributeError:  # platform without CPU affinity
                self._pin_cores = False
        self._heartbeat_s = heartbeat_ms / 1e3
        self._hang_timeout_s = float(hang_timeout_s)
        self._max_respawns = max_respawns
        self._ctx = multiprocessing.get_context("spawn")
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
        #: Weight bundles, all guarded by ``_lock``.  ``_arenas`` maps
        #: ``id(system)`` to ``(system, bundle)``; the strong reference
        #: keeps the id from being recycled while the bundle is mapped.
        #: ``_pins`` counts each live bundle's airborne batches plus
        #: modelled worker attachments; ``_current`` is the bundle of the
        #: system last made current (a respawned worker is warmed
        #: against it); ``_doomed`` holds retired bundles awaiting
        #: deletion off the lock.
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-arena-")
        self._export_ids = itertools.count(1)
        self._arenas: dict[int, tuple[object, str]] = {}
        self._pins: dict[str, int] = {}
        self._current: str | None = None
        self._doomed: list[str] = []
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
        self._m_live_arenas = self._metrics.gauge(
            "repro_backend_live_arenas",
            "Arena bundles on disk: the current one plus superseded ones still pinned",
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
            live_arenas = len(self._pins)
            rows = [
                (str(w.ident), w.alive, w.task is not None) for w in self._pool
            ]
        self._m_alive.set(alive)
        self._m_queued.set(queued)
        self._m_degraded.set(1.0 if degraded else 0.0)
        self._m_live_arenas.set(live_arenas)
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
    def prepare(self, system) -> str:
        """Make ``system`` current and return its bundle directory.

        The first sight of a system exports it; later calls re-use the
        bundle while it is mapped.  The bundle that was current before
        is deleted as soon as nothing pins it.
        """
        return self._with_bundle(system, self._make_current_locked)

    def _with_bundle(self, system, use):
        """``use(bundle)`` under ``_lock``, with ``system``'s bundle mapped.

        The lookup and ``use`` share one critical section, so the bundle
        cannot retire between them.  An unmapped system is exported off
        the lock (disk IO) and becomes current once mapped; an export
        that lost a race to another thread's is deleted unused.
        """
        fresh = None
        try:
            while True:
                with self._lock:
                    if self._closed:
                        if fresh is not None:
                            self._doomed.append(fresh)
                        raise RuntimeError("process pool is closed")
                    entry = self._arenas.get(id(system))
                    if fresh is not None:
                        if entry is None:
                            entry = self._map_locked(system, fresh)
                        else:  # another thread mapped it while this one exported
                            self._doomed.append(fresh)
                    if entry is not None:
                        return use(entry[1])
                fresh = self._export(system)
        finally:
            self._delete_doomed()

    def _export(self, system) -> str:
        from repro.core.persistence import export_flat

        bundle = os.path.join(self._tmpdir.name, f"v{next(self._export_ids)}")
        export_flat(system, bundle, precision=self.precision)
        return bundle

    def _map_locked(self, system, bundle: str) -> tuple[object, str]:
        """Map a fresh export of ``system``; it becomes the current one."""
        entry = self._arenas[id(system)] = (system, bundle)
        self._pins[bundle] = 0
        self.stats.arena_exports += 1
        self._make_current_locked(bundle)
        return entry

    def _make_current_locked(self, bundle: str) -> str:
        previous, self._current = self._current, bundle
        if previous is not None and previous != bundle:
            self._retire_if_unpinned_locked(previous)
        return bundle

    def _retain(self, bundle: str) -> None:
        """Pin a bundle: one airborne batch or one worker attachment."""
        self._pins[bundle] += 1

    def _release(self, bundle: str) -> None:
        self._pins[bundle] -= 1
        self._retire_if_unpinned_locked(bundle)

    def _retire_if_unpinned_locked(self, bundle: str) -> None:
        """Unmap ``bundle`` once it is neither current nor pinned.

        Only the bookkeeping happens here, under ``_lock``; the
        directory goes to ``_doomed`` and :meth:`_delete_doomed` removes
        it after the lock is released (RC002).
        """
        if bundle == self._current or self._pins[bundle]:
            return
        del self._pins[bundle]
        self._arenas = {
            key: entry for key, entry in self._arenas.items() if entry[1] != bundle
        }
        self.stats.retired_arenas += 1
        self._doomed.append(bundle)

    def _delete_doomed(self) -> None:
        """Delete retired bundles: blocking disk IO, so never under ``_lock``."""
        if not self._doomed:  # unlocked peek; a miss waits for the next call
            return
        with self._lock:
            doomed, self._doomed = self._doomed, []
        for bundle in doomed:
            shutil.rmtree(bundle, ignore_errors=True)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        ident = next(self._worker_ids)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._extra_path, self._heartbeat_s),
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
        batch = np.ascontiguousarray(batch)
        task = self._with_bundle(
            system, lambda bundle: self._enqueue_locked(bundle, batch, urgent)
        )
        self._wake()
        return task.future

    def _enqueue_locked(self, bundle: str, batch: np.ndarray, urgent: bool) -> _Task:
        if self._supervisor_failed:
            raise WorkerCrashError(
                "worker pool supervisor crashed; restart the pool to resume"
            )
        if self._degraded and not any(w.alive for w in self._pool):
            raise WorkerCrashError(
                "worker pool degraded: respawn budget exhausted and no "
                "workers survive; restart the pool to resume"
            )
        task = _Task(next(self._task_ids), bundle, batch)
        self._retain(bundle)  # airborne pin, released when the batch lands
        if urgent:
            self._queue.insert(0, task)
        else:
            self._queue.append(task)
        return task

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
            self._delete_doomed()

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
            self._delete_doomed()
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
                # Warm the replacement against the current bundle:
                # attach + page prefetch happen now, while the worker is
                # idle, not under its first batch.
                if self._current is not None:
                    self._model_attach(worker, self._current)
                    try:
                        worker.conn.send(("warm", self._current))
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
        idle_deadline = self._heartbeat_s * self.miss_limit
        spawn_grace = max(self.spawn_grace_s, idle_deadline)
        for worker in list(self._pool):
            dead_reason = None
            if worker.process.exitcode is not None or worker.eof:
                dead_reason = f"exit code {worker.process.exitcode}"
            else:
                if worker.task is None:
                    # A fresh spawn imports numpy + repro before it can
                    # heartbeat: until its first message, only the (much
                    # longer) spawn grace applies, not the miss deadline.
                    deadline = idle_deadline if worker.ready else spawn_grace
                    reference = worker.last_seen
                else:
                    deadline = idle_deadline + self._hang_timeout_s
                    if not worker.ready:
                        deadline = max(deadline, spawn_grace)
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
            if lost.retries < self.max_redispatch and healthy:
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
        self._supervisor.join(timeout=self.shutdown_timeout_s + 5.0)
        # Cooperative join under a deadline, then escalate: close() must
        # reap every child even if it races an airborne (or wedged)
        # batch — a zombie worker outliving the pool is a bug.
        deadline = time.monotonic() + self.shutdown_timeout_s
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
            # The temporary directory goes below, with every bundle in it.
            self._arenas.clear()
            self._pins.clear()
            self._current = None
            self._doomed.clear()
        for action in actions:
            action()
        try:
            self._wake_r.close()
            self._wake_w.close()
        except Exception:
            pass
        self._tmpdir.cleanup()

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
                "prefetched_pages": self.stats.prefetched_pages,
                "pin_cores": self._pin_cores,
                "degraded": self._degraded,
                "supervisor_failed": self._supervisor_failed,
                "reaping": len(self._reaping),
                "queued": len(self._queue),
                "arena_exports": self.stats.arena_exports,
                "retired_arenas": self.stats.retired_arenas,
                "live_arenas": len(self._pins),
            }
