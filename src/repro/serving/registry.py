"""Keyed, LRU-cached store of fitted GesturePrint systems.

The paper's deployment trains on a back-end server and ships fitted
models to edge devices.  The seed repo's CLI, examples, and benchmarks
each re-loaded (or worse, re-fitted) a system per invocation;
:class:`ModelRegistry` wraps :mod:`repro.core.persistence` with an
in-process cache so repeated lookups of the same checkpoint are free and
hot systems stay resident under a bounded capacity.

The registry also hands out **shareable weight arenas**
(:meth:`arena` / :meth:`arena_for`): flat mmap-ready bundles exported
once per cached system and keyed exactly like the system cache, so a
:class:`~repro.serving.backends.ProcessPoolBackend`'s workers attach the
same physical weights the parent serves — and a hot-reloaded checkpoint
gets a fresh arena automatically when its cache entry turns over.

Superseded arenas are **garbage collected**: consumers refcount each
bundle (:meth:`addref_arena` / :meth:`decref_arena` — one pin per
airborne batch, one per worker attachment), and a bundle displaced by a
hot reload is deleted the moment its count drops to zero, so a
long-lived server reloading daily holds a bounded number of weight
copies instead of one per swap.  ``stats.retired_arenas`` counts actual
deletions; :meth:`snapshot` summarises the GC state.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.persistence import (
    MANIFEST_NAME,
    export_flat,
    load_system,
    save_system,
)
from repro.core.pipeline import GesturePrint
from repro.nn.serialization import flat_dtype_for
from repro.serving.observability.metrics import MetricsRegistry, StatsExporter, counted, get_metrics


@dataclass
class RegistryStats:
    """Cache-effectiveness counters."""

    hits: int = counted("repro_registry_hits_total", "Cache lookups served from memory.")
    misses: int = counted("repro_registry_misses_total", "Cache lookups that missed.")
    evictions: int = counted("repro_registry_evictions_total", "LRU evictions of resident systems.")
    loads: int = counted("repro_registry_loads_total", "Checkpoint loads from disk.")
    saves: int = counted("repro_registry_saves_total", "Checkpoint saves to disk.")
    fits: int = counted("repro_registry_fits_total", "Fresh fits via get_or_fit factories.")
    arena_exports: int = counted(
        "repro_registry_arena_exports_total", "Flat weight-arena bundles exported to disk."
    )
    #: Superseded weight bundles whose file + mapping were actually
    #: deleted by the arena garbage collector.
    retired_arenas: int = counted(
        "repro_registry_retired_arenas_total",
        "Superseded arena bundles garbage collected (file deleted).",
    )


class ModelRegistry:
    """LRU cache of fitted systems, keyed by checkpoint path or name.

    Parameters
    ----------
    capacity:
        Maximum number of resident systems; the least recently used entry
        is evicted first.  Fitted systems are a handful of MB each, so a
        small capacity covers realistic multi-tenant serving.
    metrics:
        Destination for ``repro_registry_*`` series; defaults to the
        process-global registry from
        :func:`~repro.serving.observability.metrics.get_metrics`.
    """

    def __init__(
        self, *, capacity: int = 4, metrics: MetricsRegistry | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = RegistryStats()
        self._metrics = metrics if metrics is not None else get_metrics()
        m = self._metrics
        # The exporter holds only the stats object, so a dropped registry
        # is still garbage collected (see the weakref collector below).
        StatsExporter(m, self.stats)
        self._g_resident = m.gauge(
            "repro_registry_resident", "Systems currently cached in memory."
        ).labels()
        self._g_live = m.gauge(
            "repro_registry_live_arenas",
            "Arena bundles currently on disk (current + pinned + graced).",
        ).labels()
        self._g_pinned = m.gauge(
            "repro_registry_pinned_arenas",
            "Arena bundles held by at least one airborne batch or worker.",
        ).labels()
        self._cache: OrderedDict[str, GesturePrint] = OrderedDict()
        #: Manifest mtime (ns) per path-keyed entry, for staleness checks.
        self._mtimes: dict[str, int] = {}
        #: ``key@precision`` -> (system, bundle dir) of exported weight
        #: arenas; the system reference pins identity so a reloaded
        #: checkpoint (new object, same key) re-exports instead of
        #: serving stale weights.  One logical key may hold several
        #: precision variants of the *same* system (a float64 reference
        #: arena next to the int8 fast-path bundle); all variants retire
        #: together when the key's system turns over.
        self._arenas: dict[str, tuple[GesturePrint, str]] = {}
        #: bundle -> refcount (airborne batches + attached workers);
        #: see :meth:`addref_arena` — a superseded bundle is deleted the
        #: moment its count drops to zero.
        self._arena_refs: dict[str, int] = {}
        #: Bundles that ever held a refcount: for them GC is exact; a
        #: never-pinned bundle (no refcounting consumer attached) falls
        #: back to the one-swap grace in ``_graced``.
        self._arena_pinned: set[str] = set()
        #: Superseded bundles still pinned by airborne batches/workers,
        #: deleted by :meth:`decref_arena` when the last pin drops.
        self._retire_pending: set[str] = set()
        #: key -> superseded-but-never-pinned bundle, kept one swap long
        #: (a consumer that doesn't track refs may still attach to it)
        #: and deleted on the next turnover of the same key.
        self._graced: dict[str, str] = {}
        self._arena_root: tempfile.TemporaryDirectory | None = None
        #: Arena state is touched from serving threads (a supervised
        #: process pool retains/releases from its supervisor thread
        #: while the engine thread exports through ``arena_for``).
        self._arena_lock = threading.RLock()
        # A registry has no close(); register through a weakref so a
        # garbage-collected instance drops out of the scrape path
        # instead of being kept alive by the metrics registry forever.
        ref = weakref.ref(self)
        metrics_registry = self._metrics

        def _collector() -> None:
            registry = ref()
            if registry is None:
                metrics_registry.unregister_collector(_collector)
                return
            registry._collect_metrics()

        metrics_registry.register_collector(_collector)

    def _collect_metrics(self) -> None:
        """Scrape-time gauge refresh (runs outside the metrics lock)."""
        self._g_resident.set(len(self._cache))
        with self._arena_lock:
            self._g_live.set(self.live_arenas)
            self._g_pinned.set(
                sum(1 for count in self._arena_refs.values() if count > 0)
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _path_key(directory: str | os.PathLike) -> str:
        return str(pathlib.Path(directory).resolve())

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: str) -> bool:
        return str(key) in self._cache

    def keys(self) -> list[str]:
        """Resident keys, least recently used first."""
        return list(self._cache)

    # ------------------------------------------------------------------
    def get(self, key: str) -> GesturePrint | None:
        """The cached system under ``key`` (refreshes its LRU slot)."""
        key = str(key)
        system = self._cache.get(key)
        if system is None:
            self.stats.misses += 1
            return None
        self._cache.move_to_end(key)
        self.stats.hits += 1
        return system

    def put(self, key: str, system: GesturePrint) -> GesturePrint:
        """Insert (or refresh) a fitted system under ``key``."""
        if system.gesture_model is None:
            raise ValueError("refusing to cache an unfitted system")
        key = str(key)
        self._retire_key_arenas(key, keep=system)  # stale-weight variants
        self._cache[key] = system
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity:
            evicted, _ = self._cache.popitem(last=False)
            self._mtimes.pop(evicted, None)
            self._retire_key_arenas(evicted)
            self.stats.evictions += 1
        return system

    def evict(self, key: str) -> bool:
        """Drop ``key`` from the cache; True if it was resident."""
        self._mtimes.pop(str(key), None)
        self._retire_key_arenas(str(key))
        return self._cache.pop(str(key), None) is not None

    def clear(self) -> None:
        self._cache.clear()
        self._mtimes.clear()
        doomed: list[str] = []
        with self._arena_lock:
            for cache_key in list(self._arenas):
                doomed.extend(self._retire_arena_locked(cache_key))
        self._delete_bundles(doomed)

    # ------------------------------------------------------------------
    # Shareable weight arenas (mmap bundles for process backends)
    # ------------------------------------------------------------------
    def addref_arena(self, bundle: str | os.PathLike) -> None:
        """Pin a bundle: one airborne batch or one worker attachment.

        A supervised :class:`~repro.serving.backends.ProcessPoolBackend`
        wired with ``arena_refs=registry`` takes one ref per batch it
        dispatches naming the bundle (released when the batch lands) and
        one per worker modeled as having it mapped (released when the
        worker's attach cache evicts it, or the worker dies).  While any
        ref is held, a superseded bundle survives; the moment the count
        drops to zero it is garbage collected (file + mapping).
        """
        bundle = os.fspath(bundle)
        with self._arena_lock:
            self._arena_refs[bundle] = self._arena_refs.get(bundle, 0) + 1
            self._arena_pinned.add(bundle)

    def decref_arena(self, bundle: str | os.PathLike) -> None:
        """Drop one pin; deletes a superseded bundle at refcount zero.

        The caller is often a pool supervisor already holding its own
        pool lock, so — like the export in :meth:`arena_for` — the
        actual ``rmtree`` runs after ``_arena_lock`` is released: only
        the bookkeeping happens under the lock.
        """
        bundle = os.fspath(bundle)
        doomed: list[str] = []
        with self._arena_lock:
            count = self._arena_refs.get(bundle, 0) - 1
            if count > 0:
                self._arena_refs[bundle] = count
                return
            self._arena_refs.pop(bundle, None)
            if bundle in self._retire_pending:
                self._retire_pending.discard(bundle)
                doomed.append(self._note_retired_locked(bundle))
        self._delete_bundles(doomed)

    def _note_retired_locked(self, bundle: str) -> str:
        """Account one bundle as retired; caller holds ``_arena_lock``
        and must pass the returned path to :meth:`_delete_bundles`
        *after* releasing it.  Once unlinked from every tracking
        structure here, no other thread can reach the path, so the
        off-lock deletion cannot double-free."""
        self._arena_pinned.discard(bundle)
        self.stats.retired_arenas += 1
        return bundle

    @staticmethod
    def _delete_bundles(bundles: list[str]) -> None:
        """Blocking disk IO — must run with ``_arena_lock`` released."""
        for bundle in bundles:
            shutil.rmtree(bundle, ignore_errors=True)

    @staticmethod
    def _arena_key(key: str, precision: str) -> str:
        return f"{key}@{precision}"

    def _retire_key_arenas(
        self, key: str, *, keep: GesturePrint | None = None
    ) -> None:
        """Retire every precision variant of ``key`` (except ``keep``'s)."""
        prefix = f"{key}@"
        doomed: list[str] = []
        with self._arena_lock:
            for cache_key in [k for k in self._arenas if k.startswith(prefix)]:
                if keep is not None and self._arenas[cache_key][0] is keep:
                    continue
                doomed.extend(self._retire_arena_locked(cache_key))
        self._delete_bundles(doomed)

    def _retire_arena_locked(self, key: str) -> list[str]:
        """Supersede ``key``'s current bundle and garbage collect.

        With refcounting engaged (the bundle was ever pinned) the bundle
        is deleted as soon as — possibly immediately — its airborne
        batches land and its workers let go.  A bundle no consumer ever
        pinned gets the conservative one-swap grace instead: it survives
        until the *next* turnover of the same key, so a non-refcounting
        attacher racing the swap cannot lose its mapping.

        Caller holds ``_arena_lock``; the returned paths must go to
        :meth:`_delete_bundles` after release (RC002: no disk IO under
        the arena lock).
        """
        doomed: list[str] = []
        entry = self._arenas.pop(key, None)
        if entry is None:
            return doomed
        bundle = entry[1]
        if self._arena_refs.get(bundle, 0) > 0:
            self._retire_pending.add(bundle)
        elif bundle in self._arena_pinned:
            doomed.append(self._note_retired_locked(bundle))
        else:
            displaced = self._graced.pop(key, None)
            if displaced is not None:
                doomed.append(self._note_retired_locked(displaced))
            self._graced[key] = bundle
        return doomed

    def arena_for(
        self, key: str, system: GesturePrint, *, precision: str = "float64"
    ) -> str:
        """The flat weight bundle for ``system``, cached under ``key``.

        Exports once per (key, system identity, precision) into a
        registry-owned temporary directory; a later call with the same
        key but a *different* system object (a hot reload) re-exports, so
        workers attached to the old bundle drain out while new
        submissions name the new weights.  ``precision`` selects the
        arena storage dtype (float64 default; float32/int8 feed the
        low-precision serving fast path) — variants of the same system
        coexist, each under its own cache slot.  Each slot keeps the
        current bundle plus the one it superseded (batches dispatched
        just before the swap may still attach to it); anything older is
        deleted on the next export, so a long-running server reloading
        daily does not accumulate weight copies in its temp directory.
        """
        flat_dtype_for(precision)  # validates the name
        key = str(key)
        cache_key = self._arena_key(key, precision)
        doomed: list[str] = []
        with self._arena_lock:
            entry = self._arenas.get(cache_key)
            if entry is not None and entry[0] is system:
                return entry[1]
            if entry is not None:
                doomed = self._retire_arena_locked(cache_key)
            if self._arena_root is None:
                self._arena_root = tempfile.TemporaryDirectory(
                    prefix="repro-registry-"
                )
            bundle = os.path.join(
                self._arena_root.name, f"arena-{self.stats.arena_exports}"
            )
            self.stats.arena_exports += 1
        # The export (full weight serialisation to disk) and the doomed
        # predecessor's deletion run OUTSIDE the lock: a worker pool's
        # supervisor calls decref_arena while holding its own pool lock,
        # and stalling that on hundreds of ms of disk IO would freeze
        # dispatch and crash detection.  Callers export from one serving
        # thread (the engine's), so the reserved-path window cannot race
        # another export of this key.
        self._delete_bundles(doomed)
        export_flat(system, bundle, precision=precision)
        with self._arena_lock:
            self._arenas[cache_key] = (system, bundle)
        return bundle

    def arena(self, directory: str | os.PathLike) -> str:
        """The flat weight bundle for the checkpoint at ``directory``.

        Loads (or reuses) the cached system, then hands out its arena
        keyed by the resolved checkpoint path — so an overwritten
        checkpoint picked up by :meth:`load` transparently yields a new
        bundle on the next call.
        """
        system = self.load(directory)
        return self.arena_for(self._path_key(directory), system)

    @property
    def live_arenas(self) -> int:
        """Bundles currently on disk: current exports + pinned retirees
        + one-swap-graced (bounded: hot reloading forever cannot grow it
        past current + what airborne work still pins)."""
        with self._arena_lock:
            return len(self._arenas) + len(self._retire_pending) + len(self._graced)

    def snapshot(self) -> dict:
        """Operational summary (cache effectiveness + arena GC state)."""
        with self._arena_lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._cache),
                "hits": self.stats.hits,
                "misses": self.stats.misses,
                "evictions": self.stats.evictions,
                "loads": self.stats.loads,
                "saves": self.stats.saves,
                "fits": self.stats.fits,
                "arena_exports": self.stats.arena_exports,
                "retired_arenas": self.stats.retired_arenas,
                "live_arenas": self.live_arenas,
                "pinned_arenas": sum(
                    1 for count in self._arena_refs.values() if count > 0
                ),
            }

    # ------------------------------------------------------------------
    @staticmethod
    def _manifest_mtime(directory: str | os.PathLike) -> int | None:
        try:
            return (pathlib.Path(directory) / MANIFEST_NAME).stat().st_mtime_ns
        except OSError:
            return None

    def load(
        self,
        directory: str | os.PathLike,
        *,
        on_change: Callable[[GesturePrint], None] | None = None,
    ) -> GesturePrint:
        """Load a checkpoint directory, cached by its resolved path.

        The checkpoint manifest's mtime is recorded at load time; if the
        directory is overwritten on disk, the next ``load`` notices and
        re-reads instead of serving the stale weights.

        ``on_change`` fires (with the freshly loaded system) only when a
        *previously cached* entry was replaced by a newer on-disk
        checkpoint — not on a first load.  Pointing it at
        :meth:`InferenceEngine.swap_system` gives a serving loop
        registry-backed hot reload: call ``load`` between rounds and an
        overwritten checkpoint is picked up without dropping or
        misdelivering any pending ticket.
        """
        key = self._path_key(directory)
        cached = self._cache.get(key)
        if cached is not None and self._mtimes.get(key) == self._manifest_mtime(directory):
            self._cache.move_to_end(key)
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        system = load_system(directory)
        self.stats.loads += 1
        self._mtimes[key] = self._manifest_mtime(directory)
        self.put(key, system)
        if cached is not None and on_change is not None:
            on_change(system)
        return system

    def save(
        self, system: GesturePrint, directory: str | os.PathLike
    ) -> GesturePrint:
        """Persist a fitted system and cache it under the checkpoint path."""
        save_system(system, directory)
        self.stats.saves += 1
        key = self._path_key(directory)
        self._mtimes[key] = self._manifest_mtime(directory)
        return self.put(key, system)

    def get_or_fit(
        self,
        key: str,
        factory: Callable[[], GesturePrint],
        *,
        directory: str | os.PathLike | None = None,
    ) -> GesturePrint:
        """The memoised fit path: cache -> checkpoint -> ``factory()``.

        Looks up ``key`` in the cache; otherwise loads ``directory`` if it
        holds a checkpoint; otherwise calls ``factory`` to fit a fresh
        system (persisting it to ``directory`` when given).  This is what
        lets the CLI, examples, and benchmarks share one fitted system per
        configuration instead of re-fitting per call.
        """
        key = str(key)
        system = self.get(key)
        if system is not None:
            return system
        if directory is not None and (pathlib.Path(directory) / MANIFEST_NAME).exists():
            system = load_system(directory)
            self.stats.loads += 1
            # Record the manifest mtime and cache under the resolved path
            # too, so a later ``load()`` of the same checkpoint warm-hits
            # instead of always seeing a staleness mismatch.
            path_key = self._path_key(directory)
            self._mtimes[path_key] = self._manifest_mtime(directory)
            if path_key != key:
                self.put(path_key, system)
            return self.put(key, system)
        system = factory()
        self.stats.fits += 1
        if system.gesture_model is None:
            raise ValueError("factory returned an unfitted system")
        system.freeze()
        if directory is not None:
            save_system(system, directory)
            self.stats.saves += 1
            path_key = self._path_key(directory)
            self._mtimes[path_key] = self._manifest_mtime(directory)
            if path_key != key:
                self.put(path_key, system)
        return self.put(key, system)
