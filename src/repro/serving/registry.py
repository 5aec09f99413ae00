"""Keyed, LRU-cached store of fitted GesturePrint systems.

The paper's deployment trains on a back-end server and ships fitted
models to edge devices.  The seed repo's CLI, examples, and benchmarks
each re-loaded (or worse, re-fitted) a system per invocation;
:class:`ModelRegistry` wraps :mod:`repro.core.persistence` with an
in-process cache so repeated lookups of the same checkpoint are free and
hot systems stay resident under a bounded capacity.

Weight arenas for worker processes are not the registry's concern: a
:class:`~repro.serving.backends.ProcessPoolBackend` exports, refcounts
and deletes its own bundles.
"""

from __future__ import annotations

import os
import pathlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.persistence import MANIFEST_NAME, load_system, save_system
from repro.core.pipeline import GesturePrint
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
        self._cache: OrderedDict[str, GesturePrint] = OrderedDict()
        #: Manifest mtime (ns) per path-keyed entry, for staleness checks.
        self._mtimes: dict[str, int] = {}
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
        self._cache[key] = system
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity:
            evicted, _ = self._cache.popitem(last=False)
            self._mtimes.pop(evicted, None)
            self.stats.evictions += 1
        return system

    def evict(self, key: str) -> bool:
        """Drop ``key`` from the cache; True if it was resident."""
        self._mtimes.pop(str(key), None)
        return self._cache.pop(str(key), None) is not None

    def clear(self) -> None:
        self._cache.clear()
        self._mtimes.clear()

    def snapshot(self) -> dict:
        """Operational summary (cache effectiveness)."""
        return {
            "capacity": self.capacity,
            "resident": len(self._cache),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "loads": self.stats.loads,
            "saves": self.stats.saves,
            "fits": self.stats.fits,
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
