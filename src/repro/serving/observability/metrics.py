"""Process-global metrics registry, and the exporter that feeds it.

The serving stack's operational state has always existed — scattered
across ``EngineStats`` dataclasses, ``describe()`` dicts, and gateway
``snapshot()`` trees, reachable only over the gateway's own binary
frame protocol.  This module gives those numbers one sanctioned,
dashboard-shaped home:

* a **family** is a named metric plus its label axes
  (``repro_gateway_submits_total{tenant, slo_class}``), created
  get-or-create style through :class:`MetricsRegistry` so every
  component that mentions a name shares one time series;
* a **child** is one labelled series inside a family.  Updates are a
  dict lookup plus an arithmetic op under a per-child leaf lock:
  nothing blocking ever runs under any metrics lock, so instrumented
  code keeps RC002's lock-order rules trivially (metrics locks are
  always innermost and never wrap a call-out);
* **collectors** are zero-arg callables run at scrape time.  They read
  component state *outside* every registry lock and write children.

Every count lives in exactly one place: a component's plain stats
dataclass.  A stats field declares its counter family next to itself
(:func:`counted` for a scalar, :func:`tally` for a per-label
``Counter``), and a :class:`StatsExporter` publishes the declared
fields as a collector, so a scrape cannot drift from the stats it
reads.  Histograms and gauges stay instruments that hot paths (or
collectors) write directly.

A disabled registry (``MetricsRegistry(enabled=False)``) hands out
shared null instruments whose methods are no-ops and registers no
collectors — the metrics-overhead benchmark's baseline leg, and the
zero-cost path for embedders that want none of this.

Rendering to Prometheus text exposition lives in
:mod:`repro.serving.observability.exporter`; this module only owns the
state and its :meth:`MetricsRegistry.collect` snapshot.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LatencyWindow",
    "MetricsRegistry",
    "StatsExporter",
    "counted",
    "get_metrics",
    "published",
    "set_metrics",
    "tally",
    "total",
]

#: Fixed latency buckets (seconds) shared by every serving histogram —
#: sub-millisecond inline flushes through multi-second chaos recovery.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


class _Child:
    """One labelled series: a float value behind a leaf lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount


class _HistogramChild:
    """Cumulative bucket counts plus sum/count, behind a leaf lock."""

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """(cumulative bucket counts incl. +Inf, sum, count)."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            count = self._count
        cumulative: list[int] = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        return cumulative, total_sum, count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


class _NullChild:
    """Shared no-op instrument handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_CHILD = _NullChild()


class _Family:
    """A named metric and its labelled children.

    ``labels()`` is the hot-path entry: a tuple key lookup under the
    family lock, creating the child on first sight.  An unlabelled
    family proxies the instrument methods of its single anonymous child
    so call sites read ``family.inc()`` instead of
    ``family.labels().inc()``.
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...]) -> None:
        self.name = _validate_name(name)
        self.help = help_text
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not labelnames:
            # Unlabelled families expose their (single) series from the
            # moment they exist: a scraper sees an explicit 0, not a gap.
            self._children[()] = self._new_child()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values: object, **kwargs: object):
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as error:
                raise ValueError(
                    f"{self.name}: missing label {error.args[0]!r}"
                ) from None
            if len(kwargs) != len(self.labelnames):
                extra = set(kwargs) - set(self.labelnames)
                raise ValueError(f"{self.name}: unknown labels {sorted(extra)}")
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label values, "
                f"got {len(key)}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
        return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """Label-sorted (labelvalues, child) pairs — the scrape view."""
        with self._lock:
            items = list(self._children.items())
        items.sort(key=lambda item: item[0])
        return items

    # Unlabelled convenience: proxy the single anonymous child.
    def _solo(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled; call .labels(...) first")
        return self.labels()


class Counter(_Family):
    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)


class Gauge(_Family):
    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._solo().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)


class Histogram(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(
            bounds
        ):
            raise ValueError("buckets must be a non-empty strictly increasing sequence")
        self.buckets = bounds  # before super(): the eager child needs it
        super().__init__(name, help_text, labelnames)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._solo().observe(value)


class _NullFamily(_NullChild):
    """Disabled-registry family: every instrument call is a no-op."""

    __slots__ = ("name", "kind")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind

    def labels(self, *_values: object, **_kwargs: object) -> _NullChild:
        return _NULL_CHILD


class MetricsRegistry:
    """Get-or-create home for metric families plus scrape-time collectors.

    Family creation is idempotent by name: a second ``counter()`` call
    with the same name returns the existing family (and raises if the
    kind or label axes disagree — two components silently writing
    incompatible series is exactly the drift this subsystem exists to
    catch).  ``enabled=False`` hands out null families so instrumented
    code pays one attribute load and a no-op call per event.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []
        #: Collector callbacks that raised during a scrape (each one is
        #: skipped, not fatal); exported so a half-dead component shows
        #: up in the scrape that survived it.
        self.collector_errors = 0

    # -- family constructors ------------------------------------------
    def _get_or_create(self, cls, name: str, help_text: str, labelnames, **kwargs):
        if not self.enabled:
            return _NullFamily(name, cls.kind)
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help_text, labelnames, **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls) or family.labelnames != labelnames:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {family.labelnames}"
            )
        return family

    def counter(
        self, name: str, help_text: str, labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    # -- collectors ----------------------------------------------------
    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every scrape (gauge refreshers)."""
        if not self.enabled:
            return
        with self._lock:
            if collector not in self._collectors:
                self._collectors.append(collector)

    def unregister_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    # -- scraping ------------------------------------------------------
    def collect(self) -> list[_Family]:
        """Refresh collectors, then return name-sorted families.

        Collectors run *outside* the registry lock: they call into
        component snapshots (which take their own locks), and holding
        ours across that call-out would stack lock orders for no reason.
        """
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:
                # A dying component must not poison everyone's scrape;
                # the failure is counted, not swallowed silently.
                self.collector_errors += 1
        if self.collector_errors and self.enabled:
            self.gauge(
                "repro_metrics_collector_errors",
                "Collector callbacks that raised during scrapes.",
            ).set(self.collector_errors)
        with self._lock:
            families = list(self._families.values())
        families.sort(key=lambda family: family.name)
        return families

    def get_sample(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float | None:
        """Test/bench convenience: current value of one series, or None.

        For histograms this returns the observation *count*.  Runs the
        collectors first so snapshot-backed gauges are fresh.
        """
        self.collect()
        with self._lock:
            family = self._families.get(name)
        if family is None:
            return None
        key = tuple(str((labels or {}).get(n, "")) for n in family.labelnames)
        for values, child in family.children():
            if values == key:
                if isinstance(child, _HistogramChild):
                    return float(child.count)
                return float(child.value)
        return None


#: Dataclass-field metadata key holding the counter families a stats
#: field is published as: ``(tally label axes, families)``.
_PUBLISHED = "repro_metrics"


_Publication = collections.namedtuple("_Publication", "name help where")


def published(name: str, help_text: str, **where: str) -> _Publication:
    """One counter family a stats field is published as.

    ``where`` fixes some of a tally's label axes: the family counts only
    the matching entries and drops those axes (the gateway's
    ``repro_gateway_quota_exceeded_total{tenant}`` is the
    ``code="quota_exceeded"`` slice of its ``(tenant, code)`` tally).
    """
    return _Publication(name, help_text, tuple(where.items()))


def counted(name: str, help_text: str):
    """A scalar ``int`` stats field published as the counter ``name``."""
    return dataclasses.field(default=0, metadata={_PUBLISHED: ((), (published(name, help_text),))})


def tally(labelnames: tuple[str, ...], *families: _Publication, keys: Iterable = ()):
    """A :class:`collections.Counter` stats field keyed by label value (a
    tuple when there are several axes), published as ``families``.
    ``keys`` start at 0, so their series are scraped before any event."""
    seed = tuple(keys)
    return dataclasses.field(
        default_factory=lambda: collections.Counter(dict.fromkeys(seed, 0)),
        metadata={_PUBLISHED: (tuple(labelnames), families)},
    )


def _slice(value, axes: tuple[str, ...], where: tuple, kept: tuple[str, ...]) -> dict:
    """``{kept label values: count}``: a stats field's entries matching
    ``where``, summed over the axes not ``kept``."""
    if not axes:
        return {(): value}
    totals: dict[tuple, int] = {}
    # dict.copy is one C call under the GIL: a consistent view of a
    # tally the serving thread may be growing while a scraper reads.
    for key, count in dict.copy(value).items():
        labels = dict(zip(axes, key if isinstance(key, tuple) else (key,)))
        if all(labels[axis] == wanted for axis, wanted in where):
            kept_key = tuple(str(labels[axis]) for axis in kept)
            totals[kept_key] = totals.get(kept_key, 0) + count
    return totals


def total(field_name: str, **where: str) -> property:
    """A read-only stats property: the sum of a tally's entries whose
    labels match ``where`` (all entries when empty)."""

    def read(stats) -> int:
        (axes,) = (
            f.metadata[_PUBLISHED][0] for f in dataclasses.fields(stats) if f.name == field_name
        )
        return _slice(getattr(stats, field_name), axes, tuple(where.items()), ()).get((), 0)

    return property(read, doc=f"Sum of ``{field_name}`` entries matching {where}.")


class StatsExporter:
    """Publishes one stats dataclass's declared fields at scrape time.

    Each export folds the growth since the previous export into the
    shared counter children, under this exporter's leaf lock: instances
    sharing a registry add up, concurrent scrapes never double-count,
    and counters never go backwards.  :meth:`close` exports once more
    and unregisters, so counts survive the component.  ``labels`` are
    constant labels prepended to every family.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        stats: object,
        *,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        labels = dict(labels or {})
        self._metrics = metrics
        self._stats = stats
        self._constants = tuple(str(value) for value in labels.values())
        self._lock = threading.Lock()
        #: (family name, label values) -> count already published.
        self._exported: dict[tuple[str, tuple[str, ...]], int] = {}
        #: (field, tally axes, family spec, kept axes, counter family).
        plan: list[tuple[str, tuple[str, ...], _Publication, tuple, Counter]] = []
        if metrics.enabled:
            for spec in dataclasses.fields(stats):
                axes, families = spec.metadata.get(_PUBLISHED, ((), ()))
                for family in families:
                    fixed = {axis for axis, _ in family.where}
                    kept = tuple(axis for axis in axes if axis not in fixed)
                    counter = metrics.counter(family.name, family.help, tuple(labels) + kept)
                    plan.append((spec.name, axes, family, kept, counter))
            metrics.register_collector(self.export)
        self._plan = plan

    def export(self) -> None:
        """Publish the growth of every declared field since the last call."""
        with self._lock:
            for field_name, axes, family, kept, counter in self._plan:
                value = getattr(self._stats, field_name)
                for key, count in _slice(value, axes, family.where, kept).items():
                    values = self._constants + key
                    done = self._exported.get((family.name, values))
                    if done is None or count > done:
                        # First sight creates the series even at 0.
                        counter.labels(*values).inc(count - (done or 0))
                        self._exported[family.name, values] = count

    def close(self) -> None:
        """Final export, then stop publishing (idempotent)."""
        self._metrics.unregister_collector(self.export)
        self.export()
        self._plan = []


class LatencyWindow(collections.deque):
    """The most recent ``maxlen`` latency samples (oldest evicted), with
    a nearest-rank p95 over them."""

    # deque's own (iterable, maxlen) signature: copy and pickle rebuild
    # a deque subclass through it.
    def __init__(self, iterable: Iterable[float] = (), maxlen: int = 512) -> None:
        super().__init__(iterable, maxlen)

    def p95(self) -> float | None:
        """Nearest-rank 95th percentile, or None while empty."""
        if not self:
            return None
        ordered = sorted(self)
        return ordered[max(math.ceil(0.95 * len(ordered)) - 1, 0)]


_GLOBAL_LOCK = threading.Lock()
_GLOBAL: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry:
    """The process-global registry (created enabled on first use)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = MetricsRegistry()
        return _GLOBAL


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-global registry; returns the previous one.

    Tests use this to isolate series between cases; ``repro serve``
    never calls it — the default global lives for the process.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous = _GLOBAL if _GLOBAL is not None else MetricsRegistry()
        _GLOBAL = registry
        return previous
