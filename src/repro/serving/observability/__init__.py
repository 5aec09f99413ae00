"""First-class observability for the serving stack.

Three pieces, all pure stdlib:

* :mod:`~repro.serving.observability.metrics` — a process-global
  :class:`MetricsRegistry` of Counter / Gauge / Histogram families with
  labelled children and scrape-time collector hooks, plus the
  :class:`StatsExporter` that publishes each component's stats
  dataclass (the only place a count lives) as counter families.
* :mod:`~repro.serving.observability.exporter` — Prometheus text
  exposition: :func:`render_text` (in-process scraping), the
  :class:`MetricsServer` ``/metrics`` side port
  (``repro serve --metrics-port``), and :func:`parse_text` for
  cross-checking scrapes against ground truth.
* :mod:`~repro.serving.observability.tracing` — per-ticket
  :class:`TraceRecord` lifecycles (submit → admitted → dispatched →
  hedged? → landed → exactly one terminal) in a bounded ring with
  explicit drop counting, a JSONL sink, and the gateway TRACE frame as
  transport.
"""

from repro.serving.observability.exporter import (
    CONTENT_TYPE,
    MetricsServer,
    parse_text,
    render_text,
)
from repro.serving.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsExporter,
    get_metrics,
    set_metrics,
)
from repro.serving.observability.tracing import (
    TERMINALS,
    TraceLog,
    TraceRecord,
    Tracer,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "StatsExporter",
    "TERMINALS",
    "TraceLog",
    "TraceRecord",
    "Tracer",
    "get_metrics",
    "parse_text",
    "render_text",
    "set_metrics",
]
