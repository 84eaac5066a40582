"""Observability: spans, metrics, structured events, trace export.

The evaluation stack is a multi-stage pipeline (prune → skeleton →
select → llm → adapt → execute) behind a resilience layer (retries,
circuit breaker, degradation ladder) and a prompt cache.
Aggregate numbers cannot say *which* stage spent the time or *which*
fallback rescued a query; this package can:

* **spans** (:mod:`repro.obs.trace`) — one root span per evaluated
  task with child spans for every pipeline stage, degradation rung,
  provider attempt, cache lookup, and SQL statement, carried on the
  same contextvar lanes the parallel engine already uses;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  histograms fed by the resilience, cache, and executor layers;
* **structured events** (:mod:`repro.obs.log`) — levelled, typed log
  records that ride along in the trace;
* **export** (:mod:`repro.obs.export`) — a JSONL trace file (one span
  or event per line) plus a Chrome ``trace_event`` converter;
* **reporting** (:mod:`repro.obs.report`) — the ``repro report``
  renderer: per-stage / per-hardness profiles and a text flame summary;
* **continuous telemetry** (:mod:`repro.obs.windows`,
  :mod:`repro.obs.live`, :mod:`repro.obs.prom`, :mod:`repro.obs.top`) —
  the serving stack's always-on layer: sliding-window rates and
  p50/p95/p99, a per-tenant cost ledger, SLO burn-rate tracking, a
  bounded tail-sampled trace store, Prometheus text exposition, and the
  ``repro top`` dashboard.

Everything hangs off one :class:`~repro.obs.runtime.Observer`; when none
is active every instrumentation point is a single contextvar read (the
same discipline as :func:`repro.eval.timing.stage`), and enabling
telemetry never changes evaluation outcomes — only observes them.
"""

from repro.obs.export import chrome_trace, read_trace, write_trace
from repro.obs.live import (
    CostLedger,
    LiveConfig,
    LiveTelemetry,
    SLOObjectives,
    SLOTracker,
    TraceStore,
)
from repro.obs.log import LOG_LEVELS, LogEvent, StructuredLogger
from repro.obs.metrics import (
    LATENCY_BUCKET_BOUNDS_MS,
    MetricsRegistry,
    MetricsSnapshot,
    metric_key,
    parse_metric_key,
    percentile,
)
from repro.obs.prom import parse_prometheus_text, prometheus_text
from repro.obs.report import render_report
from repro.obs.runtime import (
    Observer,
    annotate,
    count,
    current_observer,
    event,
    gauge,
    observe,
    span,
)
from repro.obs.telemetry import RunTelemetry
from repro.obs.trace import Span, Tracer
from repro.obs.windows import WindowedCounter, WindowedHistogram, WindowedMetrics

__all__ = [
    "CostLedger",
    "LATENCY_BUCKET_BOUNDS_MS",
    "LiveConfig",
    "LiveTelemetry",
    "SLOObjectives",
    "SLOTracker",
    "TraceStore",
    "WindowedCounter",
    "WindowedHistogram",
    "WindowedMetrics",
    "parse_prometheus_text",
    "prometheus_text",
    "Observer",
    "current_observer",
    "span",
    "annotate",
    "count",
    "gauge",
    "observe",
    "event",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "metric_key",
    "parse_metric_key",
    "percentile",
    "LogEvent",
    "StructuredLogger",
    "LOG_LEVELS",
    "RunTelemetry",
    "write_trace",
    "read_trace",
    "chrome_trace",
    "render_report",
]
