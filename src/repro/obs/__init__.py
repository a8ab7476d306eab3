"""Observability for the induction service: spans, metrics, counters, traces.

Four coordinated pieces, used together by :mod:`repro.core.pipeline`,
:mod:`repro.core.cache` and :mod:`repro.service.server`:

- :class:`StopWatch` / :func:`timed` — monotonic wall-clock timing;
- :class:`Counters` — named counters (cache hits, stores, ...), mergeable
  across workers;
- **spans** — :func:`span` opens a hierarchical, trace-id-carrying timed
  phase; :func:`current_context` / :func:`attach_context` propagate a
  trace across thread and process boundaries, and :func:`replay_events`
  stitches worker-recorded spans back into the parent's sink;
- **metrics** — :class:`MetricsRegistry` holds counters, gauges and
  fixed-bucket :class:`Histogram` latency distributions (``p50/p90/p99``),
  thread-safe and mergeable across workers; :func:`render_prometheus`
  emits the text exposition served by the ``metrics`` op and
  ``--metrics-port`` (:func:`start_metrics_server`), including
  OpenMetrics-style trace-id exemplars on histogram buckets;
- :class:`FlightRecorder` — a bounded ring of slow/failed/failed-over
  request digests (the ``flightrec`` op / ``repro flightrec``);
- :class:`SLOTracker` — sliding-window latency/error objectives with
  multi-window burn-rate gauges (the ``slo`` op / ``repro slo``).

Tracer sinks are unchanged in spirit: :data:`NULL_TRACER` (disabled,
near-zero overhead), :class:`MemoryTracer` (tests and worker-side span
recording), :class:`JsonlTracer` (structured JSONL, interleave-safe).

Traces are consumed by :func:`summarize_trace` / :func:`render_trace_summary`
(the ``repro stats`` CLI) and by :func:`build_traces` /
:func:`render_trace_trees` (the ``repro trace`` span-tree view).
"""

from repro.obs.counters import Counters
from repro.obs.flightrec import FlightConfig, FlightRecorder
from repro.obs.httpexp import MetricsHTTPServer, start_metrics_server
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    DEFAULT_VALUE_BUCKETS,
    GAUGE_STAT_PREFIXES,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    split_stats,
    use_registry,
)
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.spans import (
    Span,
    SpanContext,
    attach_context,
    current_context,
    new_trace_id,
    replay_events,
    span,
)
from repro.obs.summary import (
    KindSummary,
    TraceSummary,
    render_trace_summary,
    summarize_trace,
)
from repro.obs.timing import StopWatch, timed
from repro.obs.tracer import (
    JsonlTracer,
    MemoryTracer,
    NULL_TRACER,
    TeeTracer,
    Tracer,
)
from repro.obs.tracetree import (
    SpanNode,
    TraceTree,
    build_traces,
    load_span_events,
    render_trace_tree,
    render_trace_trees,
)

__all__ = [
    "Counters",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_VALUE_BUCKETS",
    "FlightConfig",
    "FlightRecorder",
    "GAUGE_STAT_PREFIXES",
    "Histogram",
    "JsonlTracer",
    "KindSummary",
    "MemoryTracer",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NULL_TRACER",
    "SLOConfig",
    "SLOTracker",
    "Span",
    "SpanContext",
    "SpanNode",
    "StopWatch",
    "TeeTracer",
    "TraceSummary",
    "TraceTree",
    "Tracer",
    "attach_context",
    "build_traces",
    "current_context",
    "get_registry",
    "load_span_events",
    "new_trace_id",
    "render_prometheus",
    "render_trace_summary",
    "render_trace_tree",
    "render_trace_trees",
    "replay_events",
    "span",
    "split_stats",
    "start_metrics_server",
    "summarize_trace",
    "timed",
    "use_registry",
]
