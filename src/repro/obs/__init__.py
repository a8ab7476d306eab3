"""Observability for the induction service: spans, metrics, counters, traces.

Four coordinated pieces, used together by :mod:`repro.core.pipeline`,
:mod:`repro.core.cache` and :mod:`repro.service.server`:

- :class:`StopWatch` / :func:`timed` — monotonic wall-clock timing;
- :class:`Counters` — named counters (cache hits, stores, ...);
- **spans** — :func:`span` opens a hierarchical, trace-id-carrying timed
  phase; :func:`current_context` / :func:`attach_context` propagate a
  trace across thread and process boundaries, and :func:`replay_events`
  stitches worker-recorded spans back into the parent's sink;
- **metrics** — :class:`MetricsRegistry` holds counters, gauges and
  fixed-bucket :class:`Histogram` latency distributions (``p50/p90/p99``),
  thread-safe; a worker records into a :class:`MetricsLog` whose calls
  its parent replays; :func:`render_prometheus`
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

Every name below is re-exported on access (:mod:`repro._lazy`): a request
loads only the pieces it uses, and :mod:`http.server` loads only when a
metrics port is asked for.
"""

from repro._lazy import reexport

__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.obs.counters": ("Counters",),
    "repro.obs.flightrec": ("FlightConfig", "FlightRecorder"),
    "repro.obs.httpexp": ("MetricsHTTPServer", "start_metrics_server"),
    "repro.obs.metrics": ("DEFAULT_SIZE_BUCKETS", "DEFAULT_TIME_BUCKETS",
                          "DEFAULT_VALUE_BUCKETS", "GAUGE_STAT_PREFIXES",
                          "Histogram", "MetricsLog", "MetricsRegistry",
                          "get_registry", "render_prometheus", "split_stats",
                          "use_registry"),
    "repro.obs.slo": ("SLOConfig", "SLOTracker"),
    "repro.obs.spans": ("Span", "SpanContext", "attach_context",
                        "current_context", "new_trace_id", "replay_events",
                        "span"),
    "repro.obs.summary": ("KindSummary", "TraceSummary",
                          "render_trace_summary", "summarize_trace"),
    "repro.obs.timing": ("StopWatch", "timed"),
    "repro.obs.tracer": ("JsonlTracer", "MemoryTracer", "NULL_TRACER",
                         "TeeTracer", "Tracer"),
    "repro.obs.tracetree": ("SpanNode", "TraceTree", "build_traces",
                            "load_span_events", "render_trace_tree",
                            "render_trace_trees"),
})
