"""Metrics registry: counters, gauges and fixed-bucket histograms.

The :class:`Counters` layer answers "how many"; this module answers "how
long and how spread out".  A :class:`MetricsRegistry` owns three metric
families:

- **counters** — monotonic counts (backed by :class:`repro.obs.Counters`);
- **gauges**   — last-write-wins values (queue depth, uptime);
- **histograms** — fixed-bucket latency/size distributions with
  ``p50/p90/p99`` summaries, the paper-style "where does the time go"
  measurement that flat totals cannot answer.

Everything is thread-safe.  A worker process records into a
:class:`MetricsLog`, which keeps the calls made on it, and ships those
few tuples back over the pipe; the parent applies them with
:meth:`MetricsRegistry.replay`.  That is how search wall time measured
inside a supervised worker ends up in the serving process's ``metrics``
exposition.

A module-level default registry (:func:`get_registry`) keeps call sites in
:mod:`repro.core` dependency-free; :func:`use_registry` rebinds the current
registry for a scope (a worker task, a test) via a context variable.

:func:`render_prometheus` emits the text exposition format scraped by the
service's ``metrics`` op and the optional ``--metrics-port`` endpoint.
"""

from __future__ import annotations

import contextvars
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.counters import Counters

__all__ = [
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_VALUE_BUCKETS",
    "GAUGE_STAT_PREFIXES",
    "Histogram",
    "MetricsLog",
    "MetricsRegistry",
    "get_registry",
    "observe_search_throughput",
    "render_prometheus",
    "split_stats",
    "use_registry",
]

#: Latency buckets (seconds): sub-millisecond cache hits up to minute-long
#: budget-bound searches.
DEFAULT_TIME_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Small-integer buckets for counts such as worker retries.
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Wide log-spaced buckets for fields of unknown scale (``repro stats``
#: summarizes arbitrary numeric trace fields through these).
DEFAULT_VALUE_BUCKETS = tuple(
    round(mantissa * 10.0 ** exponent, 12)
    for exponent in range(-6, 7)
    for mantissa in (1.0, 2.5, 5.0)
)


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    ``buckets`` are inclusive upper bounds; observations above the largest
    bound land in an implicit ``+Inf`` bucket.  The observed ``min``/``max``
    are tracked exactly, so percentiles are clamped to the true value range
    — a single sample reports itself for every percentile, and overflow
    observations report the true maximum rather than a bucket edge.
    """

    __slots__ = ("bounds", "counts", "total", "count", "vmin", "vmax",
                 "exemplars", "_lock")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf
        self.total = 0.0
        self.count = 0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        #: bucket index -> (trace_id, value) of the largest observation seen
        #: in that bucket that carried a trace id.
        self.exemplars: dict[int, tuple[str, float]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, trace_id: str | None = None) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
            if trace_id:
                held = self.exemplars.get(index)
                if held is None or value >= held[1]:
                    self.exemplars[index] = (str(trace_id), value)

    def percentile(self, q: float) -> float:
        """Interpolated value at quantile ``q`` (0..1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        target = max(q * self.count, 1e-12)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if bucket_count and cumulative >= target:
                if index == len(self.bounds):
                    # Overflow bucket: no upper bound to interpolate
                    # against, so report the true maximum.
                    return self.vmax
                lo = 0.0 if index == 0 else self.bounds[index - 1]
                hi = self.bounds[index]
                fraction = (target - (cumulative - bucket_count)) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.vmin), self.vmax)
        return self.vmax  # pragma: no cover - counts always sum to count

    def summary(self) -> dict[str, float]:
        """``count/sum/min/max`` plus ``p50/p90/p99`` in one locked pass."""
        with self._lock:
            empty = self.count == 0
            return {
                "count": self.count,
                "sum": self.total,
                "min": 0.0 if empty else self.vmin,
                "max": 0.0 if empty else self.vmax,
                "p50": self._percentile_locked(0.50),
                "p90": self._percentile_locked(0.90),
                "p99": self._percentile_locked(0.99),
            }

    def snapshot(self) -> dict[str, Any]:
        """JSON-able state: what the Prometheus exposition reads."""
        with self._lock:
            return {
                "buckets": list(self.bounds),
                "counts": list(self.counts),
                "sum": self.total,
                "count": self.count,
                "exemplars": {str(index): [trace_id, value]
                              for index, (trace_id, value)
                              in sorted(self.exemplars.items())},
            }


class MetricsRegistry:
    """Thread-safe home for one process's (or one server's) metrics."""

    def __init__(self) -> None:
        self._counters = Counters()
        self._gauges = Counters()
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> float:
        """Add ``amount`` to counter ``name``."""
        return self._counters.bump(name, amount)

    def set_gauge(self, name: str, value: float) -> float:
        return self._gauges.set(name, value)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        """The histogram registered under ``name``, created on first use."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(buckets or DEFAULT_TIME_BUCKETS)
                self._histograms[name] = hist
            return hist

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] | None = None,
                trace_id: str | None = None) -> None:
        self.histogram(name, buckets).observe(value, trace_id=trace_id)

    @contextmanager
    def time(self, name: str,
             buckets: tuple[float, ...] | None = None) -> Iterator[None]:
        """Observe the wall time of the ``with`` block into ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - start, buckets)

    # -- reading -----------------------------------------------------------

    @property
    def counters(self) -> Counters:
        return self._counters

    @property
    def gauges(self) -> Counters:
        return self._gauges

    def percentiles(self) -> dict[str, float]:
        """Flat ``{name_p50: value, ...}`` map over non-empty histograms."""
        out: dict[str, float] = {}
        with self._lock:
            histograms = dict(self._histograms)
        for name, hist in sorted(histograms.items()):
            summary = hist.summary()
            if not summary["count"]:
                continue
            for key in ("p50", "p90", "p99"):
                out[f"{name}_{key}"] = summary[key]
        return out

    def snapshot(self) -> dict[str, Any]:
        """JSON-able whole-registry state (:func:`render_prometheus`)."""
        with self._lock:
            histograms = dict(self._histograms)
        return {
            "counters": self._counters.snapshot(),
            "gauges": self._gauges.snapshot(),
            "histograms": {name: hist.snapshot()
                           for name, hist in sorted(histograms.items())},
        }

    def replay(self, calls: Iterable[tuple]) -> None:
        """Apply the calls a :class:`MetricsLog` recorded, in order."""
        apply = {"inc": self.inc, "observe": self.observe,
                 "set_gauge": self.set_gauge}
        for method, *args in calls:
            apply[method](*args)


class MetricsLog:
    """A stand-in registry that records its calls instead of applying them.

    A worker process runs its request under one (:func:`use_registry`)
    and sends back :attr:`calls`, a handful of plain tuples, which the
    serving process applies with :meth:`MetricsRegistry.replay`: each
    observation lands once, through the same ``observe`` as a local one
    (so exemplars keep their max-wins rule), and no registry is snapshot
    or merged.
    """

    __slots__ = ("calls",)

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def inc(self, name: str, amount: float = 1) -> None:
        self.calls.append(("inc", name, amount))

    def set_gauge(self, name: str, value: float) -> None:
        self.calls.append(("set_gauge", name, value))

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] | None = None,
                trace_id: str | None = None) -> None:
        self.calls.append(("observe", name, value, buckets, trace_id))


# -- default / scoped registry ---------------------------------------------

_DEFAULT_REGISTRY = MetricsRegistry()
_current_registry: contextvars.ContextVar[MetricsRegistry | None] = \
    contextvars.ContextVar("repro_metrics_registry", default=None)


def get_registry() -> MetricsRegistry:
    """The registry in scope: :func:`use_registry`'s, else the process default."""
    return _current_registry.get() or _DEFAULT_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry | MetricsLog) -> Iterator:
    """Route :func:`get_registry` to ``registry`` inside the ``with`` block.

    Context-variable scoped, so worker tasks (a :class:`MetricsLog`) and
    tests get isolated metrics without threading a registry through every
    call signature.
    """
    token = _current_registry.set(registry)
    try:
        yield registry
    finally:
        _current_registry.reset(token)


def observe_search_throughput(registry: MetricsRegistry, stats) -> None:
    """Record one search's throughput in the ``search_nodes_per_second``
    histogram.

    Searches with no measured wall time (``nodes_per_second == 0``) are
    skipped rather than recorded as zero-throughput outliers.
    """
    nps = getattr(stats, "nodes_per_second", 0.0)
    if nps <= 0:
        return
    registry.observe("search_nodes_per_second", nps,
                     buckets=DEFAULT_VALUE_BUCKETS)


# -- stats snapshot shape ---------------------------------------------------

#: Key prefixes that are last-write-wins gauges in any ``stats()`` snapshot,
#: regardless of which component produced them (SLO burn rates today).
GAUGE_STAT_PREFIXES = ("slo_",)

_PERCENTILE_SUFFIXES = ("_p50", "_p90", "_p99")


def split_stats(stats: Mapping[str, float],
                gauge_names: frozenset[str] | set[str],
                ) -> tuple[dict[str, float], dict[str, float]]:
    """Split one flat ``stats()`` snapshot into (counters, gauges).

    Both the induction server and the cluster forwarder publish a single
    flat ``{name: number}`` snapshot (monotonic counters, gauges and
    histogram percentiles side by side) so ``repro stats`` and the JSON
    ops stay simple.  This helper is the one place that re-separates the
    families for Prometheus exposition: ``gauge_names`` and
    :data:`GAUGE_STAT_PREFIXES` pick out the gauges, percentile entries
    (``*_p50/_p90/_p99``) are dropped because the exposition derives them
    from histograms directly, and everything else is a counter.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    for name, value in stats.items():
        if name.endswith(_PERCENTILE_SUFFIXES):
            continue
        if name in gauge_names or name.startswith(GAUGE_STAT_PREFIXES):
            gauges[name] = value
        else:
            counters[name] = value
    return counters, gauges


# -- Prometheus text exposition --------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    return prefix + _NAME_RE.sub("_", name)


def _prom_value(value: float) -> str:
    return f"{float(value):.9g}"


def render_prometheus(registry: MetricsRegistry,
                      extra_counters: Mapping[str, float] | None = None,
                      extra_gauges: Mapping[str, float] | None = None,
                      prefix: str = "repro_") -> str:
    """Prometheus text-format exposition of a registry.

    ``extra_counters``/``extra_gauges`` fold in legacy :class:`Counters`
    snapshots (the server's request counts, the cache's hit counts) so one
    scrape covers the whole process.  Histograms are emitted with cumulative
    ``_bucket{le=...}`` series plus ``p50/p90/p99`` convenience gauges.
    Buckets whose largest observation carried a trace id get an
    OpenMetrics-style exemplar suffix (``# {trace_id="..."} value``), so a
    p99 outlier in a scrape links straight to its trace.
    """
    snap = registry.snapshot()
    counters = dict(snap["counters"])
    counters.update(extra_counters or {})
    gauges = dict(snap["gauges"])
    gauges.update(extra_gauges or {})

    lines: list[str] = []
    for name, value in sorted(counters.items()):
        metric = _prom_name(name, prefix)
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in sorted(gauges.items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, hist_snap in sorted(snap["histograms"].items()):
        metric = _prom_name(name, prefix)
        exemplars = hist_snap.get("exemplars", {})

        def _exemplar(index: int) -> str:
            entry = exemplars.get(str(index))
            if entry is None:
                return ""
            return (f' # {{trace_id="{entry[0]}"}}'
                    f" {_prom_value(entry[1])}")

        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for index, (bound, bucket_count) in enumerate(
                zip(hist_snap["buckets"], hist_snap["counts"])):
            cumulative += bucket_count
            lines.append(
                f'{metric}_bucket{{le="{_prom_value(bound)}"}} '
                f"{cumulative}{_exemplar(index)}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist_snap["count"]}'
                     f"{_exemplar(len(hist_snap['buckets']))}")
        lines.append(f"{metric}_sum {_prom_value(hist_snap['sum'])}")
        lines.append(f"{metric}_count {hist_snap['count']}")
        summary = registry.histogram(name).summary()
        for key in ("p50", "p90", "p99"):
            lines.append(f"# TYPE {metric}_{key} gauge")
            lines.append(f"{metric}_{key} {_prom_value(summary[key])}")
    return "\n".join(lines) + "\n"
