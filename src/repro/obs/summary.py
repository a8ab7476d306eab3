"""Trace-file summarization backing the ``repro stats`` subcommand.

Reads a JSONL trace written by :class:`repro.obs.JsonlTracer` and
aggregates it per event kind: event counts, sums of every numeric field,
counts of every string field's values (e.g. how many events had
``cache="hit"``).  Numeric fields additionally feed per-field
:class:`repro.obs.metrics.Histogram` instances, so the report shows
``p50/p90/p99`` next to total and mean — totals say how much, percentiles
say how bad the tail is.  The renderer turns all of that into the ASCII
tables the rest of the toolkit prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import DEFAULT_VALUE_BUCKETS, Histogram
from repro.util.tables import format_table

__all__ = ["KindSummary", "TraceSummary", "render_trace_summary", "summarize_trace"]

#: Bookkeeping keys that are not workload fields.
_META_FIELDS = frozenset({"ts", "kind"})

#: Span identity fields: unique per event, so aggregating them as labels
#: would add one row per span to the report.  ``repro trace`` renders them.
_SPAN_ID_FIELDS = frozenset({"trace", "span", "parent"})


@dataclass
class KindSummary:
    """Aggregate over all events of one kind."""

    kind: str
    count: int = 0
    sums: dict[str, float] = field(default_factory=dict)
    labels: dict[str, dict[str, int]] = field(default_factory=dict)
    hists: dict[str, Histogram] = field(default_factory=dict)

    def add(self, event: dict[str, Any]) -> None:
        self.count += 1
        for name, value in event.items():
            if name in _META_FIELDS or \
                    (self.kind == "span" and name in _SPAN_ID_FIELDS):
                continue
            if isinstance(value, bool):
                self.sums[name] = self.sums.get(name, 0) + int(value)
            elif isinstance(value, (int, float)):
                self.sums[name] = self.sums.get(name, 0) + value
                hist = self.hists.get(name)
                if hist is None:
                    hist = self.hists[name] = Histogram(DEFAULT_VALUE_BUCKETS)
                if value >= 0:  # negatives are out of bucket range; sums keep them
                    hist.observe(value)
            else:
                per_value = self.labels.setdefault(name, {})
                per_value[str(value)] = per_value.get(str(value), 0) + 1

    def mean(self, name: str) -> float:
        return self.sums.get(name, 0.0) / self.count if self.count else 0.0

    def percentile(self, name: str, q: float) -> float:
        """Interpolated quantile of a numeric field (0.0 if never seen)."""
        hist = self.hists.get(name)
        return hist.percentile(q) if hist is not None else 0.0


@dataclass
class TraceSummary:
    """Whole-trace aggregate: per-kind summaries plus parse bookkeeping."""

    path: str
    events: int = 0
    malformed_lines: int = 0
    kinds: dict[str, KindSummary] = field(default_factory=dict)
    #: Search counters summed over request events that ran their search:
    #: a cache hit's event carries the stored entry's counters.
    searched: dict[str, float] = field(default_factory=dict)

    def kind(self, name: str) -> KindSummary:
        return self.kinds.get(name, KindSummary(name))

    def add(self, event: dict[str, Any]) -> None:
        """Fold one trace event into the aggregate."""
        self.events += 1
        kind = str(event["kind"])
        self.kinds.setdefault(kind, KindSummary(kind)).add(event)
        if kind == "span" or event.get("cache") == "hit":
            return
        for name in ("nodes", "budget_exhausted"):
            value = event.get(name)
            if isinstance(value, (int, float)):
                self.searched[name] = self.searched.get(name, 0) + value

    def _requests(self) -> Iterable[KindSummary]:
        # Spans repeat their request's ``cache`` label and nest inside each
        # other's ``wall_s``, so request totals count every kind but them.
        return (ks for name, ks in self.kinds.items() if name != "span")

    @property
    def cache_hits(self) -> int:
        return sum(ks.labels.get("cache", {}).get("hit", 0)
                   for ks in self._requests())

    @property
    def cache_misses(self) -> int:
        return sum(ks.labels.get("cache", {}).get("miss", 0)
                   for ks in self._requests())

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def total_nodes(self) -> float:
        return self.searched.get("nodes", 0)

    @property
    def total_wall_s(self) -> float:
        return sum(ks.sums.get("wall_s", 0) for ks in self._requests())

    @property
    def budget_exhaustions(self) -> float:
        return self.searched.get("budget_exhausted", 0)


def _iter_events(lines: Iterable[str], summary: TraceSummary) -> Iterable[dict]:
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            summary.malformed_lines += 1
            continue
        if not isinstance(event, dict) or "kind" not in event:
            summary.malformed_lines += 1
            continue
        yield event


def summarize_trace(path: str | Path) -> TraceSummary:
    """Aggregate the JSONL trace at ``path`` (tolerates truncated lines)."""
    path = Path(path)
    summary = TraceSummary(path=str(path))
    with open(path, encoding="utf-8") as fh:
        for event in _iter_events(fh, summary):
            summary.add(event)
    return summary


def render_trace_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as the ``repro stats`` report."""
    head = [
        ["events", summary.events],
        ["event kinds", ", ".join(sorted(summary.kinds)) or "-"],
        ["search nodes expanded", int(summary.total_nodes)],
        ["budget exhaustions", int(summary.budget_exhaustions)],
        ["cache hits / misses", f"{summary.cache_hits} / {summary.cache_misses}"],
        ["cache hit rate", f"{summary.cache_hit_rate:.1%}"],
        ["instrumented wall time", f"{summary.total_wall_s:.3f} s"],
    ]
    if summary.malformed_lines:
        head.append(["malformed lines skipped", summary.malformed_lines])
    blocks = [format_table(["metric", "value"], head,
                           title=f"trace summary: {summary.path}")]

    for kind in sorted(summary.kinds):
        ks = summary.kinds[kind]
        rows = [[name, round(total, 6), round(ks.mean(name), 6),
                 round(ks.percentile(name, 0.50), 6),
                 round(ks.percentile(name, 0.90), 6),
                 round(ks.percentile(name, 0.99), 6)]
                for name, total in sorted(ks.sums.items())]
        for name, per_value in sorted(ks.labels.items()):
            for value, count in sorted(per_value.items()):
                rows.append([f"{name}={value}", count, "-", "-", "-", "-"])
        if not rows:
            continue
        blocks.append(format_table(
            ["field", "total", "mean", "p50", "p90", "p99"], rows,
            title=f"{kind}: {ks.count} event{'s' if ks.count != 1 else ''}"))
    return "\n\n".join(blocks)
