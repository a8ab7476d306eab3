"""Structured trace sinks: one flat JSON event per line.

The induction entry points accept an optional tracer; when none is given
they fall back to :data:`NULL_TRACER`, whose ``emit`` is a no-op ``pass``
— the disabled path costs one attribute call per *search*, not per node,
so tracing off is effectively free.

Event schema (all sinks): every event is a flat JSON object with

- ``ts``    — seconds on a monotonic clock (not wall-clock time of day);
- ``kind``  — event type: ``induce`` (one per request of
  :func:`repro.core.pipeline.run_induction`), ``span`` (one per timed
  phase, :mod:`repro.obs.spans`), and the service's own kinds;
- remaining keys are kind-specific numeric or string fields (search
  counters, costs, cache disposition, wall time).

``repro stats <trace.jsonl>`` summarizes a trace file; see
:mod:`repro.obs.summary`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, TextIO

__all__ = ["JsonlTracer", "MemoryTracer", "NULL_TRACER", "TeeTracer", "Tracer"]


class Tracer:
    """No-op base tracer; also the disabled implementation."""

    enabled = False
    #: Events recorded so far (live on real sinks; 0 on the disabled one).
    events_written = 0

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one structured event (no-op here)."""

    def close(self) -> None:
        """Release any underlying resources (no-op here)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Shared disabled tracer; ``tracer or NULL_TRACER`` is the idiom callees use.
NULL_TRACER = Tracer()


class MemoryTracer(Tracer):
    """Collects events in a list — for tests and in-process inspection."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, kind: str, **fields: Any) -> None:
        self.events.append({"ts": perf_counter(), "kind": kind, **fields})

    @property
    def events_written(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e["kind"] == kind]


class TeeTracer(Tracer):
    """Fans every event out to several sinks.

    The service layers use this to record a request's spans twice at no
    extra call-site cost: once into the server's long-lived sink (JSONL
    file, memory) and once into a per-request :class:`MemoryTracer` whose
    events are shipped back to the caller in the reply's ``obs`` payload.
    ``enabled`` is True when *any* sink is enabled, so a tee over only
    disabled sinks keeps the tracing-off fast path.
    """

    def __init__(self, *sinks: Tracer) -> None:
        self.sinks = tuple(s for s in sinks if s is not None)

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return any(s.enabled for s in self.sinks)

    @property
    def events_written(self) -> int:  # type: ignore[override]
        return sum(s.events_written for s in self.sinks)

    def emit(self, kind: str, **fields: Any) -> None:
        for sink in self.sinks:
            if sink.enabled:
                sink.emit(kind, **fields)


class JsonlTracer(Tracer):
    """Appends one JSON object per event to a file.

    Events are flushed as they are written so a crashed or killed run
    still leaves a readable trace.  Emission happens only in the parent
    process (workers record in memory and report events back over the
    pipe), but *within* the process the induction server's connection
    threads share one sink — so the lock is held
    across serialize+write, keeping every line whole.  ``close`` fsyncs
    before releasing the descriptor so a trace survives a power-cut-style
    kill of whatever reads it next.
    """

    enabled = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: TextIO | None = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.events_written = 0

    def emit(self, kind: str, **fields: Any) -> None:
        with self._lock:
            if self._fh is None:
                raise ValueError(f"tracer for {self.path} is closed")
            record = {"ts": round(perf_counter(), 6), "kind": kind, **fields}
            self._fh.write(
                json.dumps(record, sort_keys=True, default=str) + "\n")
            self._fh.flush()
            self.events_written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is None:
                return
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                pass  # best effort: closing beats crashing on a dead fd
            self._fh.close()
            self._fh = None
