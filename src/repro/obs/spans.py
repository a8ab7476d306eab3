"""Hierarchical tracing spans with cross-process context propagation.

A *span* is one timed phase of work (a request, a worker dispatch, a
search) with a ``trace_id`` shared by everything done on behalf of
the same root operation and a ``span_id``/``parent_id`` pair encoding the
call tree.  Spans ride the existing :class:`repro.obs.Tracer` sinks as
flat ``span`` events, so JSONL traces, ``repro stats`` and the new
``repro trace`` renderer all consume one stream.

The current span lives in a :mod:`contextvars` context variable, so
nesting works across ``async``/thread boundaries the way the stdlib
intends::

    with span("service.request", tracer):
        with span("cache.lookup", tracer):   # child, same trace
            ...

Crossing a process boundary — the service's supervised workers — is
explicit: the parent serializes
:func:`current_context` into the task payload, and the child re-parents
itself with :func:`attach_context`.  Child spans are recorded into an
in-memory tracer (:class:`repro.obs.MemoryTracer` works), shipped back as
plain dicts, and stitched into the parent's sink with
:func:`replay_events` — one trace ID, end to end, across server thread
and worker process.

All timestamps are :func:`time.perf_counter` seconds.  On Linux that is
``CLOCK_MONOTONIC``, which is shared across processes on one machine, so
parent and worker span timings are directly comparable.
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterable, Iterator, Mapping

from repro.obs.tracer import Tracer

__all__ = [
    "Span",
    "SpanContext",
    "attach_context",
    "current_context",
    "new_trace_id",
    "replay_events",
    "span",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


class SpanContext:
    """The propagated part of a span: just the (trace, span) id pair.

    This is what crosses process boundaries — see :func:`current_context`
    and :func:`attach_context`.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


class Span(SpanContext):
    """One live timed phase; create through :func:`span`, not directly."""

    __slots__ = ("parent_id", "name", "attrs", "start_s", "wall_s")

    def __init__(self, name: str, parent: SpanContext | None,
                 attrs: dict[str, Any]) -> None:
        super().__init__(
            parent.trace_id if parent is not None else new_trace_id(),
            _new_span_id())
        self.parent_id = parent.span_id if parent is not None else None
        self.name = name
        self.attrs = attrs
        self.start_s = perf_counter()
        self.wall_s = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (emitted as extra event fields)."""
        self.attrs.update(attrs)
        return self

    def context(self) -> dict[str, str]:
        """Wire form of this span's identity (see :func:`current_context`)."""
        return {"trace": self.trace_id, "span": self.span_id}


#: The active span (or remote :class:`SpanContext`) for this execution
#: context; children created by :func:`span` parent themselves onto it.
_current_span: contextvars.ContextVar[SpanContext | None] = \
    contextvars.ContextVar("repro_current_span", default=None)


def current_context() -> dict[str, str] | None:
    """JSON-able ``{"trace": ..., "span": ...}`` of the active span, or None.

    Serialize this into any payload that crosses a thread or process
    boundary; the far side re-parents with :func:`attach_context`.
    """
    current = _current_span.get()
    if current is None:
        return None
    return {"trace": current.trace_id, "span": current.span_id}


@contextmanager
def attach_context(context: Mapping[str, str] | None) -> Iterator[None]:
    """Adopt a remote parent: spans opened inside join ``context``'s trace.

    ``None`` (or a malformed mapping) is a no-op, so callers can pass
    whatever arrived on the wire without checking.
    """
    if not context or "trace" not in context or "span" not in context:
        yield
        return
    token = _current_span.set(
        SpanContext(str(context["trace"]), str(context["span"])))
    try:
        yield
    finally:
        _current_span.reset(token)


@contextmanager
def span(name: str, tracer: Tracer | None = None, **attrs: Any) -> Iterator[Span]:
    """Open a span named ``name``; emit it to ``tracer`` when the block ends.

    The span becomes the current context for the duration of the block, so
    nested :func:`span` calls form a tree and :func:`current_context` can be
    shipped to workers.  With no tracer (or a disabled one) the span still
    propagates IDs — only the emission is skipped — so instrumented code
    never branches on whether tracing is on.

    The emitted event is flat: ``kind="span"`` plus ``trace``/``span``/
    ``parent``/``name``/``start_s``/``wall_s`` and any attributes.
    """
    live = Span(name, _current_span.get(), dict(attrs))
    token = _current_span.set(live)
    try:
        yield live
    finally:
        _current_span.reset(token)
        live.wall_s = perf_counter() - live.start_s
        if tracer is not None and tracer.enabled:
            tracer.emit(
                "span",
                trace=live.trace_id,
                span=live.span_id,
                parent=live.parent_id,
                name=live.name,
                start_s=round(live.start_s, 6),
                wall_s=round(live.wall_s, 6),
                **live.attrs,
            )


def replay_events(events: Iterable[Mapping[str, Any]], tracer: Tracer) -> int:
    """Re-emit recorded events (a worker's spans) into a local sink.

    Events keep their original fields — including the worker's ``ts`` and
    span ids — so a replayed worker span slots into the parent's trace tree
    with parent/child links intact.  Returns the number of events emitted.
    """
    if not tracer.enabled:
        return 0
    emitted = 0
    for event in events:
        fields = dict(event)
        kind = str(fields.pop("kind", "span"))
        tracer.emit(kind, **fields)
        emitted += 1
    return emitted
