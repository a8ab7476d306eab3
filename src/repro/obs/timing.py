"""Monotonic timers for search and request instrumentation.

All timing in the observability layer goes through
:func:`time.perf_counter` — a monotonic clock with the finest resolution
the platform offers — so trace events never go backwards when the system
clock is adjusted mid-run.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

__all__ = ["StopWatch", "timed"]


class StopWatch:
    """Accumulating monotonic stopwatch.

    ``elapsed`` sums every completed start/stop interval plus, while
    running, the time since the last :meth:`start` — so it can be read
    mid-flight for progress events.
    """

    __slots__ = ("_started_at", "_accumulated")

    def __init__(self) -> None:
        self._started_at: float | None = None
        self._accumulated = 0.0

    @property
    def running(self) -> bool:
        return self._started_at is not None

    @property
    def elapsed(self) -> float:
        """Total seconds accumulated so far (live while running)."""
        live = perf_counter() - self._started_at if self.running else 0.0
        return self._accumulated + live

    def start(self) -> "StopWatch":
        if self.running:
            raise RuntimeError("stopwatch already running")
        self._started_at = perf_counter()
        return self

    def stop(self) -> float:
        """Stop and return the total elapsed seconds."""
        if not self.running:
            raise RuntimeError("stopwatch is not running")
        self._accumulated += perf_counter() - self._started_at
        self._started_at = None
        return self._accumulated

    def reset(self) -> None:
        self._started_at = None
        self._accumulated = 0.0


@contextmanager
def timed() -> Iterator[StopWatch]:
    """Context manager yielding a running :class:`StopWatch`.

    The watch is stopped on exit, so ``watch.elapsed`` afterwards is the
    block's wall time::

        with timed() as watch:
            do_search()
        tracer.emit("search", wall_s=watch.elapsed)
    """
    watch = StopWatch().start()
    try:
        yield watch
    finally:
        if watch.running:
            watch.stop()
