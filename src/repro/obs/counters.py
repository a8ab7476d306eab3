"""String-keyed counters shared by the cache, service and trace summarizer.

A :class:`Counters` is a tiny mapping of name -> number with O(1)
increment and no per-bump allocation beyond the dict entry — cheap enough
to leave enabled on hot paths.  Updates are guarded by a lock so the
induction server's connection threads and its worker pool can share one
instance; :meth:`set` records gauge-style values (queue depth, workers
alive) next to the monotonic counts.
"""

from __future__ import annotations

import threading
from typing import Iterator, Mapping

__all__ = ["Counters"]


class Counters:
    """Named counters and gauges (ints or floats), thread-safe."""

    __slots__ = ("_counts", "_lock")

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        self._counts: dict[str, float] = dict(initial or {})
        self._lock = threading.Lock()

    def bump(self, name: str, amount: float = 1) -> float:
        """Add ``amount`` to ``name`` (created at 0) and return the new value."""
        with self._lock:
            value = self._counts.get(name, 0) + amount
            self._counts[name] = value
            return value

    def set(self, name: str, value: float) -> float:
        """Record a gauge: overwrite ``name`` with ``value``."""
        with self._lock:
            self._counts[name] = value
            return value

    def snapshot(self) -> dict[str, float]:
        """Point-in-time copy, sorted by name for stable output."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def snapshot_with(self, gauges: Mapping[str, float]) -> dict[str, float]:
        """Set ``gauges`` and snapshot under one lock acquisition.

        The induction server's ``stats`` op uses this so queue depth,
        uptime and tracer gauges land in the *same* consistent view as the
        counters — no torn read between setting a gauge and copying.
        """
        with self._lock:
            self._counts.update(gauges)
            return dict(sorted(self._counts.items()))

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"Counters({body})"
