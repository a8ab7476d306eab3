"""Host-speed probe: divides host drift out of CPU-bound timings.

On a shared host the same Python loop runs at very different speeds from
one second to the next, and neither longer runs nor best-of-N passes remove
that from a benchmark.  The probe times a fixed, allocation-free loop in
the client process right before and right after each block of requests,
while no request is in flight; the program's heap and garbage collector
cannot move it.  A block's *factor* is the mean of its two probes divided
by ``REFERENCE_S``, and a scaled timing is the raw timing divided by its
block's factor: the time the work would have taken on a host where the
probe loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Probe loop time that defines the scaled units (about this host's
#: typical value, so scaled figures read like ordinary ones).
REFERENCE_S = 1.0e-3
REPEATS = 5

_OUTER = tuple(range(128))
_INNER = tuple(range(256))


def _spin() -> int:
    # Every value stays below 256, so CPython reuses its cached small ints
    # and the loop allocates nothing.
    acc = 0
    for a in _OUTER:
        for b in _INNER:
            acc = acc ^ a ^ b
    return acc


class HostProbe:
    """Collects probe samples; :meth:`sample` returns one probe's median."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            _spin()
            times.append(perf_counter() - start)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    @staticmethod
    def factor(before: float, after: float) -> float:
        return (before + after) / 2 / REFERENCE_S

    def summary(self) -> str:
        ms = [s * 1e3 for s in self.samples]
        return (f"probe: median {statistics.median(ms):.3f} ms, range "
                f"{min(ms):.3f}-{max(ms):.3f} ms over {len(ms)} probes "
                f"(reference {REFERENCE_S * 1e3:.3f} ms)")
