"""The unified induction-result protocol.

Induction produces results through two doors — a local run
(:class:`repro.core.pipeline.InductionResult`) and replies from the
induction service (:class:`ServiceResult`).  :class:`ResultBase` gives
them one surface, so no consumer (CLI, benchmarks, the service wire
format) special-cases where a result came from:

- ``method``, ``schedule``, ``cost``, ``serial_cost``, ``lockstep_cost``;
- ``speedup_vs_serial`` / ``speedup_vs_lockstep`` (paper-style ratios);
- ``search_stats`` — always a tuple, empty for baselines, one entry when
  a search ran;
- ``cache_hit`` — True when the *whole* result came from the cache;
- ``optimal`` — every search involved completed within budget and the
  result was not degraded;
- ``deadline_cut`` — the request's deadline stopped the search, so the
  schedule is its checked incumbent, unproven (never stored in a cache);
- ``degraded`` — the service fell back to the verified greedy schedule:
  the request's deadline passed before a worker got it, the worker hung
  past its kill, or workers kept dying;
- ``wall_s`` and ``as_dict()`` — one JSON-able serialization for traces,
  the service protocol and table printers.

:func:`result_to_payload` / :func:`result_from_payload` round-trip any
result through JSON; the reconstructed side is a :class:`ServiceResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.schedule import Schedule, schedule_from_payload, schedule_to_payload
from repro.core.search import SearchStats

__all__ = [
    "ResultBase",
    "ServiceResult",
    "result_from_payload",
    "result_to_payload",
    "speedup",
]


def speedup(baseline: float, cost: float) -> float:
    """``baseline / cost`` with the empty-region case pinned to 1.0.

    An empty schedule measured against an empty baseline is a no-op versus
    a no-op — neither faster nor slower — so 0.0/0.0 reports 1.0 rather
    than falling into the infinite-speedup branch.
    """
    if cost:
        return baseline / cost
    return 1.0 if not baseline else float("inf")


class ResultBase:
    """Mixin implementing the unified result protocol.

    Subclasses provide ``method``, ``schedule``, ``cost``, ``serial_cost``,
    ``lockstep_cost``, ``stats``, ``cache_hit``, ``wall_s`` and
    ``degraded`` (as fields, properties or class attributes); the mixin
    derives the rest.
    """

    #: Discriminator used by :func:`result_to_payload` (overridden per class).
    kind = "result"

    @property
    def speedup_vs_serial(self) -> float:
        """Paper-style speedup: serialized-MIMD time / induced time."""
        return speedup(self.serial_cost, self.cost)

    @property
    def speedup_vs_lockstep(self) -> float:
        """Speedup over the naive lockstep interpreter schedule."""
        return speedup(self.lockstep_cost, self.cost)

    @property
    def search_stats(self) -> tuple[SearchStats, ...]:
        """Per-search statistics as a tuple, however many searches ran."""
        stats = getattr(self, "stats", None)
        if stats is None:
            return ()
        if isinstance(stats, SearchStats):
            return (stats,)
        return tuple(stats)

    @property
    def total_nodes(self) -> int:
        return sum(s.nodes_expanded for s in self.search_stats)

    @property
    def optimal(self) -> bool:
        """Every search completed within budget and nothing was degraded.

        Baseline methods (no search ran) count as optimal for *their*
        method — the schedule is exactly what the method produces.
        """
        if self.degraded:
            return False
        stats = self.search_stats
        return all(s.optimal for s in stats) if stats else True

    @property
    def deadline_cut(self) -> bool:
        """A search stopped at the request's deadline, not at its proof
        or its node budget."""
        return any(s.deadline_cut for s in self.search_stats)

    def as_dict(self, include_schedule: bool = False) -> dict[str, Any]:
        """Uniform JSON-able summary shared by CLI, benchmarks and service."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "method": self.method,
            "cost": self.cost,
            "serial_cost": self.serial_cost,
            "lockstep_cost": self.lockstep_cost,
            "speedup_vs_serial": self.speedup_vs_serial,
            "speedup_vs_lockstep": self.speedup_vs_lockstep,
            "slots": len(self.schedule),
            "nodes": self.total_nodes,
            "cache_hit": bool(self.cache_hit),
            "optimal": self.optimal,
            "deadline_cut": self.deadline_cut,
            "degraded": bool(self.degraded),
            "wall_s": self.wall_s,
        }
        if include_schedule:
            out["schedule"] = schedule_to_payload(self.schedule)
        return out


@dataclass(frozen=True)
class ServiceResult(ResultBase):
    """A result reconstructed from the wire (or synthesized by the server).

    ``extras`` carries server-side context that has no local analogue:
    batch size, dedup disposition, retry count, queue wait.
    ``optimal`` and ``deadline_cut`` derive from ``stats`` as for any
    result, so they read as the sender's did.
    """

    method: str
    schedule: Schedule
    cost: float
    serial_cost: float
    lockstep_cost: float
    stats: tuple[SearchStats, ...] = ()
    cache_hit: bool = False
    wall_s: float = 0.0
    degraded: bool = False
    extras: Mapping[str, Any] = field(default_factory=dict)

    kind = "service"


def result_to_payload(result: ResultBase) -> dict[str, Any]:
    """Full wire form of any result implementing the protocol."""
    payload = result.as_dict(include_schedule=True)
    # Each record's fields by name: dataclasses.asdict without its deep
    # copy of a flat record of scalars.
    payload["stats"] = [dict(vars(s)) for s in result.search_stats]
    return payload


#: The payload keys that :func:`result_from_payload` reads or that
#: :meth:`ResultBase.as_dict` derives; every other key is an extra.
_RESULT_KEYS = frozenset({
    "kind", "method", "cost", "serial_cost", "lockstep_cost",
    "speedup_vs_serial", "speedup_vs_lockstep", "slots", "nodes",
    "cache_hit", "optimal", "deadline_cut", "degraded", "wall_s",
    "schedule", "stats",
})

#: :class:`SearchStats` fields and their defaults, in field order.
_STATS_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SearchStats)}


def _stats_from_payload(record: Any) -> SearchStats:
    """``SearchStats(**record)`` without its ``__init__``: the record's
    values over the defaults, and a :class:`TypeError` for anything that
    call refuses (a record that is no object, a key it does not know)."""
    if not isinstance(record, dict):
        raise TypeError(
            f"search stats record is {type(record).__name__}, not an object")
    unknown = record.keys() - _STATS_DEFAULTS.keys()
    if unknown:
        raise TypeError(
            f"unknown search stats fields {sorted(map(str, unknown))}")
    stats = object.__new__(SearchStats)
    fields = stats.__dict__
    fields.update(_STATS_DEFAULTS)
    fields.update(record)
    return stats


def result_from_payload(payload: Mapping[str, Any]) -> ServiceResult:
    """Rebuild a :class:`ServiceResult` from :func:`result_to_payload` output.

    Unknown keys are preserved in ``extras`` so protocol additions degrade
    gracefully for older clients.  The result, its schedule and its stats
    are built straight from ``payload``, with no dataclass ``__init__`` on
    the way, but with every ``float``, ``int`` and ``bool`` conversion and
    every :class:`ValueError` or :class:`TypeError` for a value that is no
    result's: :func:`repro.core.cache.check_entry` relies on them at the
    disk and peer boundary.  Nothing is left to decode later.
    """
    result = object.__new__(ServiceResult)
    result.__dict__.update(
        method=payload["method"],
        schedule=schedule_from_payload(payload["schedule"]),
        cost=float(payload["cost"]),
        serial_cost=float(payload["serial_cost"]),
        lockstep_cost=float(payload["lockstep_cost"]),
        stats=tuple([_stats_from_payload(s)
                     for s in payload.get("stats", ())]),
        cache_hit=bool(payload.get("cache_hit", False)),
        wall_s=float(payload.get("wall_s", 0.0)),
        degraded=bool(payload.get("degraded", False)),
        extras={k: v for k, v in payload.items() if k not in _RESULT_KEYS},
    )
    return result
