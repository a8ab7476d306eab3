"""The one induction result.

Every door returns an :class:`InductionResult`: a local run
(:func:`repro.core.pipeline.run_induction`, a cache hit included), the
service's degraded fallback, and a reply from a service or a cluster
(:func:`repro.service.client.read_reply`).  No consumer (CLI,
benchmarks, the service wire format) asks where a result came from:

- ``method``, ``schedule``, ``cost``, ``serial_cost``, ``lockstep_cost``;
- ``stats`` — the search's :class:`SearchStats`, None for the methods
  that run none; ``search_stats`` is the same as a tuple (empty or one);
- ``speedup_vs_serial`` / ``speedup_vs_lockstep`` (paper-style ratios);
- ``cache_hit`` — True when the *whole* result came from a cache;
- ``optimal`` — the search (if any) completed within budget and the
  result was not degraded;
- ``deadline_cut`` — the request's deadline stopped the search, so the
  schedule is its checked incumbent, unproven (never stored in a cache);
- ``degraded`` — the service fell back to the verified greedy schedule:
  the request's deadline passed before a worker got it, the worker hung
  past its kill, or workers kept dying;
- ``extras`` — the payload keys a result does not read: the daemons'
  per-request context (disposition, queue wait, retries, the routed
  node), empty for a local run;
- ``wall_s`` and ``as_dict()`` — one JSON-able serialization for traces,
  the service protocol and table printers.

:func:`result_to_payload` / :func:`result_from_payload` round-trip a
result through JSON; the payload's ``"kind": "induce"`` is kept so every
cache entry and reply keeps its text.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.schedule import Schedule, schedule_from_payload, schedule_to_payload
from repro.core.search import SearchStats

__all__ = [
    "InductionResult",
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


@dataclass(frozen=True)
class InductionResult:
    """Outcome of one induction request, from whichever door answered it."""

    method: str
    schedule: Schedule
    cost: float
    serial_cost: float
    lockstep_cost: float
    stats: SearchStats | None = None
    cache_hit: bool = False
    wall_s: float = 0.0
    degraded: bool = False
    extras: Mapping[str, Any] = field(default_factory=dict)

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
        """``stats`` as a tuple: empty when no search ran."""
        return () if self.stats is None else (self.stats,)

    @property
    def total_nodes(self) -> int:
        return 0 if self.stats is None else self.stats.nodes_expanded

    @property
    def optimal(self) -> bool:
        """The search completed within budget and nothing was degraded.

        Baseline methods (no search ran) count as optimal for *their*
        method — the schedule is exactly what the method produces.
        """
        if self.degraded:
            return False
        return self.stats is None or bool(self.stats.optimal)

    @property
    def deadline_cut(self) -> bool:
        """The search stopped at the request's deadline, not at its proof
        or its node budget."""
        return self.stats is not None and bool(self.stats.deadline_cut)

    def as_dict(self, include_schedule: bool = False) -> dict[str, Any]:
        """Uniform JSON-able summary shared by CLI, benchmarks and service."""
        out: dict[str, Any] = {
            "kind": "induce",
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


def result_to_payload(result: InductionResult) -> dict[str, Any]:
    """Full wire form of a result."""
    payload = result.as_dict(include_schedule=True)
    # Each record's fields by name: dataclasses.asdict without its deep
    # copy of a flat record of scalars.
    payload["stats"] = [dict(vars(s)) for s in result.search_stats]
    return payload


#: The payload keys that :func:`result_from_payload` reads or that
#: :meth:`InductionResult.as_dict` derives; every other key is an extra.
_RESULT_KEYS = frozenset({
    "kind", "method", "cost", "serial_cost", "lockstep_cost",
    "speedup_vs_serial", "speedup_vs_lockstep", "slots", "nodes",
    "cache_hit", "optimal", "deadline_cut", "degraded", "wall_s",
    "schedule", "stats",
})

#: :class:`SearchStats` fields and their defaults, in field order.
_STATS_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SearchStats)}


def _stats_from_payload(records: Any) -> SearchStats | None:
    """A payload's ``stats`` list as its one record, or None when empty.

    ``SearchStats(**record)`` without its ``__init__``: the record's
    values over the defaults.  More than one record, a record that is no
    object and a key the class does not have raise :class:`ValueError`.
    """
    if len(records) > 1:
        raise ValueError(f"{len(records)} search stats records, not one")
    if not records:
        return None
    record = records[0]
    if not isinstance(record, dict):
        raise ValueError(
            f"search stats record is {type(record).__name__}, not an object")
    unknown = record.keys() - _STATS_DEFAULTS.keys()
    if unknown:
        raise ValueError(
            f"unknown search stats fields {sorted(map(str, unknown))}")
    stats = object.__new__(SearchStats)
    fields = stats.__dict__
    fields.update(_STATS_DEFAULTS)
    fields.update(record)
    return stats


def result_from_payload(payload: Mapping[str, Any]) -> InductionResult:
    """Rebuild an :class:`InductionResult` from :func:`result_to_payload`
    output.

    Unknown keys are preserved in ``extras`` so protocol additions degrade
    gracefully for older clients.  The result, its schedule and its stats
    are built straight from ``payload``, with no dataclass ``__init__`` on
    the way, but with every ``float``, ``int`` and ``bool`` conversion:
    a payload that is no result's raises :class:`ValueError`, which
    :func:`repro.core.cache.check_entry` relies on at the disk and peer
    boundary and a client at the wire.  Nothing is left to decode later.
    """
    result = object.__new__(InductionResult)
    try:
        result.__dict__.update(
            method=payload["method"],
            schedule=schedule_from_payload(payload["schedule"]),
            cost=float(payload["cost"]),
            serial_cost=float(payload["serial_cost"]),
            lockstep_cost=float(payload["lockstep_cost"]),
            stats=_stats_from_payload(payload.get("stats", ())),
            cache_hit=bool(payload.get("cache_hit", False)),
            wall_s=float(payload.get("wall_s", 0.0)),
            degraded=bool(payload.get("degraded", False)),
            extras={k: v for k, v in payload.items()
                    if k not in _RESULT_KEYS},
        )
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise ValueError(f"not a result payload: {exc!r}") from exc
    return result
