"""Baseline schedules without induction.

Two baselines bracket what a SIMD machine does with MIMD threads when no
common code is induced:

- :func:`serial_schedule` — run each thread to completion in turn, every
  operation in its own slot.  This is the worst case the CSI paper's
  speedups are quoted against: total time is the *sum* of all threads.

- :func:`lockstep_schedule` — the behaviour of the basic MIMD-on-SIMD
  interpreter (supplied text §3.1.1): all threads advance one operation per
  interpreter cycle; within a cycle, each distinct merge key present is
  issued once with all threads needing it enabled.  This already shares
  slots *accidentally* (when threads happen to be aligned) but never
  reorders to create alignment — exactly the gap CSI closes.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Schedule, Slot

__all__ = ["lockstep_schedule", "serial_schedule"]


def serial_schedule(region: Region, model: CostModel,
                    prepared: PreparedRegion | None = None) -> Schedule:
    """One slot per operation, threads strictly one after another.

    Classes come from ``prepared``'s merge-key table, or from one built
    here when none is passed.
    """
    if prepared is None:
        prepared = PreparedRegion.build(region, model)
    opclasses = prepared.table.opclasses
    return Schedule(tuple([
        Slot._adopt(opclasses[kid], {t: i})
        for t, key_of in enumerate(prepared.table.ids_by_thread)
        for i, kid in enumerate(key_of)
    ]))


def lockstep_schedule(region: Region, model: CostModel,
                      prepared: PreparedRegion | None = None) -> Schedule:
    """Interpreter-style lockstep execution in program order.

    Cycle ``k`` looks at operation ``k`` of every thread still running,
    groups them by merge key, and issues one slot per group (deterministic
    order: the canonical merge-key order, so results are reproducible and
    independent of float formatting).  Key ids come from ``prepared``'s
    merge-key table, or from one built here when none is passed; id
    order is the canonical order.
    """
    if prepared is None:
        prepared = PreparedRegion.build(region, model)
    table = prepared.table
    opclasses = table.opclasses
    rows = table.ids_by_thread
    slots: list[Slot] = []
    for k in range(max(map(len, rows), default=0)):
        groups: dict[int, dict[int, int]] = {}
        for t, key_of in enumerate(rows):
            if k < len(key_of):
                groups.setdefault(key_of[k], {})[t] = k
        for kid in sorted(groups):
            slots.append(Slot._adopt(opclasses[kid], groups[kid]))
    return Schedule(tuple(slots))
