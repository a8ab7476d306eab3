"""Schedules: the output of CSI.

A :class:`Schedule` is an ordered list of :class:`Slot`\\ s.  Each slot
carries the opcode class executed in that SIMD instruction issue and a map
``thread -> operation index`` of the ops that share ("are induced into") the
slot.  Slots execute sequentially; within a slot all participating PEs run
the same handler simultaneously under an enable mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from repro.core.costmodel import CostModel
from repro.core.ops import Region

__all__ = ["Schedule", "Slot", "schedule_from_payload", "schedule_to_payload"]


@dataclass(frozen=True)
class Slot:
    """One SIMD instruction issue shared by one or more threads."""

    opclass: str
    picks: Mapping[int, int]

    def __post_init__(self) -> None:
        if not self.picks:
            raise ValueError("slot with no participating threads")
        object.__setattr__(self, "picks", MappingProxyType(dict(self.picks)))

    @classmethod
    def _adopt(cls, opclass: str, picks: dict[int, int]) -> "Slot":
        """A slot that wraps ``picks`` instead of copying it.

        For trusted callers only: ``picks`` must be a fresh dict that the
        caller drops, since the slot's read-only view is of that dict.
        """
        if not picks:
            raise ValueError("slot with no participating threads")
        slot = object.__new__(cls)
        fields = slot.__dict__
        fields["opclass"] = opclass
        fields["picks"] = MappingProxyType(picks)
        return slot

    @property
    def threads(self) -> frozenset[int]:
        return frozenset(self.picks)

    @property
    def width(self) -> int:
        """Number of threads sharing the slot."""
        return len(self.picks)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.picks.items()))

    def render(self) -> str:
        body = ", ".join(f"T{t}:{i}" for t, i in self)
        return f"[{self.opclass}  {body}]"


@dataclass(frozen=True)
class Schedule:
    """An ordered sequence of slots covering a region."""

    slots: tuple[Slot, ...]

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[Slot]:
        return iter(self.slots)

    def __getitem__(self, i: int) -> Slot:
        return self.slots[i]

    def cost(self, model: CostModel) -> float:
        """Total execution time under ``model`` (sum of slot costs)."""
        return sum(model.slot_cost(slot.opclass) for slot in self.slots)

    def num_ops(self) -> int:
        return sum(slot.width for slot in self.slots)

    def ops_of_thread(self, thread: int) -> list[int]:
        """Operation indices of ``thread`` in execution order."""
        return [slot.picks[thread] for slot in self.slots if thread in slot.picks]

    def utilization(self, num_threads: int) -> float:
        """Mean fraction of threads active per slot (1.0 = perfect sharing)."""
        if not self.slots:
            return 0.0
        return sum(slot.width for slot in self.slots) / (len(self.slots) * num_threads)

    def sharing_factor(self) -> float:
        """Mean number of threads per slot (ops executed / slots issued)."""
        if not self.slots:
            return 0.0
        return self.num_ops() / len(self.slots)

    def render(self, region: Region | None = None) -> str:
        """Multi-line listing; with ``region`` the merged ops are spelled out."""
        lines: list[str] = []
        for k, slot in enumerate(self.slots):
            if region is None:
                lines.append(f"{k:4d}: {slot.render()}")
            else:
                parts = [
                    f"T{t}<{region[t].ops[i].render()}>" for t, i in slot
                ]
                lines.append(f"{k:4d}: {slot.opclass:<8s} {'  '.join(parts)}")
        return "\n".join(lines)


def schedule_to_payload(schedule: Schedule) -> list:
    """JSON-able form of a schedule (inverse of :func:`schedule_from_payload`)."""
    return [
        [slot.opclass, sorted([int(t), int(i)] for t, i in slot.picks.items())]
        for slot in schedule
    ]


def schedule_from_payload(payload: list) -> Schedule:
    """Rebuild a :class:`Schedule` from :func:`schedule_to_payload` output.

    Each slot's picks dict is built once, from ``int`` checks of the wire
    values, and adopted without a second copy.  The schedule is adopted
    as well: its dataclass ``__init__`` would only store the tuple.
    """
    slots = []
    for opclass, picks in payload:
        by_thread = {}
        for t, i in picks:
            by_thread[int(t)] = int(i)
        slots.append(Slot._adopt(opclass, by_thread))
    schedule = object.__new__(Schedule)
    schedule.__dict__["slots"] = tuple(slots)
    return schedule
