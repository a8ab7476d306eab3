"""Greedy list-scheduling heuristic for CSI.

Polynomial-time induction used (a) as a baseline against the exact search
and (b) as the incumbent that seeds branch-and-bound so it behaves as an
anytime algorithm.

At every step the scheduler looks at the *ready* operations of all threads
(dependence predecessors done), buckets them by merge key, and issues the
bucket with the greatest immediate payoff:

    payoff(bucket) = (width - 1) * slot_cost      # time saved vs serial
    tie-break 1:   max remaining critical path of the bucket's ops
    tie-break 2:   wider bucket first, then stable key order

When a thread has several ready ops with the same merge key, the one with
the longest remaining critical path is induced (free the critical chain
first; earliest op on critical-path ties).

The implementation runs on the same incremental machinery as the
branch-and-bound hot path — :class:`repro.core.dag.ReadyIndex` over int
bitmasks with merge keys interned by :class:`~repro.core.costmodel.MergeKeyTable`
— so there is no per-step ``ready()`` rescan or bucket-dict rebuild here
either, and the two schedulers cannot drift in how they enumerate ready
work.
"""

from __future__ import annotations

from repro.core.costmodel import CostModel
from repro.core.dag import ReadyIndex
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Schedule, Slot

__all__ = ["greedy_schedule"]


def greedy_schedule(
    region: Region,
    model: CostModel,
    prepared: PreparedRegion | None = None,
    respect_order: bool = False,
) -> Schedule:
    """Build a valid schedule greedily (see module docstring for the policy)
    from ``prepared``, or from one built here with ``respect_order``."""
    if prepared is None:
        prepared = PreparedRegion.build(region, model, respect_order)
    crit = prepared.crit
    table = prepared.table
    index = ReadyIndex(prepared)
    orders = prepared.pick_orders(prefer_low_index=True)
    num_threads = region.num_threads
    num_keys = len(table)
    ready = index.ready
    ready_count = index.ready_count
    slot_costs = table.slot_costs
    opclasses = table.opclasses

    remaining = region.num_ops
    slots: list[Slot] = []
    while remaining:
        best_score: tuple[float, float, int] | None = None
        best_kid = -1
        best_picks: list[tuple[int, int]] | None = None
        for kid in range(num_keys):
            if not ready_count[kid]:
                continue
            base = kid * num_threads
            picks: list[tuple[int, int]] = []
            longest = 0.0
            for t in range(num_threads):
                bits = ready[base + t]
                if not bits:
                    continue
                for i in orders[base + t]:
                    if (bits >> i) & 1:
                        break
                picks.append((t, i))
                c = crit[t][i]
                if c > longest:
                    longest = c
            width = len(picks)
            score = ((width - 1) * slot_costs[kid], longest, width)
            # >= while scanning kids ascending == max() with the canonical
            # merge-key order as the final tie-break (kid order is canonical).
            if best_score is None or score >= best_score:
                best_score = score
                best_kid = kid
                best_picks = picks
        if best_picks is None:
            raise RuntimeError("no ready operations but work remains (cyclic DAG?)")
        slots.append(Slot._adopt(opclasses[best_kid], dict(best_picks)))
        for t, i in best_picks:
            index.complete(t, i)
        remaining -= len(best_picks)

    return Schedule(tuple(slots))
