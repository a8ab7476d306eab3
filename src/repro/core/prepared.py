"""One prepared region per request.

:class:`PreparedRegion` derives the facts every consumer of a computed
request needs — DAGs, merge-key table, critical paths, root lower bound,
root ready state — once, the way a CSE pass hashes each subexpression
once for every later pass.  The greedy seed, both search engines, the
serial and lockstep baselines and the verifier read it.  It is immutable
and lives for one request: it is never cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.costmodel import CostModel, MergeKeyTable
from repro.core.dag import DependenceDAG, build_dags
from repro.core.ops import Region

__all__ = ["PreparedRegion"]


@dataclass(frozen=True, eq=False)
class PreparedRegion:
    """Derived facts about one region under one model; see :meth:`build`."""

    region: Region
    model: CostModel
    dags: tuple[DependenceDAG, ...]
    table: MergeKeyTable
    #: ``crit[t][i]`` — remaining critical path of op ``i`` of thread
    #: ``t``, bit for bit :meth:`DependenceDAG.critical_path_costs`.
    crit: tuple[tuple[float, ...], ...]
    #: ``class_counts[kid][t]`` — ops of merge key ``kid`` in thread ``t``.
    class_counts: tuple[tuple[int, ...], ...]
    #: Schedule-independent bound on any valid schedule's cost: the max of
    #: the longest critical path and the class-count bound at the root.
    lower_bound: float
    #: ``buckets[kid * num_threads + t]`` — op indices of merge key ``kid``
    #: in thread ``t``, ascending.
    buckets: tuple[tuple[int, ...], ...]
    #: The root state of every :class:`~repro.core.dag.ReadyIndex`:
    #: ``root_ready`` is the bitmask of ops without predecessors per
    #: (key, thread), in ``buckets``' layout, and ``root_ready_count`` their
    #: number per key.
    root_ready: tuple[int, ...]
    root_ready_count: tuple[int, ...]

    @classmethod
    def build(cls, region: Region, model: CostModel,
              respect_order: bool = False) -> "PreparedRegion":
        dags = build_dags(region, respect_order=respect_order)
        table = MergeKeyTable(model, region)
        slot_costs = table.slot_costs
        crit = []
        for dag, key_of in zip(dags, table.ids_by_thread):
            # critical_path_costs' recurrence and float operations, with
            # each op's slot cost read from the table.
            cp = [0.0] * len(dag)
            succs = dag.succs
            for i in reversed(range(len(cp))):
                longest = 0.0
                for s in succs[i]:
                    if cp[s] > longest:
                        longest = cp[s]
                cp[i] = slot_costs[key_of[i]] + longest
            crit.append(tuple(cp))
        num_threads = region.num_threads
        num_keys = len(slot_costs)
        buckets: list[list[int]] = [[] for _ in range(num_keys * num_threads)]
        ready = [0] * len(buckets)
        ready_count = [0] * num_keys
        for t, (dag, key_of) in enumerate(zip(dags, table.ids_by_thread)):
            for i, kid in enumerate(key_of):
                buckets[kid * num_threads + t].append(i)
            for i, mask in enumerate(dag.pred_masks):
                if not mask:
                    ready[key_of[i] * num_threads + t] |= 1 << i
                    ready_count[key_of[i]] += 1
        sizes = list(map(len, buckets))
        counts = tuple(tuple(sizes[kid * num_threads:(kid + 1) * num_threads])
                       for kid in range(num_keys))
        # Summed in key-id order, like the bitmask engine's root bound.
        class_bound = sum(max(row) * cost
                          for row, cost in zip(counts, slot_costs))
        cp_bound = max((max(cp, default=0.0) for cp in crit), default=0.0)
        return cls(region=region, model=model, dags=dags, table=table,
                   crit=tuple(crit), class_counts=counts,
                   lower_bound=max(cp_bound, class_bound),
                   buckets=tuple(map(tuple, buckets)),
                   root_ready=tuple(ready),
                   root_ready_count=tuple(ready_count))

    def pick_orders(self, prefer_low_index: bool = False
                    ) -> list[tuple[int, ...]]:
        """Per (key, thread) op-candidate order for ready-pick selection,
        in ``buckets``' layout.

        Ordered by remaining critical path descending; ties break toward
        the higher op index (the search's ``max(idxs, key=(crit, i))``)
        unless ``prefer_low_index`` (the greedy's first-max policy).  The
        first candidate whose ready bit is set is the pick — almost always
        the first probe, so selection is O(1) without any per-step sort.
        """
        num_threads = self.region.num_threads
        crit = self.crit
        orders: list[tuple[int, ...]] = []
        for slot, bucket in enumerate(self.buckets):
            if len(bucket) < 2:
                orders.append(bucket)
                continue
            # A stable descending sort keeps equal paths in bucket order:
            # ascending op index, or descending once the bucket is reversed.
            orders.append(tuple(sorted(
                bucket if prefer_low_index else reversed(bucket),
                key=crit[slot % num_threads].__getitem__, reverse=True)))
        return orders
