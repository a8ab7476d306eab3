"""One prepared region per request.

:class:`PreparedRegion` derives the facts every consumer of a computed
request needs — DAGs, merge-key table, critical paths, root lower bound —
once, the way a CSE pass hashes each subexpression once for every later
pass.  The greedy seed, both search engines, anneal, the portfolio race,
the serial and lockstep baselines and the verifier read it.  It is immutable and lives for one request: it
is never cached, and the portfolio's strategy threads share it.
"""

from __future__ import annotations

from collections import Counter
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
        counts = [[0] * region.num_threads for _ in slot_costs]
        for t, key_of in enumerate(table.ids_by_thread):
            for kid, n in Counter(key_of).items():
                counts[kid][t] = n
        # Summed in key-id order, like the bitmask engine's root bound.
        class_bound = sum(max(row) * cost
                          for row, cost in zip(counts, slot_costs))
        cp_bound = max((max(cp, default=0.0) for cp in crit), default=0.0)
        return cls(region=region, model=model, dags=dags, table=table,
                   crit=tuple(crit),
                   class_counts=tuple(tuple(row) for row in counts),
                   lower_bound=max(cp_bound, class_bound))
