"""Per-thread dependence DAGs.

CSI may reorder operations *within* a thread as long as dependences are
respected; dependences are the classical three derived from read/write sets
over straight-line code:

- flow (read-after-write),
- anti (write-after-read),
- output (write-after-write).

The DAG also precomputes, for a given cost model, each operation's *remaining
critical path* (longest cost-weighted path to any sink), which the
branch-and-bound search uses as an admissible lower bound.

Two structures here serve the bitmask search engine
(:mod:`repro.core.search`):

- :attr:`DependenceDAG.pred_masks` — each op's predecessor set packed into a
  plain ``int`` bitmask, so readiness is one ``&``/``==`` pair instead of a
  per-predecessor membership test.  Construction works on these masks
  (dependences, transitive reduction) and derives ``preds``/``succs``
  from them;
- :class:`ReadyIndex` — a mutable ready-ops-by-merge-key index maintained
  *incrementally* as ops complete, shared by the greedy list scheduler
  and the branch-and-bound push/pop loop so neither ever rescans the
  whole DAG per step.

Construction applies *transitive reduction* by default: a direct edge
``p -> i`` is dropped when another predecessor ``q`` of ``i`` is reachable
from ``p`` (the path ``p -> .. -> q -> i`` already orders them).  For the
downward-closed done-sets every scheduler maintains (ops complete only when
all predecessors have), ready sets are identical with or without the
redundant edges, and since every op cost is positive the remaining critical
paths are identical too — the reduction only shrinks the masks the hot loop
touches.  ``transitive_reduction=False`` restores the verbatim edge set.

A thread's DAG depends on nothing but its :class:`ThreadCode`, and both
are immutable, so :func:`build_dags` keeps the default (reduced,
unchained) DAG on the ThreadCode object it was built from.  With the
parser's block table (:func:`repro.core.ops.parse_region`) a handler body
the process has seen is therefore dependence-analysed once, not once per
request; every consumer of a request still reads one ``build_dags``
result through its prepared region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.costmodel import CostModel
from repro.core.ops import Region, ThreadCode

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from repro.core.prepared import PreparedRegion

__all__ = ["DependenceDAG", "ReadyIndex", "build_dags"]


@dataclass(frozen=True)
class DependenceDAG:
    """Immutable dependence DAG of one thread's operation sequence.

    ``preds[i]``/``succs[i]`` are ascending tuples of operation indices.
    By default edges are transitively reduced (see the module docstring);
    correctness never depends on minimality, but the bitmask engine's
    bound and ready maintenance get cheaper with smaller masks.
    """

    thread: int
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    #: ``pred_masks[i]``: ``preds[i]`` as an int bitmask.  Readiness of
    #: ``i`` against a done-bitmask ``d`` is then
    #: ``pred_masks[i] & d == pred_masks[i]`` — pure int ops, no set
    #: objects, which is what the search hot path runs per push/pop.
    pred_masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.preds)

    def ready(self, done: frozenset[int]) -> list[int]:
        """Indices whose predecessors are all in ``done`` and not done."""
        return [
            i for i in range(len(self.preds))
            if i not in done and all(p in done for p in self.preds[i])
        ]

    def is_valid_order(self, order: Iterable[int]) -> bool:
        """True iff ``order`` is a topological order of exactly all ops."""
        seen: set[int] = set()
        for i in order:
            if i in seen or not (0 <= i < len(self.preds)):
                return False
            if any(p not in seen for p in self.preds[i]):
                return False
            seen.add(i)
        return len(seen) == len(self.preds)

    def critical_path_costs(self, thread_code: ThreadCode, model: CostModel) -> tuple[float, ...]:
        """``cp[i]`` = cost of the longest path starting at op ``i``.

        Path cost counts slot costs (issue + mask overhead), i.e. the
        minimum schedule time the thread needs once it is about to run
        op ``i`` with nothing else done on its critical path.
        """
        n = len(self.preds)
        cp = [0.0] * n
        for i in reversed(range(n)):
            own = model.slot_cost(model.opcode_class(thread_code.ops[i].opcode))
            best_succ = max((cp[s] for s in self.succs[i]), default=0.0)
            cp[i] = own + best_succ
        return tuple(cp)


def _transitive_reduce(masks: list[int]) -> list[int]:
    """Drop every edge implied by a longer path.

    Ops are in program order and every dependence points backward, so the
    index order is topological: one forward pass accumulating each op's
    full ancestor bitmask suffices.  Edge ``p -> i`` is redundant iff ``p``
    is an ancestor of some other predecessor of ``i``.
    """
    ancestors = [0] * len(masks)
    reduced: list[int] = []
    for i, mask in enumerate(masks):
        above = 0
        bits = mask
        while bits:
            low = bits & -bits
            bits ^= low
            above |= ancestors[low.bit_length() - 1]
        reduced.append(mask & ~above)
        ancestors[i] = above | mask
    return reduced


#: The attribute of a :class:`ThreadCode` that keeps its default DAG; it
#: is no dataclass field, so equality, hashing and ``repr`` ignore it.
_DAG_ATTR = "_default_dag"


def _build_one(tc: ThreadCode, serialize: bool, reduce: bool = True) -> DependenceDAG:
    n = len(tc.ops)
    if serialize:
        masks = [1 << (i - 1) if i else 0 for i in range(n)]
    else:
        masks = []
        last_write: dict[str, int] = {}            # sym -> its last writer's bit
        readers_since_write: dict[str, int] = {}   # sym -> mask of readers
        bit = 1
        for op in tc.ops:
            mask = 0
            for sym in op.reads:
                mask |= last_write.get(sym, 0)     # flow dependence
                readers_since_write[sym] = readers_since_write.get(sym, 0) | bit
            for sym in op.writes:
                # Output dependence on the last writer, anti dependence on
                # every other reader since it.
                mask |= last_write.get(sym, 0) | (readers_since_write.get(sym, 0) & ~bit)
                last_write[sym] = bit
                readers_since_write[sym] = 0
            # An op both reading and writing sym: the read is of the old
            # value, handled above because reads were processed first.
            masks.append(mask)
            bit <<= 1
        if reduce:
            masks = _transitive_reduce(masks)
    # One pass over each mask's bits gives both directions; ``i`` ascends,
    # so every succs list comes out ascending.
    preds: list[tuple[int, ...]] = []
    succs: list[list[int]] = [[] for _ in range(n)]
    for i, mask in enumerate(masks):
        ps = []
        while mask:
            low = mask & -mask
            p = low.bit_length() - 1
            ps.append(p)
            succs[p].append(i)
            mask ^= low
        preds.append(tuple(ps))
    return DependenceDAG(
        thread=tc.thread,
        preds=tuple(preds),
        succs=tuple(map(tuple, succs)),
        pred_masks=tuple(masks),
    )


def build_dags(
    region: Region,
    respect_order: bool = False,
    transitive_reduction: bool = True,
) -> tuple[DependenceDAG, ...]:
    """Build one dependence DAG per thread.

    With ``respect_order=True`` every op depends on its predecessor —
    i.e. program order is kept verbatim (a chain), which is both a useful
    baseline and a much cheaper search space.  ``transitive_reduction``
    (default on) drops redundant edges; see the module docstring for why
    this is behaviour-preserving for every scheduler in this package.

    With the default flags a thread's DAG is built once per
    :class:`ThreadCode` object and kept on it (both are immutable), so a
    thread block the parser interned is analysed once per process.  The
    other flag settings build afresh and are never kept.
    """
    if respect_order or not transitive_reduction:
        return tuple(
            _build_one(tc, respect_order, reduce=transitive_reduction)
            for tc in region.threads
        )
    dags = []
    for tc in region.threads:
        memo = tc.__dict__
        dag = memo.get(_DAG_ATTR)
        if dag is None:
            dag = memo[_DAG_ATTR] = _build_one(tc, False)
        dags.append(dag)
    return tuple(dags)


class ReadyIndex:
    """Incremental ready-ops-by-merge-key index over bitmask thread state.

    The index the bitmask engine and the greedy list scheduler share.  For
    every (merge-key id, thread) pair it keeps a bitmask of that thread's
    *ready* ops of that key, plus a per-key total so empty keys are skipped
    in O(1).  :meth:`complete` maintains the structure as ops finish,
    touching only the finished op's successors — there is no per-step
    ``ready()`` rescan and no per-step dict building anywhere (the bitmask
    engine inlines the same update and its exact undo).

    Layout: ``ready[kid * num_threads + t]`` is the bitmask for merge key
    ``kid`` in thread ``t``; key ids come from a
    :class:`~repro.core.costmodel.MergeKeyTable` whose id order equals the
    canonical merge-key order, so iterating ids ascending reproduces the
    schedulers' canonical key exploration order.  The root state is a
    copy of the one the prepared region built.
    """

    __slots__ = ("num_threads", "key_of", "pred_masks", "succs", "done",
                 "ready", "ready_count")

    def __init__(self, prepared: "PreparedRegion") -> None:
        num_threads = prepared.region.num_threads
        self.num_threads = num_threads
        self.key_of = prepared.table.ids_by_thread
        self.pred_masks = tuple(dag.pred_masks for dag in prepared.dags)
        self.succs = tuple(dag.succs for dag in prepared.dags)
        self.done = [0] * num_threads
        self.ready = list(prepared.root_ready)
        self.ready_count = list(prepared.root_ready_count)

    def complete(self, t: int, i: int) -> None:
        """Mark op ``i`` of thread ``t`` done and make ready every successor
        whose predecessors are now all done."""
        num_threads = self.num_threads
        key_of = self.key_of[t]
        bit = 1 << i
        self.done[t] |= bit
        done_t = self.done[t]
        self.ready[key_of[i] * num_threads + t] &= ~bit
        self.ready_count[key_of[i]] -= 1
        pred_masks = self.pred_masks[t]
        for s in self.succs[t][i]:
            mask = pred_masks[s]
            if mask & done_t == mask:
                self.ready[key_of[s] * num_threads + t] |= 1 << s
                self.ready_count[key_of[s]] += 1
