"""Legacy engine — the reference oracle.

This is the original frozenset/dict implementation, kept as written
apart from the stop at a leaf that meets the root bound and the
bound-neutral flag that leads its move score.  It defines the
search semantics the production bitmask engine must reproduce exactly
(schedules, costs and all pruning counters).  Nothing in production runs
it: ``repro fuzz`` and the equivalence suite pass it to
:func:`repro.core.search.branch_and_bound` as ``search_fn`` and diff the
two engines, so changes here must be mirrored in
:mod:`repro.core.engines.bitmask` and vice versa.  Its ``_lower_bound``
still takes ``max(cp, class)`` at every node, which re-proves on every
checked case that skipping the dominated critical-path bound in the
bitmask engine changes nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.costmodel import CostModel, merge_key_sort_key
from repro.core.dag import DependenceDAG
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Slot

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from repro.core.search import SearchConfig, SearchStats

__all__ = ["legacy_search"]


@dataclass
class _SearchCtx:
    region: Region
    model: CostModel
    dags: tuple[DependenceDAG, ...]
    crit: tuple[tuple[float, ...], ...]
    config: "SearchConfig"
    stats: "SearchStats"
    best_slots: list[Slot] = field(default_factory=list)
    memo: dict[tuple[frozenset[int], ...], float] = field(default_factory=dict)
    should_stop: Callable[[], bool] | None = None
    #: The root's lower bound; a leaf that meets it is optimal.
    root_bound: float = 0.0
    #: Set by the leaf that met ``root_bound``: the search unwinds like
    #: on an exhausted budget, but is not exhausted.
    proved: bool = False


def _lower_bound(
    ctx: _SearchCtx,
    done: list[frozenset[int]],
    key_counts: dict[tuple, list[int]],
) -> float:
    bound = 0.0
    if ctx.config.use_cp_bound:
        for t, dset in enumerate(done):
            ops_left = (ctx.crit[t][i] for i in range(len(ctx.dags[t])) if i not in dset)
            bound = max(bound, max(ops_left, default=0.0))
    if ctx.config.use_class_bound:
        class_bound = 0.0
        for key, counts in key_counts.items():
            m = max(counts)
            if m:
                # key[0] is the opcode class by construction of merge_key.
                class_bound += m * ctx.model.slot_cost(key[0])
        bound = max(bound, class_bound)
    return bound


def _candidate_moves(
    ctx: _SearchCtx,
    done: list[frozenset[int]],
) -> list[tuple[tuple, dict[int, int]]]:
    """All (merge_key, picks) moves available from this state.

    Per thread and key only the longest-critical-path ready op is offered
    unless ``branch_thread_choices`` asks for all of them.
    """
    region, model, crit = ctx.region, ctx.model, ctx.crit
    per_key: dict[tuple, dict[int, list[int]]] = {}
    for t, dag in enumerate(ctx.dags):
        for i in dag.ready(done[t]):
            key = model.merge_key(region[t].ops[i])
            per_key.setdefault(key, {}).setdefault(t, []).append(i)

    moves: list[tuple[tuple, dict[int, int]]] = []
    # Canonical structured order (not repr order): exploration — and hence
    # any budget-exhausted result — must not depend on float formatting or
    # dict insertion history.
    for key in sorted(per_key, key=merge_key_sort_key):
        threads = per_key[key]
        choices: dict[int, list[int]] = {}
        for t, idxs in threads.items():
            if ctx.config.branch_thread_choices:
                choices[t] = sorted(idxs)
            else:
                choices[t] = [max(idxs, key=lambda i: (crit[t][i], i))]
        tids = sorted(choices)
        if ctx.config.maximal_merges_only:
            thread_subsets: list[tuple[int, ...]] = [tuple(tids)]
        else:
            thread_subsets = [
                subset
                for r in range(len(tids), 0, -1)
                for subset in itertools.combinations(tids, r)
            ]
        for subset in thread_subsets:
            for combo in itertools.product(*(choices[t] for t in subset)):
                moves.append((key, dict(zip(subset, combo))))
    return moves


def _greedy_move_score(
    ctx: _SearchCtx,
    key_counts: dict[tuple, list[int]],
    move: tuple[tuple, dict[int, int]],
) -> tuple:
    """Sort key, descending: bound-neutral first, then greedy payoff.

    A move is bound-neutral when it takes an op from every thread that
    holds the most remaining ops of its key: that key's class-bound term
    then falls by the slot it pays for, so ``cost + class bound`` stays
    put.  Only the class bound makes the flag meaningful; without it
    every move scores ``False`` and the payoff order stands alone."""
    key, picks = move
    neutral = False
    if ctx.config.use_class_bound:
        counts = key_counts[key]
        m = max(counts)
        neutral = all(t in picks for t, c in enumerate(counts) if c == m)
    saved = (len(picks) - 1) * ctx.model.slot_cost(key[0])
    longest = max(ctx.crit[t][i] for t, i in picks.items())
    return (neutral, saved, longest, len(picks))


def _dfs(
    ctx: _SearchCtx,
    done: list[frozenset[int]],
    key_counts: dict[tuple, list[int]],
    cost: float,
    slots: list[Slot],
    remaining: int,
) -> None:
    stats, config = ctx.stats, ctx.config
    if remaining == 0:
        if cost < stats.best_cost:
            stats.best_cost = cost
            stats.incumbent_updates += 1
            ctx.best_slots = list(slots)
            # With both bound knobs off the root bound is 0.0, which no
            # leaf meets (every slot costs more than 0).
            ctx.proved = cost <= ctx.root_bound
        return
    if stats.nodes_expanded >= config.node_budget:
        stats.budget_exhausted = True
        return
    # Cooperative cancellation (the request's deadline): polled every 256
    # nodes so the callback costs nothing on the hot path.  A stopped
    # search reports ``budget_exhausted`` — the anytime contract is the
    # same whether the budget ran out or the deadline passed.
    if (ctx.should_stop is not None
            and not (stats.nodes_expanded & 255) and ctx.should_stop()):
        stats.budget_exhausted = True
        return
    stats.nodes_expanded += 1

    if cost + _lower_bound(ctx, done, key_counts) >= stats.best_cost:
        stats.pruned_by_bound += 1
        return

    if config.use_memo:
        state = tuple(done)
        prev = ctx.memo.get(state)
        if prev is not None and prev <= cost:
            stats.pruned_by_memo += 1
            return
        ctx.memo[state] = cost

    moves = _candidate_moves(ctx, done)
    moves.sort(key=lambda m: _greedy_move_score(ctx, key_counts, m),
               reverse=True)
    stats.children_generated += len(moves)

    for key, picks in moves:
        opclass = key[0]
        slot_cost = ctx.model.slot_cost(opclass)
        slots.append(Slot(opclass, picks))
        new_done = list(done)
        for t, i in picks.items():
            new_done[t] = done[t] | {i}
            key_counts[key][t] -= 1
        _dfs(ctx, new_done, key_counts, cost + slot_cost, slots, remaining - len(picks))
        for t in picks:
            key_counts[key][t] += 1
        slots.pop()
        if stats.budget_exhausted or ctx.proved:
            return


def legacy_search(
    prepared: PreparedRegion,
    config: "SearchConfig",
    stats: "SearchStats",
    best_slots: list[Slot],
    should_stop: Callable[[], bool] | None = None,
) -> list[Slot]:
    """Run the reference engine; returns the best slot list found.

    The search stops at the incumbent update that meets the root bound
    (that leaf is optimal), at the same point as the bitmask engine.
    """
    region, model = prepared.region, prepared.model
    ctx = _SearchCtx(region=region, model=model, dags=prepared.dags,
                     crit=prepared.crit, config=config, stats=stats,
                     best_slots=best_slots, should_stop=should_stop)
    key_counts: dict[tuple, list[int]] = {}
    for t, tc in enumerate(region.threads):
        for op in tc.ops:
            key = model.merge_key(op)
            key_counts.setdefault(key, [0] * region.num_threads)[t] += 1
    done = [frozenset() for _ in region.threads]
    ctx.root_bound = _lower_bound(ctx, done, key_counts)
    _dfs(ctx, done, key_counts, 0.0, [], region.num_ops)
    return ctx.best_slots
