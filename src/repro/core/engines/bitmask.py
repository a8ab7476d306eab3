"""Bitmask engine — the incremental-state hot path (the production engine).

Semantically identical to :func:`repro.core.engines.legacy.legacy_search`
node for node — same exploration order, same pruning decisions, same
counters — but the per-node work is integer arithmetic over preallocated
state.  See :func:`bitmask_search` for the layout.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.core.dag import ReadyIndex
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Slot

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from repro.core.search import SearchConfig, SearchStats

__all__ = ["bitmask_search"]

_MOVE_ORDER_KEY = itemgetter(0, 1, 2, 3)   # (neutral, saved, longest, width)


def bitmask_search(
    prepared: PreparedRegion,
    config: "SearchConfig",
    stats: "SearchStats",
    best_slots: list[Slot],
    should_stop: Callable[[], bool] | None = None,
) -> list[Slot]:
    """Run the bitmask engine; returns the best slot list found.

    Semantically identical to the legacy engine node for node — same
    exploration order, same pruning decisions, same counters — but the
    per-node work is integer arithmetic over preallocated state:

    - ``done`` per thread is an int bitmask; readiness of op ``i`` is
      ``pred_masks[i] & done == pred_masks[i]``;
    - the ready index (ready ops per merge key per thread) is maintained
      incrementally on apply/undo instead of rescanned, with undo tokens
      recording newly-ready ops as one int mask per completed op;
    - the class-count bound is one running float adjusted by the single
      key a move touches;
    - the critical-path bound is maintained only when the class bound is
      off, because the class bound dominates it (see
      :mod:`repro.core.search`).  It tracks one running max per thread,
      recomputed only when the completed op *was* that thread's max (a
      scan over ops sorted by remaining path, skipping done bits);
    - the dominance memo keys on the tuple of int masks;
    - recursion is an explicit stack over preallocated parallel arrays;
    - an incumbent update keeps only the path of moves to its leaf; the
      returned slots are built from the best path once, at exit.

    The search stops at the incumbent update that meets the root bound
    (that leaf is optimal) and at a ``should_stop`` poll that answers
    true: at the root, like the legacy engine's node 0, and every 256
    expanded nodes.

    The node loop is deliberately flat and monolithic: at several hundred
    thousand nodes per second every function call, closure-cell access and
    attribute load is measurable, so the enter/apply/undo steps are inlined
    rather than factored, mirroring the legacy ``_dfs`` control flow.
    """
    region = prepared.region
    crit = prepared.crit
    table = prepared.table
    num_threads = region.num_threads
    total_ops = region.num_ops
    num_keys = len(table)
    index = ReadyIndex(prepared)
    orders = prepared.pick_orders()

    # True locals for everything the per-node loop touches.
    ready = index.ready
    ready_count = index.ready_count
    done = index.done
    key_of = index.key_of
    pred_masks = index.pred_masks
    succs = index.succs
    slot_costs = table.slot_costs
    opclasses = table.opclasses
    thread_ids = tuple(range(num_threads))
    key_ids = tuple(range(num_keys))

    maximal = config.maximal_merges_only
    branch_choices = config.branch_thread_choices
    use_class = config.use_class_bound
    # The class bound dominates the critical-path bound, so per-node cp
    # upkeep only pays when the class bound is off.
    use_cp = config.use_cp_bound and not use_class
    use_memo = config.use_memo
    node_budget = config.node_budget
    fast_moves = maximal and not branch_choices

    # Remaining-ops-per-(key, thread) counts and the running class bound.
    counts: list[list[int]] = [list(row) for row in prepared.class_counts]
    contrib = [0.0] * num_keys
    class_bound = 0.0
    for kid in key_ids:
        m = max(counts[kid])
        if m:
            contrib[kid] = m * slot_costs[kid]
            class_bound += contrib[kid]

    # Running per-thread critical-path max + the scan order for refreshes.
    crit_sorted: tuple[tuple[int, ...], ...] = ()
    thread_max: list[float] = []
    if use_cp:
        crit_sorted = tuple(
            tuple(sorted(range(len(crit[t])), key=lambda i: -crit[t][i]))
            for t in thread_ids)
        thread_max = [max(crit[t], default=0.0) for t in thread_ids]

    memo: dict[tuple[int, ...], float] = {}

    nodes_expanded = 0
    children_generated = 0
    pruned_by_bound = 0
    pruned_by_memo = 0
    incumbent_updates = 0
    best_cost = stats.best_cost
    budget_exhausted = False

    def gen_moves(
        # Default-argument binding turns every free variable into a true
        # local of the call — this runs once per expanded node.
        key_ids=key_ids, thread_ids=thread_ids, num_threads=num_threads,
        ready=ready, ready_count=ready_count, orders=orders, crit=crit,
        counts=counts, slot_costs=slot_costs, fast=fast_moves,
        maximal=maximal, branch_choices=branch_choices, use_class=use_class,
        move_order=_MOVE_ORDER_KEY,
        product=itertools.product, combinations=itertools.combinations,
    ) -> list:
        """Candidate moves from the current ready index, sorted like the
        legacy engine: canonical key order, then stable-sorted descending
        by (bound-neutral, time saved, longest critical path, width).

        A move is bound-neutral when it takes an op from every thread
        holding the most remaining ops of its key: the key's class-bound
        term falls by the slot the move pays for, so the child keeps the
        node's ``cost + class bound``.  Trying those moves first lets a
        search whose root bound is tight dive straight to a leaf that
        meets it.  The flag is computed only under the class bound;
        without it every move is non-neutral and the payoff order stands
        alone.

        Moves are ``(neutral, saved, longest, width, -kid, picks)``.  The
        negated key id lets the fast path sort with the default tuple
        comparison (no key function, no per-move key tuples):
        ``reverse=True`` on ``-kid`` means ties on the score resolve to
        ascending key id, which is exactly the legacy stable generation
        order, and the fast path has one move per key so ``picks`` is
        never compared."""
        moves: list[tuple[bool, float, float, int, int,
                          list[tuple[int, int]]]] = []
        append = moves.append
        for kid in key_ids:
            if not ready_count[kid]:
                continue
            base = kid * num_threads
            slot_cost = slot_costs[kid]
            neutral = use_class
            if neutral:
                cnt = counts[kid]
                top = max(cnt)
            if fast:
                # Fast path: exactly one (widest) move per ready key.
                picks: list[tuple[int, int]] = []
                pick = picks.append
                longest = 0.0
                for t in thread_ids:
                    bits = ready[base + t]
                    if not bits:
                        if neutral and cnt[t] == top:
                            neutral = False
                        continue
                    for i in orders[base + t]:
                        if (bits >> i) & 1:
                            break
                    pick((t, i))
                    c = crit[t][i]
                    if c > longest:
                        longest = c
                width = len(picks)
                append((neutral, (width - 1) * slot_cost, longest, width,
                        -kid, picks))
                continue
            # General path (exhaustive subset / all-choices ablations):
            # mirrors the legacy generator including its enumeration order.
            choices: dict[int, list[int]] = {}
            for t in thread_ids:
                bits = ready[base + t]
                if not bits:
                    continue
                if branch_choices:
                    idxs = []
                    while bits:
                        low = bits & -bits
                        idxs.append(low.bit_length() - 1)
                        bits ^= low
                    choices[t] = idxs          # ascending op index
                else:
                    for i in orders[base + t]:
                        if (bits >> i) & 1:
                            choices[t] = [i]
                            break
            tids = tuple(choices)              # built in ascending t order
            if maximal:
                subsets: list[tuple[int, ...]] = [tids]
            else:
                subsets = [
                    subset
                    for r in range(len(tids), 0, -1)
                    for subset in combinations(tids, r)
                ]
            tops = ([t for t in thread_ids if cnt[t] == top]
                    if neutral else ())
            for subset in subsets:
                neutral = use_class and all(t in subset for t in tops)
                for combo in product(*(choices[t] for t in subset)):
                    picks_t = list(zip(subset, combo))
                    longest = max(crit[t][i] for t, i in picks_t)
                    width = len(picks_t)
                    append((neutral, (width - 1) * slot_cost, longest,
                            width, -kid, picks_t))
        if len(moves) > 1:
            if fast:
                moves.sort(reverse=True)
            else:
                # Several moves can share a key here; keep the explicit
                # stable sort on the score so generation order is the
                # tie-break, exactly like the legacy engine.
                moves.sort(key=move_order, reverse=True)
        return moves

    # Explicit stack over parallel preallocated arrays; depth never exceeds
    # the op count (every move completes at least one op).  ``st_applied[d]``
    # holds the undo tokens of the move currently applied at depth ``d``
    # (empty means none), so both backtrack sites — child explored and
    # child leaf/pruned — reduce to the same "undo at loop top" step.
    cap = total_ops + 1
    st_moves: list = [None] * cap
    st_len = [0] * cap
    st_idx = [0] * cap
    st_cost = [0.0] * cap
    st_remaining = [0] * cap
    st_kid = [0] * cap
    st_applied: list[list] = [[] for _ in range(cap)]
    st_old_contrib = [0.0] * cap
    st_old_class_bound = [0.0] * cap

    # The applied moves of the best leaf found, root first; the slots are
    # built from it once, at exit.  None: the caller's incumbent stands.
    best_path: list | None = None

    # -- root node (mirrors one legacy _dfs() prologue; remaining > 0 and
    # budget >= 1 hold whenever total_ops > 0, so only the stop poll,
    # bound and memo apply).
    depth = -1
    if total_ops == 0:
        if 0.0 < best_cost:
            best_cost = 0.0
            incumbent_updates += 1
            best_path = []
    elif should_stop is not None and should_stop():
        # Polled at node 0, like the legacy engine.
        budget_exhausted = True
    else:
        nodes_expanded = 1
        bound = 0.0
        if use_cp:
            bound = max(thread_max)
        if use_class and class_bound > bound:
            bound = class_bound
        # A leaf that costs no more than the root bound is optimal, so the
        # search stops at it.  With both bound knobs off the bound is 0.0,
        # which no leaf meets (every slot costs more than 0).
        root_bound = bound
        if bound >= best_cost:
            pruned_by_bound += 1
        else:
            if use_memo:
                memo[tuple(done)] = 0.0
            moves = gen_moves()
            children_generated = len(moves)
            st_moves[0] = moves
            st_len[0] = len(moves)
            st_remaining[0] = total_ops
            depth = 0

    while depth >= 0:
        applied = st_applied[depth]
        if applied:
            # Undo the move currently applied at this depth (we are back
            # from its subtree, or the child was a leaf / pruned / budget).
            kid = st_kid[depth]
            cnt = counts[kid]
            base = kid * num_threads
            for t, i, newly_mask, old_tmax in applied:
                ko = key_of[t]
                while newly_mask:
                    low = newly_mask & -newly_mask
                    newly_mask ^= low
                    k2 = ko[low.bit_length() - 1]
                    ready[k2 * num_threads + t] &= ~low
                    ready_count[k2] -= 1
                done[t] &= ~(1 << i)
                ready[base + t] |= 1 << i
                ready_count[kid] += 1
                cnt[t] += 1
                if use_cp:
                    thread_max[t] = old_tmax
            applied.clear()
            if use_class:
                contrib[kid] = st_old_contrib[depth]
                class_bound = st_old_class_bound[depth]

        idx = st_idx[depth]
        if budget_exhausted or idx == st_len[depth]:
            depth -= 1
            continue
        st_idx[depth] = idx + 1
        _neutral, _saved, _longest, width, kid, picks = st_moves[depth][idx]
        kid = -kid

        # -- apply the move to the shared incremental state ----------------
        cnt = counts[kid]
        base = kid * num_threads
        for t, i in picks:
            bit = 1 << i
            done[t] |= bit
            done_t = done[t]
            ready[base + t] &= ~bit
            ready_count[kid] -= 1
            newly_mask = 0
            pm = pred_masks[t]
            ko = key_of[t]
            for s in succs[t][i]:
                mask = pm[s]
                if mask & done_t == mask:
                    k2 = ko[s]
                    ready[k2 * num_threads + t] |= 1 << s
                    ready_count[k2] += 1
                    newly_mask |= 1 << s
            cnt[t] -= 1
            old_tmax = 0.0
            if use_cp:
                old_tmax = thread_max[t]
                if crit[t][i] >= old_tmax:
                    # The completed op was (one of) the thread's critical
                    # max; rescan in descending-crit order for the first
                    # op still pending.
                    new_tmax = 0.0
                    crit_t = crit[t]
                    for j in crit_sorted[t]:
                        if not (done_t >> j) & 1:
                            new_tmax = crit_t[j]
                            break
                    thread_max[t] = new_tmax
            applied.append((t, i, newly_mask, old_tmax))
        st_kid[depth] = kid
        if use_class:
            st_old_contrib[depth] = contrib[kid]
            st_old_class_bound[depth] = class_bound
            m = max(cnt)
            new_contrib = m * slot_costs[kid] if m else 0.0
            class_bound += new_contrib - contrib[kid]
            contrib[kid] = new_contrib

        # -- enter the child (mirrors the legacy _dfs() prologue) ----------
        child_cost = st_cost[depth] + slot_costs[kid]
        child_remaining = st_remaining[depth] - width
        if child_remaining == 0:
            if child_cost < best_cost:
                best_cost = child_cost
                incumbent_updates += 1
                # The applied moves are exactly moves[idx-1] at each depth.
                best_path = [st_moves[d][st_idx[d] - 1]
                             for d in range(depth + 1)]
                if child_cost <= root_bound:
                    break
            continue
        if nodes_expanded >= node_budget:
            budget_exhausted = True
            continue
        # Same cooperative-cancellation poll cadence as the legacy engine.
        if (should_stop is not None and not (nodes_expanded & 255)
                and should_stop()):
            budget_exhausted = True
            continue
        nodes_expanded += 1

        bound = 0.0
        if use_cp:
            bound = max(thread_max)
        if use_class and class_bound > bound:
            bound = class_bound
        if child_cost + bound >= best_cost:
            pruned_by_bound += 1
            continue

        if use_memo:
            state = tuple(done)
            prev = memo.get(state)
            if prev is not None and prev <= child_cost:
                pruned_by_memo += 1
                continue
            memo[state] = child_cost

        moves = gen_moves()
        children_generated += len(moves)
        depth += 1
        st_moves[depth] = moves
        st_len[depth] = len(moves)
        st_idx[depth] = 0
        st_cost[depth] = child_cost
        st_remaining[depth] = child_remaining

    stats.nodes_expanded = nodes_expanded
    stats.children_generated = children_generated
    stats.pruned_by_bound = pruned_by_bound
    stats.pruned_by_memo = pruned_by_memo
    stats.incumbent_updates = incumbent_updates
    stats.best_cost = best_cost
    stats.budget_exhausted = budget_exhausted
    if best_path is None:
        return best_slots
    return [Slot._adopt(opclasses[-kid], dict(picks))
            for *_score, kid, picks in best_path]
