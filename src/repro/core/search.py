"""The CSI scheduler: heavily pruned branch-and-bound search.

Following the paper's outline ("operations from various threads are
classified based on how they could be merged into single instructions
executed by multiple threads, followed by a heavily pruned search to find
the minimum execution time code schedule using these merges"):

1. operations are bucketed by *merge key* (classification / itemization);
2. a depth-first branch-and-bound explores sequences of slots; at each node
   the candidate moves are, for each merge key with ready operations, the
   slot induced over the threads that have one ready.  Under the class
   bound a node tries its *bound-neutral* moves first — those taking an op
   from every thread that holds the most remaining ops of their key, so
   ``cost + class bound`` stays put — and then the rest by greedy payoff.
   On interpreter handler sets, whose root bound is the optimum, that
   order dives straight to it: one expanded node per slot;
3. pruning:

   - **incumbent bound** — a node is cut when ``cost + lower_bound``
     reaches the best complete schedule found so far.  Two admissible lower
     bounds are combined: the *critical-path bound* (max over threads of the
     cost-weighted longest remaining dependence path) and the *class-count
     bound* (ops of equal key in the same thread can never merge, so each
     key needs at least ``max_t remaining_t(key)`` slots).  The class
     bound dominates the critical-path one: slot cost depends only on the
     merge key's class and one thread's ops take distinct slots, so
     ``cp_t <= sum of t's remaining slot costs <= sum_k cost_k * max_t
     cnt(t, k)``.  The engine therefore maintains the critical-path bound
     only when the class bound is off (the E3 ablation);
   - **bound-met stop** — the root's bound under the enabled bound knobs
     (``PreparedRegion.lower_bound`` with both on) holds for every
     schedule, so a leaf that costs no more is optimal: both engines stop
     at the incumbent update that reaches it, with ``optimal`` set and
     nothing more expanded.  A greedy seed already at the bound prunes
     the root (1 node); with both bound knobs off the bound is 0 and
     nothing stops;
   - **dominance memoization** — the scheduler state is exactly the set of
     completed ops per thread; reaching a previously seen state at equal or
     higher cost is cut;
   - **maximal-merge restriction** (on by default, like the paper's
     pruning) — only the widest slot per merge key is tried.  This keeps
     the branching factor at the number of distinct ready keys; disabling it
     (``maximal_merges_only=False``) restores exhaustive subset enumeration
     for small inputs, which the tests use to measure the heuristic's gap;

4. the greedy list schedule seeds the incumbent, making the search an
   anytime algorithm: with a node budget it degrades gracefully toward the
   greedy result instead of failing.  The seed is not checked here; the
   request drivers verify the schedule the search returns, which is enough
   (see :func:`branch_and_bound`).

One engine runs the search:
:func:`repro.core.engines.bitmask.bitmask_search`, incremental int-bitmask
state over an explicit stack, where the per-node cost is a handful of int
ops.  :func:`repro.core.engines.legacy.legacy_search`, the original
frozenset/dict implementation, is kept only as the *reference oracle*:
the fuzzer, the equivalence suite and E16 pass it through
``branch_and_bound(..., search_fn=legacy_search)`` and require the same
schedule, cost and every :class:`SearchStats` counter, bit for bit.
Parity is exact whenever slot costs are exactly representable floats;
the bitmask engine's running class-count bound can differ from the
legacy fresh summation by float-rounding ulps otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.core.costmodel import CostModel
from repro.core.engines import bitmask_search
from repro.core.greedy import greedy_schedule
from repro.core.ops import Region
from repro.core.prepared import PreparedRegion
from repro.core.schedule import Schedule, Slot

__all__ = ["SearchConfig", "SearchStats", "branch_and_bound"]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`branch_and_bound` (defaults follow the paper)."""

    node_budget: int = 200_000
    maximal_merges_only: bool = True
    branch_thread_choices: bool = False
    respect_order: bool = False
    use_cp_bound: bool = True
    use_class_bound: bool = True
    use_memo: bool = True
    seed_with_greedy: bool = True

    def __post_init__(self) -> None:
        # Written so NaN fails too: no node count reaches a NaN budget, so
        # it would never bind.  Infinity is an explicit unbounded search.
        if not self.node_budget >= 1:
            raise ValueError(f"node budget must be positive, got {self.node_budget}")


@dataclass
class SearchStats:
    """Counters describing one search run."""

    nodes_expanded: int = 0
    children_generated: int = 0
    pruned_by_bound: int = 0
    pruned_by_memo: int = 0
    best_cost: float = float("inf")
    incumbent_updates: int = 0
    optimal: bool = False
    budget_exhausted: bool = False
    wall_s: float = 0.0
    #: Filled by the pipeline when the value-numbering pre-pass ran: ops
    #: whose semantic fingerprint collides across threads, and rewrites
    #: actually applied.  Defaulted so cached/wire stats from pre-vn runs
    #: reconstruct unchanged.
    vn_merged_candidates: int = 0
    vn_rewrites: int = 0
    #: Set by the request driver when its deadline stopped the search:
    #: the schedule is the incumbent at that instant.  ``deadline_s`` is
    #: not in the fingerprint, so no cache tier stores such a result.
    #: Defaulted so stats from before the field reconstruct unchanged.
    deadline_cut: bool = False

    @property
    def nodes_per_second(self) -> float:
        """Search throughput; 0.0 when the wall time was not recorded."""
        return self.nodes_expanded / self.wall_s if self.wall_s > 0 else 0.0


def branch_and_bound(
    region: Region,
    model: CostModel,
    config: SearchConfig | None = None,
    prepared: PreparedRegion | None = None,
    should_stop: Callable[[], bool] | None = None,
    *,
    search_fn: Callable[..., list[Slot]] = bitmask_search,
) -> tuple[Schedule, SearchStats]:
    """Run the CSI search; returns the best schedule found and statistics.

    ``stats.optimal`` is true when the search ran to completion within its
    node budget *and* no completeness-losing restriction could have hidden a
    better schedule (i.e. the proof is exact for the configured move set;
    with ``maximal_merges_only`` the claim is relative to maximal merges,
    which the test-suite cross-checks against exhaustive mode on small
    regions).  A search that stops at a leaf meeting the root bound has
    that proof too: no schedule costs less than the bound.

    ``prepared`` (:class:`~repro.core.prepared.PreparedRegion`) is built
    here with ``config.respect_order`` when the caller passes none.

    ``search_fn`` is the engine the node loop runs in.  Production code
    never passes it; the fuzzer, the equivalence suite and the E16
    benchmark pass :func:`~repro.core.engines.legacy.legacy_search`, the
    reference oracle, so both engines share this one driver: the prepared
    region, the greedy seed and the final checks.

    The returned schedule is **not** verified here: the request driver
    (:func:`repro.core.pipeline.run_induction`) checks it once.  That
    covers the greedy seed too, whose cost gates the pruning: an
    invalid seed of cost ``C`` prunes only nodes whose cost plus bound is
    ``>= C``.  If the search returns the seed, the caller's check raises
    :class:`~repro.core.verify.ScheduleError`; if it returns something
    cheaper, that schedule is checked, and no path cheaper than ``C`` was
    cut.

    ``should_stop`` (optional, polled at the root and every 256 expanded
    nodes) requests a cooperative early exit: the search returns its
    incumbent best-so-far with ``budget_exhausted=True``, exactly like
    running out of node budget.  The request driver passes one that
    answers true at the request's deadline, and marks the stats
    ``deadline_cut``.
    """
    t_start = perf_counter()
    config = config or SearchConfig()
    if prepared is None:
        prepared = PreparedRegion.build(region, model, config.respect_order)
    stats = SearchStats()

    best_slots: list[Slot] = []
    if config.seed_with_greedy:
        incumbent = greedy_schedule(region, model, prepared=prepared)
        stats.best_cost = incumbent.cost(model)
        best_slots = list(incumbent.slots)

    best_slots = search_fn(prepared, config, stats, best_slots,
                           should_stop=should_stop)

    if not best_slots and region.num_ops:
        if not stats.budget_exhausted:
            raise RuntimeError("search produced no schedule (empty incumbent and no leaf reached)")
        # An unseeded search stopped before its first leaf (a deadline
        # already past at the root, say): greedy's schedule answers.
        incumbent = greedy_schedule(region, model, prepared=prepared)
        stats.best_cost = incumbent.cost(model)
        best_slots = list(incumbent.slots)
    stats.optimal = not stats.budget_exhausted
    stats.wall_s = perf_counter() - t_start
    return Schedule(tuple(best_slots)), stats
