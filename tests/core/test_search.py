"""Tests for the branch-and-bound CSI search."""

import pytest

from repro.core.costmodel import CostModel, uniform_cost_model
from repro.core.engines import bitmask_search, legacy_search
from repro.core.greedy import greedy_schedule
from repro.core.ops import parse_region
from repro.core.search import SearchConfig, branch_and_bound
from repro.core.serial import serial_schedule
from repro.core.verify import ScheduleError, verify_schedule
from repro.workloads import RandomRegionSpec, random_region

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)


def exact_config(**kw):
    """Fully exhaustive configuration (no completeness-losing pruning)."""
    defaults = dict(maximal_merges_only=False, branch_thread_choices=True,
                    node_budget=2_000_000)
    defaults.update(kw)
    return SearchConfig(**defaults)


class TestBasics:
    def test_identical_threads_cost_one_thread(self):
        region = parse_region("""
        thread 0:
            a = ld x
            b = add a a
            st y b
        thread 1:
            c = ld x
            d = add c c
            st y d
        thread 2:
            e = ld x
            f = add e e
            st y f
        """)
        sched, stats = branch_and_bound(region, UNIT)
        verify_schedule(sched, region, UNIT)
        assert sched.cost(UNIT) == 3.0
        assert stats.optimal

    def test_disjoint_threads_cost_sum(self):
        region = parse_region("""
        thread 0:
            a = aa x
            b = bb x
        thread 1:
            c = cc x
            d = dd x
        """)
        sched, stats = branch_and_bound(region, UNIT)
        assert sched.cost(UNIT) == 4.0

    def test_single_thread(self):
        region = parse_region("thread 0:\n  a = ld x\n  b = add a a")
        sched, _ = branch_and_bound(region, UNIT)
        assert sched.cost(UNIT) == 2.0

    def test_empty_region(self):
        region = parse_region("thread 0:\n")
        sched, stats = branch_and_bound(region, UNIT)
        assert len(sched) == 0 and stats.best_cost == 0.0

    def test_search_beats_lockstep_on_shifted_code(self):
        # The classic case: same code, off by one op; alignment needs reorder.
        region = parse_region("""
        thread 0:
            a = ld x
            b = mul a a
            c = add b b
        thread 1:
            d = mul y y
            e = add d d
            f = ld z
        """)
        sched, stats = branch_and_bound(region, UNIT)
        verify_schedule(sched, region, UNIT)
        assert sched.cost(UNIT) == 3.0  # ld, mul, add each merged
        assert stats.optimal


class TestOptimality:
    def test_never_worse_than_greedy(self):
        for seed in range(10):
            region = random_region(
                RandomRegionSpec(num_threads=4, min_len=4, max_len=8, overlap=0.5),
                seed=seed)
            sched, _ = branch_and_bound(region, UNIT)
            assert sched.cost(UNIT) <= greedy_schedule(region, UNIT).cost(UNIT) + 1e-9

    def test_maximal_merge_matches_exhaustive_on_small_regions(self):
        # The paper's pruning keeps only maximal merges; on small random
        # regions we check it against the fully exhaustive search.
        mismatches = 0
        for seed in range(8):
            region = random_region(
                RandomRegionSpec(num_threads=3, min_len=3, max_len=5, overlap=0.6),
                seed=seed)
            pruned, _ = branch_and_bound(region, UNIT)
            exact, stats = branch_and_bound(region, UNIT, exact_config())
            assert stats.optimal
            verify_schedule(exact, region, UNIT)
            assert pruned.cost(UNIT) >= exact.cost(UNIT) - 1e-9
            if pruned.cost(UNIT) > exact.cost(UNIT) + 1e-9:
                mismatches += 1
        # maximal-merge is a heuristic; allow rare gaps but not systematic ones.
        assert mismatches <= 2

    def test_weighted_costs_drive_choices(self):
        # With expensive mul, the optimum merges muls even at the price of
        # extra cheap slots.
        model = CostModel(class_cost={"mul": 20.0, "ld": 1.0}, mask_overhead=0.0)
        region = parse_region("""
        thread 0:
            a = ld p
            b = mul a a
        thread 1:
            c = mul q q
            d = ld c
        """)
        sched, _ = branch_and_bound(region, model, exact_config())
        verify_schedule(sched, region, model)
        assert sched.cost(model) == 22.0  # merged mul + two lds


class TestPruningAndBudget:
    def test_node_budget_respected_and_anytime(self):
        # 50 nodes do not prove this region: the search returns a leaf
        # cheaper than greedy's seed without reaching the root bound.
        region = random_region(
            RandomRegionSpec(num_threads=6, min_len=10, max_len=14, overlap=0.5),
            seed=0)
        sched, stats = branch_and_bound(region, UNIT, SearchConfig(node_budget=50))
        verify_schedule(sched, region, UNIT)
        assert stats.budget_exhausted and not stats.optimal
        # Anytime: at least as good as the greedy seed.
        assert sched.cost(UNIT) <= greedy_schedule(region, UNIT).cost(UNIT) + 1e-9

    @pytest.mark.parametrize("disabled", ["cp", "class", "memo"])
    def test_each_pruning_rule_preserves_result(self, disabled):
        region = random_region(
            RandomRegionSpec(num_threads=3, min_len=4, max_len=6, overlap=0.5),
            seed=5)
        base, _ = branch_and_bound(region, UNIT)
        cfg = SearchConfig(
            use_cp_bound=disabled != "cp",
            use_class_bound=disabled != "class",
            use_memo=disabled != "memo",
        )
        alt, _ = branch_and_bound(region, UNIT, cfg)
        assert alt.cost(UNIT) == pytest.approx(base.cost(UNIT))

    def test_pruning_reduces_nodes(self):
        region = random_region(
            RandomRegionSpec(num_threads=4, min_len=5, max_len=7, overlap=0.6),
            seed=7)
        _, with_pruning = branch_and_bound(region, UNIT)
        cfg = SearchConfig(use_cp_bound=False, use_class_bound=False, use_memo=False,
                           node_budget=2_000_000)
        _, without = branch_and_bound(region, UNIT, cfg)
        assert with_pruning.nodes_expanded < without.nodes_expanded

    def test_without_greedy_seed_still_finds_solution(self):
        region = random_region(RandomRegionSpec(num_threads=3, min_len=3, max_len=5), seed=1)
        with_seed, _ = branch_and_bound(region, UNIT)
        without_seed, _ = branch_and_bound(
            region, UNIT, SearchConfig(seed_with_greedy=False))
        assert without_seed.cost(UNIT) == pytest.approx(with_seed.cost(UNIT))

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=0)

    def test_nan_budget_rejected(self):
        # No node count reaches NaN, so such a budget would never bind.
        with pytest.raises(ValueError, match="node budget must be positive"):
            SearchConfig(node_budget=float("nan"))

    @pytest.mark.parametrize("budget", [7, 7.0, True, float("inf")],
                             ids=["int", "float", "true", "inf"])
    def test_wire_budgets_accepted(self, budget):
        # The wire's golden frames pin 7, 7.0 and true; infinity is an
        # explicit unbounded search.
        assert SearchConfig(node_budget=budget).node_budget == budget


class TestDeterminism:
    def test_tiny_budget_returns_greedy_incumbent_not_optimal(self):
        # With a budget too small to improve anything, the search must
        # degrade to exactly the greedy seed and admit it is not optimal.
        region = random_region(
            RandomRegionSpec(num_threads=6, min_len=10, max_len=14, overlap=0.5),
            seed=2)
        sched, stats = branch_and_bound(region, UNIT, SearchConfig(node_budget=1))
        assert stats.budget_exhausted and not stats.optimal
        assert sched == greedy_schedule(region, UNIT)

    def test_move_order_canonical_for_float_merge_keys(self):
        from repro.core.costmodel import merge_key_sort_key
        # repr order would put ("add", 10.0) before ("add", 2.0); the
        # canonical order compares immediates numerically.
        keys = [("add", 10.0), ("add", 2), ("add", 2.5), ("add", None), ("ld",)]
        ordered = sorted(keys, key=merge_key_sort_key)
        assert ordered == [("ld",), ("add", None), ("add", 2), ("add", 2.5),
                           ("add", 10.0)]

    @pytest.mark.parametrize("budget", [25, 200_000])
    def test_permuted_equal_regions_search_identically(self, budget):
        # Regression: exploration order must not depend on dict-insertion
        # accidents, so a thread-permuted copy of a region explores an
        # isomorphic tree and lands on the same schedule — even when the
        # budget runs out mid-search.
        from repro.core.ops import Region, ThreadCode, Operation

        model = CostModel(class_cost={"add": 3.0, "mul": 24.0, "ld": 6.0},
                          require_equal_imm=True)
        base = random_region(
            RandomRegionSpec(num_threads=4, min_len=6, max_len=6,
                             vocab_size=4, overlap=0.5, private_vocab=False),
            seed=9)
        perm = [2, 0, 3, 1]
        permuted = Region(tuple(
            ThreadCode(t, tuple(
                Operation(t, op.index, op.opcode, op.reads, op.writes, op.imm)
                for op in base[perm[t]].ops))
            for t in range(base.num_threads)))

        cfg = SearchConfig(node_budget=budget)
        s1, st1 = branch_and_bound(base, model, cfg)
        s2, st2 = branch_and_bound(permuted, model, cfg)
        assert s1.cost(model) == pytest.approx(s2.cost(model))
        assert [slot.opclass for slot in s1] == [slot.opclass for slot in s2]
        assert st1.nodes_expanded == st2.nodes_expanded
        # The permuted schedule is the original one relabelled.
        relabel = {perm[t]: t for t in range(len(perm))}
        assert [{relabel[t]: i for t, i in slot.picks.items()} for slot in s1] \
            == [dict(slot.picks) for slot in s2]


class TestStats:
    def test_stats_populated(self):
        region = random_region(RandomRegionSpec(num_threads=3, min_len=4, max_len=6), seed=0)
        _, stats = branch_and_bound(region, UNIT)
        assert stats.nodes_expanded > 0
        assert stats.best_cost < float("inf")
        # Either the root was bound-pruned outright (greedy seed already
        # provably optimal) or children were generated.
        assert stats.children_generated > 0 or stats.pruned_by_bound > 0
        assert stats.wall_s > 0.0
        assert stats.nodes_per_second == stats.nodes_expanded / stats.wall_s

    def test_serial_upper_bound_always_holds(self):
        for seed in range(6):
            region = random_region(
                RandomRegionSpec(num_threads=4, min_len=4, max_len=8, overlap=0.3),
                seed=seed)
            sched, _ = branch_and_bound(region, UNIT)
            assert sched.cost(UNIT) <= serial_schedule(region, UNIT).cost(UNIT)


class TestGreedySeeding:
    """The greedy incumbent seeds branch-and-bound (the bitmask engine and
    the legacy oracle alike); the request drivers verify what it returns."""

    # The E3 benchmark fixture (benchmarks/bench_e16_search_engine.py).
    E3 = RandomRegionSpec(num_threads=3, min_len=8, max_len=8, vocab_size=8,
                          overlap=0.6, private_vocab=False)

    @pytest.mark.parametrize("search_fn", [bitmask_search, legacy_search],
                             ids=["bitmask", "legacy"])
    def test_seeding_never_increases_node_count(self, search_fn):
        region = random_region(self.E3, seed=42)
        budget = 50_000
        _, seeded = branch_and_bound(
            region, UNIT, SearchConfig(node_budget=budget),
            search_fn=search_fn)
        _, unseeded = branch_and_bound(
            region, UNIT,
            SearchConfig(node_budget=budget, seed_with_greedy=False),
            search_fn=search_fn)
        assert seeded.nodes_expanded <= unseeded.nodes_expanded
        assert seeded.best_cost == pytest.approx(unseeded.best_cost)

    def test_corrupt_greedy_seed_fails_loud(self, monkeypatch):
        """A buggy greedy incumbent would silently prune the optimum away.
        ``branch_and_bound`` returns its schedule unchecked; the request
        entry point verifies it once and must raise.  A seed cheaper than
        the optimum (only its first slot) cannot be beaten, so the search
        has to return it."""
        import repro.core.search as search_mod
        from repro import api
        from repro.core.schedule import Schedule

        region = random_region(self.E3, seed=42)
        corrupt = Schedule(greedy_schedule(region, UNIT).slots[:1])
        monkeypatch.setattr(search_mod, "greedy_schedule",
                            lambda *a, **kw: corrupt)
        sched, _ = branch_and_bound(region, UNIT)
        assert sched == corrupt
        with pytest.raises(ScheduleError):
            api.induce(api.InductionRequest(region=region, model=UNIT))


class TestBoundMetStop:
    """The search stops at the incumbent update whose cost meets the root
    bound ``max(cp, class)``: that leaf is optimal, so nothing after it
    could improve on it or prove more."""

    # Greedy costs 68 here; the optimum, 60, is the root bound.
    SPEC = RandomRegionSpec(num_threads=4, min_len=8, max_len=8, vocab_size=8,
                            overlap=0.5, private_vocab=False)

    @pytest.mark.parametrize("search_fn", [bitmask_search, legacy_search],
                             ids=["bitmask", "legacy"])
    def test_stops_at_the_update_that_meets_the_root_bound(self, search_fn):
        from dataclasses import replace

        from repro.core.costmodel import maspar_cost_model
        from repro.core.prepared import PreparedRegion

        region, model = random_region(self.SPEC, seed=3), maspar_cost_model()
        prepared = PreparedRegion.build(region, model)
        greedy_cost = greedy_schedule(region, model, prepared).cost(model)
        sched, stats = branch_and_bound(region, model, prepared=prepared,
                                        search_fn=search_fn)
        assert greedy_cost > prepared.lower_bound
        assert sched.cost(model) == stats.best_cost == prepared.lower_bound
        assert stats.optimal and not stats.budget_exhausted
        assert stats.incumbent_updates >= 1
        # It stopped at that update: one node less does not reach the
        # optimal leaf, and a budget of exactly the nodes it expanded is
        # never hit, since no node is tried after the leaf.
        _, short = branch_and_bound(
            region, model, SearchConfig(node_budget=stats.nodes_expanded - 1),
            search_fn=search_fn)
        assert short.budget_exhausted and short.best_cost > stats.best_cost
        _, capped = branch_and_bound(
            region, model, SearchConfig(node_budget=stats.nodes_expanded),
            search_fn=search_fn)
        assert replace(capped, wall_s=0.0) == replace(stats, wall_s=0.0)

    @pytest.mark.parametrize("search_fn", [bitmask_search, legacy_search],
                             ids=["bitmask", "legacy"])
    def test_a_seed_at_the_bound_prunes_the_root(self, search_fn):
        region = parse_region("""
        thread 0:
            a = ld x
            b = add a a
        thread 1:
            c = ld x
            d = add c c
        """)
        sched, stats = branch_and_bound(region, UNIT, search_fn=search_fn)
        assert sched == greedy_schedule(region, UNIT)
        assert (stats.nodes_expanded, stats.pruned_by_bound,
                stats.incumbent_updates) == (1, 1, 0)
        assert stats.optimal and not stats.budget_exhausted


class TestBoundNeutralOrder:
    """Under the class bound a node tries its bound-neutral moves first:
    a move that takes an op from every thread holding the most remaining
    ops of its key keeps the node's ``cost + class bound``.  Greedy payoff
    orders the rest (and all moves when the class bound is off; see
    ``CP_ONLY_NODES`` in test_engine_equivalence.py)."""

    # Payoff order takes the two-wide add first, as greedy does (cost 3);
    # the optimum, 2, issues thread 0's ld alone and then all three adds.
    TRAP = """
    thread 0:
        a = ld x
        b = add a a
    thread 1:
        c = add y y
    thread 2:
        d = add z z
    """

    @pytest.mark.parametrize("search_fn", [bitmask_search, legacy_search],
                             ids=["bitmask", "legacy"])
    def test_dives_where_payoff_order_backtracks(self, search_fn):
        from repro.core.prepared import PreparedRegion

        region = parse_region(self.TRAP)
        prepared = PreparedRegion.build(region, UNIT)
        assert greedy_schedule(region, UNIT, prepared).cost(UNIT) == 3.0
        # A budget of one node per optimal slot: payoff order spends its
        # second node on the pruned add and runs out before the leaf.
        sched, stats = branch_and_bound(region, UNIT,
                                        SearchConfig(node_budget=2),
                                        search_fn=search_fn)
        assert stats.optimal and not stats.budget_exhausted
        assert sched.cost(UNIT) == prepared.lower_bound == 2.0
        assert stats.nodes_expanded == len(sched) == 2
        assert stats.pruned_by_bound == 0
