"""Tests for parallel, cached, traced windowed induction."""

import pytest

from repro import api
from repro.core import (
    ScheduleCache,
    maspar_cost_model,
    uniform_cost_model,
    verify_schedule,
)
from repro.core.search import SearchConfig
from repro.obs import MemoryTracer
from repro.workloads import RandomRegionSpec, random_region

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)


def big_region(seed=0, threads=6, length=40):
    return random_region(
        RandomRegionSpec(num_threads=threads, min_len=length, max_len=length,
                         vocab_size=10, overlap=0.6, private_vocab=False),
        seed=seed)


class TestParallelEquivalence:
    def test_parallel_schedule_identical_to_serial(self):
        # Acceptance criterion: jobs>1 must produce a schedule identical in
        # cost (here: identical outright) to the serial path, with
        # per-window stats preserved.
        region = big_region()
        cfg = SearchConfig(node_budget=3_000)
        serial = api.induce(api.InductionRequest(
            region, UNIT, window=6, config=cfg))
        parallel = api.induce(api.InductionRequest(
            region, UNIT, window=6, config=cfg, jobs=4))
        assert parallel.schedule == serial.schedule
        assert parallel.schedule.cost(UNIT) == serial.schedule.cost(UNIT)
        assert parallel.num_windows == serial.num_windows
        assert len(parallel.stats) == parallel.num_windows
        assert [s.nodes_expanded for s in parallel.stats] == \
            [s.nodes_expanded for s in serial.stats]
        verify_schedule(parallel.schedule, region, UNIT)

    def test_parallel_used_when_work_is_large_enough(self, monkeypatch):
        # Force the adaptive gates open (single-CPU CI boxes and fast
        # searches would otherwise — correctly — stay serial) to check the
        # fan-out path itself: first window timed serially, pool on the rest.
        from repro.core import window as window_mod
        monkeypatch.setattr(window_mod, "_MIN_PARALLEL_CPUS", 1)
        monkeypatch.setattr(window_mod, "_PARALLEL_MIN_EST_S", 0.0)
        region = big_region(threads=8, length=48)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=8, config=SearchConfig(node_budget=2_000),
            jobs=3))
        assert result.jobs_used == 3

    def test_small_input_falls_back_to_serial(self):
        region = big_region(threads=2, length=4)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=2, config=SearchConfig(node_budget=2_000),
            jobs=4))
        assert result.jobs_used == 1          # below the parallel threshold
        verify_schedule(result.schedule, region, UNIT)

    def test_cheap_windows_stay_serial_despite_structural_size(self, monkeypatch):
        # Structurally big enough for the pool, but the first window's
        # measured search time prices the remainder below the pool's
        # startup cost — the adaptive gate must keep the serial loop.
        # The startup cost is pinned far above any host's estimate (the
        # sibling test pins it to 0.0 to force the pool), so the premise
        # does not hang on how fast this host searches a window.
        from repro.core import window as window_mod
        monkeypatch.setattr(window_mod, "_MIN_PARALLEL_CPUS", 1)
        monkeypatch.setattr(window_mod, "_PARALLEL_MIN_EST_S", 3600.0)
        region = big_region(threads=8, length=48)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=8, config=SearchConfig(node_budget=2_000),
            jobs=3))
        assert result.jobs_used == 1
        verify_schedule(result.schedule, region, UNIT)

    def test_jobs_zero_means_all_cores(self):
        region = big_region(threads=4, length=24)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=6, config=SearchConfig(node_budget=2_000),
            jobs=0))
        assert result.jobs_used >= 1
        verify_schedule(result.schedule, region, UNIT)

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            api.induce(api.InductionRequest(
                big_region(), UNIT, jobs=-1, window=8))


class TestWindowedCache:
    def test_second_run_hits_every_window(self):
        cache = ScheduleCache()
        region = big_region(seed=2)
        cfg = SearchConfig(node_budget=2_000)
        cold = api.induce(api.InductionRequest(
            region, UNIT, window=5, config=cfg, cache=cache))
        warm = api.induce(api.InductionRequest(
            region, UNIT, window=5, config=cfg, cache=cache))
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.num_windows
        assert warm.schedule == cold.schedule
        assert [s.nodes_expanded for s in warm.stats] == \
            [s.nodes_expanded for s in cold.stats]

    def test_repeated_windows_hit_within_one_run(self):
        # Identical thread code repeated along the region: every window
        # after the first is a cache hit even on the cold run.
        from repro.core.ops import Region, ThreadCode, Operation
        block = [("ld", (), ("v",)), ("add", ("v",), ("w",)), ("st", ("w",), ())]
        seqs = [[spec for _ in range(4) for spec in block] for _ in range(3)]
        region = Region.from_sequences(seqs)
        cache = ScheduleCache()
        result = api.induce(api.InductionRequest(
            region, UNIT, window=3, config=SearchConfig(node_budget=2_000),
            cache=cache))
        assert result.num_windows == 4
        assert result.cache_hits == 3
        verify_schedule(result.schedule, region, UNIT)

    def test_parallel_with_cache_matches_serial_without(self):
        cache = ScheduleCache()
        region = big_region(seed=5)
        cfg = SearchConfig(node_budget=2_000)
        plain = api.induce(api.InductionRequest(
            region, UNIT, window=6, config=cfg))
        cached = api.induce(api.InductionRequest(
            region, UNIT, window=6, config=cfg, jobs=4, cache=cache))
        again = api.induce(api.InductionRequest(
            region, UNIT, window=6, config=cfg, jobs=4, cache=cache))
        assert cached.schedule == plain.schedule
        assert again.schedule == plain.schedule
        assert again.cache_hits == again.num_windows


class TestBudgetExhaustion:
    def test_all_optimal_false_when_any_window_exhausts(self):
        region = big_region(seed=3, threads=6, length=24)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=12, config=SearchConfig(node_budget=30)))
        assert any(s.budget_exhausted for s in result.stats)
        assert not result.all_optimal
        verify_schedule(result.schedule, region, UNIT)

    def test_all_optimal_true_when_no_window_exhausts(self):
        region = big_region(seed=0, threads=3, length=8)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=2, config=SearchConfig(node_budget=100_000)))
        assert result.all_optimal
        assert not any(s.budget_exhausted for s in result.stats)


class TestWindowTracing:
    def test_one_event_per_window_plus_aggregate(self):
        tracer = MemoryTracer()
        region = big_region(seed=1, threads=4, length=20)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=5, config=SearchConfig(node_budget=2_000),
            tracer=tracer))
        window_events = tracer.of_kind("window")
        assert len(window_events) == result.num_windows
        assert [e["index"] for e in window_events] == list(range(result.num_windows))
        assert all(e["cache"] == "off" for e in window_events)
        (aggregate,) = tracer.of_kind("windowed")
        assert aggregate["windows"] == result.num_windows
        assert aggregate["nodes"] == result.total_nodes
        assert aggregate["cost"] == pytest.approx(result.schedule.cost(UNIT))

    def test_cache_disposition_in_events(self):
        tracer = MemoryTracer()
        cache = ScheduleCache()
        region = big_region(seed=1, threads=4, length=10)
        cfg = SearchConfig(node_budget=2_000)
        api.induce(api.InductionRequest(
            region, maspar_cost_model(), window=5, config=cfg, cache=cache,
            tracer=tracer))
        api.induce(api.InductionRequest(
            region, maspar_cost_model(), window=5, config=cfg, cache=cache,
            tracer=tracer))
        dispositions = [e["cache"] for e in tracer.of_kind("window")]
        assert dispositions == ["miss", "miss", "hit", "hit"]
