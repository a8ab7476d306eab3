"""Tests for the content-addressed schedule cache."""

import dataclasses
import json
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core import (
    ScheduleCache,
    maspar_cost_model,
    region_fingerprint,
    schedule_from_payload,
    schedule_to_payload,
    uniform_cost_model,
    verify_schedule,
)
from repro.core.ops import Operation, Region, ThreadCode, parse_region
from repro.core.search import SearchConfig, branch_and_bound
from repro.workloads import RandomRegionSpec, random_region

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)

REGION = parse_region("""
thread 0:
    a = ld x
    b = mul a a
    st y b
thread 1:
    c = ld x
    d = mul c c
    st y d
""")


def small_region(seed=0, **kw):
    spec = dict(num_threads=3, min_len=3, max_len=5, overlap=0.6)
    spec.update(kw)
    return random_region(RandomRegionSpec(**spec), seed=seed)


class TestFingerprint:
    def test_stable_across_reparses(self):
        again = parse_region(REGION.render())
        assert region_fingerprint(REGION, UNIT) == region_fingerprint(again, UNIT)

    def test_sensitive_to_region_content(self):
        other = parse_region("thread 0:\n  a = ld x\nthread 1:\n  c = ld x")
        assert region_fingerprint(REGION, UNIT) != region_fingerprint(other, UNIT)

    def test_sensitive_to_model_config_and_method(self):
        base = region_fingerprint(REGION, UNIT)
        assert base != region_fingerprint(REGION, maspar_cost_model())
        assert base != region_fingerprint(
            REGION, UNIT, SearchConfig(node_budget=17))
        assert base != region_fingerprint(REGION, UNIT, method="greedy")

    def test_int_and_float_immediates_do_not_collide(self):
        def with_imm(imm):
            op = Operation(0, 0, "add", (), ("v",), imm)
            return Region((ThreadCode(0, (op,)),))
        assert region_fingerprint(with_imm(1), UNIT) != \
            region_fingerprint(with_imm(1.0), UNIT)

    def test_default_config_matches_explicit_default(self):
        assert region_fingerprint(REGION, UNIT) == \
            region_fingerprint(REGION, UNIT, SearchConfig())


class TestPayloadRoundtrip:
    def test_roundtrip_preserves_schedule(self):
        sched, _ = branch_and_bound(REGION, UNIT)
        payload = schedule_to_payload(sched)
        json.dumps(payload)  # must be JSON-able as is
        assert schedule_from_payload(payload) == sched


class TestMemoryTier:
    def test_get_miss_then_hit(self):
        cache = ScheduleCache()
        fp = region_fingerprint(REGION, UNIT)
        assert cache.get(fp) is None
        sched, stats = branch_and_bound(REGION, UNIT)
        cache.put(fp, sched, stats)
        got = cache.get(fp)
        assert got is not None and got[0] == sched and got[1] == stats
        assert cache.counters["hits"] == 1 and cache.counters["misses"] == 1

    def test_hit_returns_stats_copy(self):
        cache = ScheduleCache()
        sched, stats = branch_and_bound(REGION, UNIT)
        cache.put("fp", sched, stats)
        first = cache.get("fp")[1]
        first.nodes_expanded = -1
        assert cache.get("fp")[1].nodes_expanded != -1

    def test_lru_eviction(self):
        cache = ScheduleCache(capacity=2)
        sched, stats = branch_and_bound(REGION, UNIT)
        for fp in ("a", "b", "c"):
            cache.put(fp, sched, stats)
        assert cache.get("a") is None          # evicted, oldest
        assert cache.get("c") is not None
        assert len(cache) == 2
        assert cache.counters["evictions"] == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)


class TestDiskTier:
    def test_survives_new_cache_instance(self, tmp_path):
        sched, stats = branch_and_bound(REGION, UNIT)
        fp = region_fingerprint(REGION, UNIT)
        ScheduleCache(cache_dir=tmp_path).put(fp, sched, stats)
        fresh = ScheduleCache(cache_dir=tmp_path)
        got = fresh.get(fp)
        assert got is not None and got[0] == sched and got[1] == stats
        assert fresh.counters["disk_hits"] == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        sched, stats = branch_and_bound(REGION, UNIT)
        fp = region_fingerprint(REGION, UNIT)
        ScheduleCache(cache_dir=tmp_path).put(fp, sched, stats)
        for path in tmp_path.glob("*.json"):
            path.write_text("{ not json")
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.get(fp) is None
        assert fresh.counters["disk_errors"] == 1

    def test_stats_none_roundtrip(self, tmp_path):
        sched, _ = branch_and_bound(REGION, UNIT)
        ScheduleCache(cache_dir=tmp_path).put("fp", sched, None)
        got = ScheduleCache(cache_dir=tmp_path).get("fp")
        assert got is not None and got[0] == sched and got[1] is None


class TestInduceWiring:
    def test_second_induce_is_a_hit_with_identical_result(self):
        cache = ScheduleCache()
        region = small_region(seed=3)
        cold = api.induce(api.InductionRequest(region, UNIT, cache=cache))
        warm = api.induce(api.InductionRequest(region, UNIT, cache=cache))
        assert not cold.cache_hit and warm.cache_hit
        assert warm.schedule == cold.schedule
        assert warm.cost == cold.cost
        verify_schedule(warm.schedule, region, UNIT)

    def test_methods_do_not_cross_pollinate(self):
        cache = ScheduleCache()
        search = api.induce(api.InductionRequest(
            REGION, UNIT, method="search", cache=cache))
        serial = api.induce(api.InductionRequest(
            REGION, UNIT, method="serial", cache=cache))
        assert not serial.cache_hit
        assert serial.cost > search.cost

    def test_warm_hit_at_least_10x_faster(self):
        # Acceptance criterion: with a warm cache a second induction of the
        # same region returns in O(lookup) — >= 10x faster than the search.
        cache = ScheduleCache()
        region = random_region(
            RandomRegionSpec(num_threads=5, min_len=10, max_len=10,
                             vocab_size=8, overlap=0.6, private_vocab=False),
            seed=1)
        config = SearchConfig(node_budget=60_000)
        t0 = perf_counter()
        cold = api.induce(api.InductionRequest(
            region, maspar_cost_model(), config=config, cache=cache))
        cold_wall = perf_counter() - t0
        warm_walls = []
        for _ in range(3):
            t0 = perf_counter()
            warm = api.induce(api.InductionRequest(
                region, maspar_cost_model(), config=config, cache=cache))
            warm_walls.append(perf_counter() - t0)
            assert warm.cache_hit and warm.schedule == cold.schedule
        assert cold_wall / min(warm_walls) >= 10.0, \
            f"warm speedup only {cold_wall / min(warm_walls):.1f}x"


OPCODES = ["ld", "st", "add", "mul", "neg"]


@st.composite
def regions(draw, max_threads=3, max_len=5):
    num_threads = draw(st.integers(1, max_threads))
    threads = []
    for t in range(num_threads):
        n = draw(st.integers(0, max_len))
        ops = []
        for k in range(n):
            opcode = draw(st.sampled_from(OPCODES))
            reads = (f"T{t}v{draw(st.integers(0, k - 1))}",) if k and draw(st.booleans()) else ()
            imm = draw(st.one_of(st.none(), st.integers(0, 3)))
            ops.append(Operation(t, k, opcode, reads, (f"T{t}v{k}",), imm))
        threads.append(ThreadCode(t, tuple(ops)))
    return Region(tuple(threads))


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestCachedBitIdentical:
    @PROPERTY
    @given(regions())
    def test_memory_hit_bit_identical_to_fresh_search(self, region):
        cache = ScheduleCache()
        config = SearchConfig(node_budget=5_000)
        fresh_sched, fresh_stats = branch_and_bound(region, UNIT, config)
        fp = region_fingerprint(region, UNIT, config)
        cache.put(fp, fresh_sched, fresh_stats)
        cached_sched, cached_stats = cache.get(fp)
        assert cached_sched == fresh_sched
        assert cached_stats == fresh_stats
        # A brand-new search is deterministic, so it matches the cache too.
        again_sched, again_stats = branch_and_bound(region, UNIT, config)
        assert again_sched == cached_sched
        assert dataclasses.replace(again_stats, wall_s=0.0) == \
            dataclasses.replace(cached_stats, wall_s=0.0)

    @PROPERTY
    @given(regions(max_threads=2, max_len=4))
    def test_disk_hit_bit_identical_to_fresh_search(self, region):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp_path:
            self._check_disk_roundtrip(region, tmp_path)

    @staticmethod
    def _check_disk_roundtrip(region, tmp_path):
        config = SearchConfig(node_budget=5_000)
        fresh_sched, fresh_stats = branch_and_bound(region, UNIT, config)
        fp = region_fingerprint(region, UNIT, config)
        ScheduleCache(cache_dir=tmp_path).put(fp, fresh_sched, fresh_stats)
        cached_sched, cached_stats = ScheduleCache(cache_dir=tmp_path).get(fp)
        assert cached_sched == fresh_sched
        assert cached_stats == fresh_stats
