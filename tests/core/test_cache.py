"""Tests for the content-addressed result cache."""

import dataclasses
import json
from collections import Counter
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline_mod
import repro.core.serial as serial_mod
from repro import api
from repro.core import (
    InductionResult,
    ScheduleCache,
    ScheduleError,
    SearchStats,
    maspar_cost_model,
    region_fingerprint,
    result_to_payload,
    schedule_from_payload,
    schedule_to_payload,
    uniform_cost_model,
    verify_schedule,
)
from repro.core.cache import check_entry, encode_entry
from repro.core.ops import Operation, Region, ThreadCode, parse_region
from repro.core.schedule import Schedule
from repro.core.search import SearchConfig, branch_and_bound
from repro.core.vn import vn_prepass
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


def search_payload(schedule, stats, model=UNIT, **fields):
    """The result payload of a one-shot search, as every tier stores it."""
    payload = result_to_payload(InductionResult(
        method="search", schedule=schedule, cost=schedule.cost(model),
        serial_cost=9.0, lockstep_cost=7.0, stats=stats, wall_s=0.25))
    payload.update(fields)
    return payload


def entry_of(payload):
    """The entry ``payload`` is stored as: minus its per-request fields."""
    return json.loads(encode_entry(payload)[0])


def _set(entry, path, value):
    """``entry`` with the value at ``path`` (keys and indices) replaced."""
    *head, last = path
    target = entry
    for key in head:
        target = target[key]
    target[last] = value
    return entry


#: Ways a stored entry can fail to be a result payload; each must be a
#: counted miss, never adopted.
MALFORMED = {
    "not-a-result": lambda e: {"fingerprint": "fp",
                               "schedule": e["schedule"],
                               "stats": e["stats"][0]},
    "slot-without-picks": lambda e: _set(e, ("schedule", 0, 1), []),
    "thread-id-x": lambda e: _set(e, ("schedule", 0, 1, 0, 0), "x"),
    "op-index-null": lambda e: _set(e, ("schedule", 0, 1, 0, 1), None),
    "schedule-object": lambda e: _set(e, ("schedule",),
                                      {"slots": e["schedule"]}),
    "unknown-stats-key": lambda e: _set(e, ("stats", 0, "engine"),
                                        "bitmask"),
    "two-stats-records": lambda e: _set(e, ("stats",), e["stats"] * 2),
    "cost-beyond-float": lambda e: _set(e, ("cost",), 10 ** 400),
}


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
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        assert cache.put(fp, payload)
        got = cache.get(fp)
        assert got == entry_of(payload)
        assert "wall_s" not in got and "cache_hit" not in got
        assert cache.counters["hits"] == 1 and cache.counters["misses"] == 1

    def test_hit_returns_stats_copy(self):
        # A hit is the caller's own copy: mutating it, or the payload it
        # was stored from, never reaches the stored entry.
        cache = ScheduleCache()
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        cache.put("fp", payload)
        payload["stats"][0]["nodes_expanded"] = -2
        first = cache.get("fp")
        first["stats"][0]["nodes_expanded"] = -1
        first["schedule"].clear()
        first["cost"] = -1.0
        again = cache.get("fp")
        assert again["stats"][0]["nodes_expanded"] > 0
        assert again["schedule"] and again["cost"] > 0

    def test_lru_eviction(self):
        cache = ScheduleCache(capacity=2)
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        for fp in ("a", "b", "c"):
            cache.put(fp, payload)
        assert cache.get("a") is None          # evicted, oldest
        assert cache.get("c") is not None
        assert len(cache) == 2
        assert cache.counters["evictions"] == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)


def cut_payload():
    """A search payload whose request's deadline stopped the search."""
    schedule, stats = branch_and_bound(REGION, UNIT)
    return search_payload(schedule, dataclasses.replace(
        stats, optimal=False, budget_exhausted=True, deadline_cut=True))


class TestStoreRule:
    def test_degraded_and_deadline_cut_results_are_never_stored(self):
        cache = ScheduleCache()
        schedule, stats = branch_and_bound(REGION, UNIT)
        payload = search_payload(schedule, stats)
        assert not cache.put("degraded", {**payload, "degraded": True})
        cut = cut_payload()
        assert cut["deadline_cut"] is True and cut["optimal"] is False
        assert not cache.put("cut", cut)
        # Out of node budget is stored: the budget is in the fingerprint.
        exhausted = search_payload(schedule, dataclasses.replace(
            stats, optimal=False, budget_exhausted=True))
        assert cache.put("exhausted", exhausted)
        assert cache.get("degraded") is None
        assert cache.get("cut") is None
        assert cache.get("exhausted")["optimal"] is False
        assert cache.counters["stores"] == 1

    def test_check_entry_takes_only_storable_result_payloads(self):
        entry = entry_of(search_payload(*branch_and_bound(REGION, UNIT)))
        assert check_entry(entry) is entry
        missing_cost = {k: v for k, v in entry.items() if k != "cost"}
        for bad in (None, [], "text", missing_cost,
                    {**entry, "schedule": "not-a-schedule"},
                    {**entry, "stats": [{"no_such_counter": 1}]},
                    {**entry, "degraded": True}):
            with pytest.raises(ValueError):
                check_entry(bad)

    def test_check_entry_refuses_a_deadline_cut_entry(self):
        with pytest.raises(ValueError, match="deadline"):
            check_entry(entry_of(cut_payload()))


class TestDiskTier:
    def test_survives_new_cache_instance(self, tmp_path):
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        fp = region_fingerprint(REGION, UNIT)
        ScheduleCache(cache_dir=tmp_path).put(fp, payload)
        fresh = ScheduleCache(cache_dir=tmp_path)
        got = fresh.get(fp)
        assert got == entry_of(payload)
        assert fresh.counters["disk_hits"] == 1
        # Kept in memory after the disk hit.
        assert fresh.get(fp) == got and fresh.counters["memory_hits"] == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        fp = region_fingerprint(REGION, UNIT)
        ScheduleCache(cache_dir=tmp_path).put(fp, payload)
        for path in tmp_path.glob("*.json"):
            path.write_text("{ not json")
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.get(fp) is None
        assert fresh.counters["disk_errors"] == 1

    @pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED)
    def test_entry_that_does_not_parse_is_a_miss(self, tmp_path, malform):
        # Valid JSON that is not a result payload: a file written by older
        # code under the new name, say, or one whose schedule or stats the
        # decoder refuses.
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        ScheduleCache(cache_dir=tmp_path).put("fp", payload)
        [path] = tmp_path.glob("*.json")
        path.write_text(json.dumps(malform(entry_of(payload))))
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.get("fp") is None
        assert fresh.counters["disk_errors"] == 1 and len(fresh) == 0

    def test_deadline_cut_entry_on_disk_is_a_miss(self, tmp_path):
        # Written by hand (no tier stores one): read back, it is refused.
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        ScheduleCache(cache_dir=tmp_path).put("fp", payload)
        [path] = tmp_path.glob("*.json")
        path.write_text(json.dumps(entry_of(cut_payload())))
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.get("fp") is None
        assert fresh.counters["disk_errors"] == 1 and len(fresh) == 0

    def test_entry_written_before_deadline_cut_still_hits(self, tmp_path):
        # Entries from before the flag carry it neither at the top nor in
        # their stats; they parse and hit as they are.
        payload = search_payload(*branch_and_bound(REGION, UNIT))
        old = entry_of(payload)
        del old["deadline_cut"]
        for stats in old["stats"]:
            del stats["deadline_cut"]
        (tmp_path / "fp.result.json").write_text(json.dumps(old))
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.get("fp") == old
        assert fresh.counters["disk_hits"] == 1

    def test_old_format_files_are_never_read(self, tmp_path):
        # Files of the schedule/stats format were named <fingerprint>.json;
        # entries live under a name that format never used.
        fp = region_fingerprint(REGION, UNIT)
        (tmp_path / f"{fp}.json").write_text(json.dumps(
            {"fingerprint": fp, "schedule": [], "stats": None}))
        fresh = ScheduleCache(cache_dir=tmp_path)
        assert fresh.get(fp) is None
        assert fresh.counters["disk_errors"] == 0

    def test_stats_none_roundtrip(self, tmp_path):
        # A method without a search stores an empty stats list.
        result = api.induce(api.InductionRequest(REGION, UNIT,
                                                 method="greedy"))
        payload = result_to_payload(result)
        assert payload["stats"] == []
        ScheduleCache(cache_dir=tmp_path).put("fp", payload)
        got = ScheduleCache(cache_dir=tmp_path).get("fp")
        assert got == entry_of(payload)
        assert schedule_from_payload(got["schedule"]) == result.schedule


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


#: ``mul #2`` is rewritten into ``shl #1`` by the vn pre-pass.
VN_REGION = """
thread 0:
    a = ld x
    b = mul a #2
thread 1:
    d = ld y
    e = shl d #1
"""


class TestHitReplays:
    def test_one_shot_hit_rebuilds_no_baseline(self, count_calls):
        cache = ScheduleCache()
        request = api.InductionRequest(small_region(seed=4), UNIT,
                                       cache=cache)
        cold = api.induce(request)
        counts = count_calls(serial_mod.serial_schedule,
                             serial_mod.lockstep_schedule)
        warm = api.induce(request)
        assert warm.cache_hit and isinstance(warm, InductionResult)
        assert counts == Counter()
        ignore = ("cache_hit", "wall_s")
        assert {k: v for k, v in warm.as_dict(True).items()
                if k not in ignore} == \
            {k: v for k, v in cold.as_dict(True).items() if k not in ignore}
        assert warm.stats == cold.stats
        # The wrappers do count: a miss builds both baselines.
        api.induce(api.InductionRequest(small_region(seed=5), UNIT,
                                        cache=cache))
        assert counts == Counter(serial_schedule=1, lockstep_schedule=1)

    def test_entries_stay_vn_neutral(self):
        cache = ScheduleCache()
        region, model = parse_region(VN_REGION), maspar_cost_model()
        on = api.InductionRequest(region, model, vn="on", cache=cache)
        cold, warm = api.induce(on), api.induce(on)
        assert cold.stats.vn_rewrites > 0
        assert warm.cache_hit and warm.stats == cold.stats
        # The entry's key is the post-vn region: a vn=off request on it
        # hits the same entry and reports no vn work of its own.
        rewritten, _ = vn_prepass(region, model, "on")
        off = api.induce(api.InductionRequest(rewritten, model, cache=cache))
        assert off.cache_hit and off.stats.vn_rewrites == 0
        assert off.schedule == cold.schedule

    def test_a_schedule_is_stored_only_after_its_check(self, monkeypatch):
        region = random_region(
            RandomRegionSpec(num_threads=3, min_len=6, max_len=6), seed=1)
        request = api.InductionRequest(region, cache=ScheduleCache())
        search = pipeline_mod.BUILDERS["search"]

        def drops_last_slot(*args):
            schedule, stats = search(*args)
            return Schedule(schedule.slots[:-1]), stats

        monkeypatch.setitem(pipeline_mod.BUILDERS, "search", drops_last_slot)
        with pytest.raises(ScheduleError):
            api.induce(request)
        monkeypatch.setitem(pipeline_mod.BUILDERS, "search", search)
        again = api.induce(request)
        assert not again.cache_hit
        verify_schedule(again.schedule, region, request.resolved_model())


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
        cache.put(fp, search_payload(fresh_sched, fresh_stats))
        hit = cache.get(fp)
        assert schedule_from_payload(hit["schedule"]) == fresh_sched
        assert SearchStats(**hit["stats"][0]) == fresh_stats
        # A brand-new search is deterministic, so it matches the cache too.
        again_sched, again_stats = branch_and_bound(region, UNIT, config)
        assert again_sched == schedule_from_payload(hit["schedule"])
        assert dataclasses.replace(again_stats, wall_s=0.0) == \
            dataclasses.replace(SearchStats(**hit["stats"][0]), wall_s=0.0)

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
        payload = search_payload(fresh_sched, fresh_stats)
        ScheduleCache(cache_dir=tmp_path).put(fp, payload)
        hit = ScheduleCache(cache_dir=tmp_path).get(fp)
        assert hit == entry_of(payload)
        assert schedule_from_payload(hit["schedule"]) == fresh_sched
        assert SearchStats(**hit["stats"][0]) == fresh_stats
