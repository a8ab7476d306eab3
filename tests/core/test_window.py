"""Tests for windowed induction."""

import pytest

from repro import api
from repro.core import (
    maspar_cost_model,
    serial_schedule,
    uniform_cost_model,
    verify_schedule,
)
from repro.core.search import SearchConfig, branch_and_bound
from repro.core.window import induce_windows
from repro.workloads import RandomRegionSpec, random_region

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)


def big_region(seed=0, threads=6, length=40):
    return random_region(
        RandomRegionSpec(num_threads=threads, min_len=length, max_len=length,
                         vocab_size=10, overlap=0.6, private_vocab=False),
        seed=seed)


class TestCorrectness:
    @pytest.mark.parametrize("window", [1, 3, 8, 100])
    def test_stitched_schedule_valid(self, window):
        region = big_region()
        result = api.induce(api.InductionRequest(
            region, UNIT, window=window,
            config=SearchConfig(node_budget=5_000)))
        verify_schedule(result.schedule, region, UNIT)

    def test_window_one_equals_lockstep_like_behaviour(self):
        # window=1 can only merge ops at identical program positions.
        region = big_region(length=10)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=1, config=SearchConfig(node_budget=5_000)))
        verify_schedule(result.schedule, region, UNIT)
        assert result.num_windows == 10

    def test_whole_region_window_matches_plain_search(self):
        region = big_region(threads=3, length=6)
        cfg = SearchConfig(node_budget=100_000)
        windowed = api.induce(api.InductionRequest(
            region, UNIT, window=100, config=cfg))
        plain, _ = branch_and_bound(region, UNIT, cfg)
        assert windowed.schedule.cost(UNIT) == pytest.approx(plain.cost(UNIT))
        assert windowed.num_windows == 1

    def test_uneven_thread_lengths(self):
        region = random_region(
            RandomRegionSpec(num_threads=4, min_len=5, max_len=19,
                             vocab_size=6, overlap=0.5, private_vocab=False),
            seed=3)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=4, config=SearchConfig(node_budget=5_000)))
        verify_schedule(result.schedule, region, UNIT)

    def test_empty_region(self):
        from repro.core.ops import Region
        result = api.induce(api.InductionRequest(
            Region.from_sequences([[], []]), UNIT, window=8))
        assert len(result.schedule) == 0 and result.num_windows == 0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            induce_windows(big_region(), UNIT, window_size=0)


class TestQualityScalingTrade:
    def test_wider_windows_never_worse_much(self):
        """Seam losses shrink as windows widen (same budget per window)."""
        region = big_region(seed=1)
        model = maspar_cost_model()
        costs = {}
        for w in (2, 5, 10, 20):
            result = api.induce(api.InductionRequest(
                region, model, window=w,
                config=SearchConfig(node_budget=3_000)))
            verify_schedule(result.schedule, region, model)
            costs[w] = result.schedule.cost(model)
        assert costs[20] <= costs[2]

    def test_beats_serial_by_a_lot_on_large_regions(self):
        region = big_region(seed=2, threads=8, length=60)
        model = maspar_cost_model()
        result = api.induce(api.InductionRequest(
            region, model, window=6, config=SearchConfig(node_budget=3_000)))
        verify_schedule(result.schedule, region, model)
        serial = serial_schedule(region, model).cost(model)
        assert serial / result.schedule.cost(model) > 2.5

    def test_bounded_search_effort(self):
        """Total nodes stay proportional to window count, not region size
        exponent — the point of windowing."""
        region = big_region(seed=4, threads=6, length=60)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=5, config=SearchConfig(node_budget=2_000)))
        assert result.total_nodes <= result.num_windows * 2_000

    def test_stats_per_window(self):
        region = big_region(length=20)
        result = api.induce(api.InductionRequest(
            region, UNIT, window=5, config=SearchConfig(node_budget=2_000)))
        assert len(result.stats) == result.num_windows == 4
