"""Tests for the simulated-annealing inducer."""

import pytest

from repro import api
from repro.core import (
    anneal_schedule,
    greedy_schedule,
    maspar_cost_model,
    serial_schedule,
    uniform_cost_model,
    verify_schedule,
)
from repro.core.search import SearchConfig, branch_and_bound
from repro.workloads import RandomRegionSpec, random_region

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)
MASPAR = maspar_cost_model()


def region_for(seed, threads=6, length=(12, 16)):
    return random_region(
        RandomRegionSpec(num_threads=threads, min_len=length[0],
                         max_len=length[1], vocab_size=10, overlap=0.6,
                         private_vocab=False),
        seed=seed)


class TestAnnealSchedule:
    def test_valid_and_not_worse_than_serial(self):
        for seed in range(4):
            region = region_for(seed)
            sched, _ = anneal_schedule(region, MASPAR, seed=seed, steps=100)
            verify_schedule(sched, region, MASPAR)
            assert sched.cost(MASPAR) <= serial_schedule(region, MASPAR).cost(MASPAR)

    def test_zero_steps_equals_greedy_like_start(self):
        region = region_for(1)
        sched, stats = anneal_schedule(region, MASPAR, steps=0)
        verify_schedule(sched, region, MASPAR)
        assert stats.steps == 0
        assert stats.best_cost == stats.initial_cost == sched.cost(MASPAR)

    def test_beats_greedy_somewhere(self):
        improved = 0
        for seed in range(6):
            region = region_for(seed)
            greedy_cost = greedy_schedule(region, MASPAR).cost(MASPAR)
            sched, _ = anneal_schedule(region, MASPAR, seed=seed, steps=300)
            assert sched.cost(MASPAR) <= greedy_cost * 1.05 + 1e-9
            improved += sched.cost(MASPAR) < greedy_cost - 1e-9
        assert improved >= 2

    def test_never_beats_exact_on_small_regions(self):
        region = region_for(2, threads=3, length=(5, 7))
        exact, st = branch_and_bound(region, UNIT,
                                     SearchConfig(node_budget=200_000))
        assert st.optimal
        sched, _ = anneal_schedule(region, UNIT, steps=400)
        assert sched.cost(UNIT) >= exact.cost(UNIT) - 1e-9

    def test_deterministic_given_seed(self):
        region = region_for(3)
        a, sa = anneal_schedule(region, MASPAR, seed=9, steps=150)
        b, sb = anneal_schedule(region, MASPAR, seed=9, steps=150)
        assert a.cost(MASPAR) == b.cost(MASPAR)
        assert sa.accepted == sb.accepted

    def test_empty_region(self):
        from repro.core.ops import Region
        sched, stats = anneal_schedule(Region.from_sequences([[]]), UNIT)
        assert len(sched) == 0 and stats.steps == 0

    def test_validation(self):
        region = region_for(0)
        with pytest.raises(ValueError):
            anneal_schedule(region, UNIT, steps=-1)
        with pytest.raises(ValueError):
            anneal_schedule(region, UNIT, cooling=0.0)

    def test_respect_order_mode(self):
        region = region_for(4)
        sched, _ = anneal_schedule(region, MASPAR, respect_order=True, steps=50)
        verify_schedule(sched, region, MASPAR, respect_order=True)


class TestPipelineIntegration:
    def test_induce_anneal_method(self):
        region = region_for(5)
        r = api.induce(api.InductionRequest(region, MASPAR, method="anneal"))
        assert r.method == "anneal"
        assert r.cost <= r.serial_cost
        assert r.stats is None

    def test_method_ordering_holds(self):
        region = region_for(6, threads=4, length=(8, 10))
        config = SearchConfig(node_budget=50_000)
        costs = {m: api.induce(api.InductionRequest(
                     region, MASPAR, method=m, config=config)).cost
                 for m in ("search", "anneal", "serial")}
        assert costs["search"] <= costs["anneal"] + 1e-9 <= costs["serial"] + 1e-9


class TestSeedPlumbing:
    """Regression: the hardcoded ``seed=0`` default ignored ``$REPRO_SEED``.

    The single seed knob (explicit seed > ``$REPRO_SEED`` env > default 0)
    must reach the annealer both when called directly with the default
    seed and through ``method="anneal"`` in the pipeline.
    """

    def test_default_seed_honors_repro_seed_env(self, monkeypatch):
        region = region_for(3)
        monkeypatch.setenv("REPRO_SEED", "31337")
        via_env, env_stats = anneal_schedule(region, MASPAR)
        explicit, explicit_stats = anneal_schedule(region, MASPAR, seed=31337)
        assert via_env == explicit
        assert env_stats == explicit_stats
        # The stats walk must genuinely be the 31337 walk, not the old
        # hardcoded seed-0 walk (schedules can coincide; the RNG-driven
        # acceptance counters cannot, for this region).
        monkeypatch.delenv("REPRO_SEED")
        _, zero_stats = anneal_schedule(region, MASPAR)
        assert env_stats != zero_stats

    def test_default_seed_is_still_zero_without_env(self, monkeypatch):
        region = region_for(3)
        monkeypatch.delenv("REPRO_SEED", raising=False)
        default_run, default_stats = anneal_schedule(region, MASPAR)
        explicit, explicit_stats = anneal_schedule(region, MASPAR, seed=0)
        assert default_run == explicit
        assert default_stats == explicit_stats

    def test_pipeline_anneal_honors_repro_seed_env(self, monkeypatch):
        region = region_for(3)
        monkeypatch.setenv("REPRO_SEED", "31337")
        result = api.induce(api.InductionRequest(
            region, MASPAR, method="anneal"))
        explicit, _ = anneal_schedule(region, MASPAR, seed=31337)
        assert result.schedule == explicit
        assert result.cost == explicit.cost(MASPAR)
