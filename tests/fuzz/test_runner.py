"""Tests for the fuzz run loop (seeding, budgets, obs, corpus plumbing)."""

import dataclasses

import pytest

from repro.fuzz import FuzzConfig, fuzz_run
from repro.obs import MemoryTracer, get_registry
from repro.util.rng import SEED_ENV


class TestSeeding:
    def test_explicit_seed_wins(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "999")
        report = fuzz_run(FuzzConfig(seed=42, cases=3))
        assert report.seed == 42

    def test_env_seed_used_when_flag_absent(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "314")
        report = fuzz_run(FuzzConfig(seed=None, cases=3))
        assert report.seed == 314

    def test_same_seed_same_outcome(self):
        a = fuzz_run(FuzzConfig(seed=5, cases=10))
        b = fuzz_run(FuzzConfig(seed=5, cases=10))
        assert (a.region_cases, a.program_cases) == \
               (b.region_cases, b.program_cases)

    def test_reproduce_line_names_the_seed(self):
        report = fuzz_run(FuzzConfig(seed=77, cases=2))
        assert report.reproduce_line() == "repro fuzz --seed 77 --cases 2"


class TestBudgets:
    def test_runs_all_cases_without_time_budget(self):
        report = fuzz_run(FuzzConfig(seed=1, cases=5))
        assert report.cases_run == 5
        assert report.stopped_by == "cases"

    def test_time_budget_stops_early(self):
        report = fuzz_run(FuzzConfig(seed=1, cases=100_000,
                                     time_budget_s=0.2))
        assert report.stopped_by == "time_budget"
        assert report.cases_run < 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(cases=0)
        with pytest.raises(ValueError):
            FuzzConfig(time_budget_s=0.0)


class TestObservability:
    def test_spans_and_aggregate_event_emitted(self):
        tracer = MemoryTracer()
        report = fuzz_run(FuzzConfig(seed=2, cases=4), tracer=tracer)
        kinds = [e["kind"] for e in tracer.events]
        assert kinds.count("span") == 4
        assert kinds.count("fuzz") == 1
        summary = [e for e in tracer.events if e["kind"] == "fuzz"][0]
        assert summary["cases"] == report.cases_run
        assert summary["reproduce"] == report.reproduce_line()

    def test_metrics_count_cases(self):
        before = get_registry().counters.snapshot().get("fuzz_cases_total", 0)
        fuzz_run(FuzzConfig(seed=2, cases=3))
        after = get_registry().counters.snapshot().get("fuzz_cases_total", 0)
        assert after - before == 3


class TestFailurePath:
    def test_failures_are_collected_not_raised(self, monkeypatch, tmp_path):
        import repro.core.search as search
        from repro.core.engines import bitmask_search

        def buggy(prepared, config, stats, best_slots, **kwargs):
            return bitmask_search(prepared,
                                  dataclasses.replace(config, use_class_bound=False),
                                  stats, best_slots, **kwargs)

        monkeypatch.setitem(search.branch_and_bound.__kwdefaults__,
                            "search_fn", buggy)
        report = fuzz_run(FuzzConfig(seed=3, cases=60, shrink=False,
                                     corpus_dir=str(tmp_path / "corpus")))
        assert report.failures
        assert not report.ok
        assert report.corpus_paths
        for failure in report.failures:
            assert failure.summary()
