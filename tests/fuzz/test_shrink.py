"""Tests for the delta-debugging shrinker."""

import dataclasses

from repro.core.costmodel import maspar_cost_model
from repro.core.ops import Operation, Region, ThreadCode
from repro.core.search import SearchConfig
from repro.fuzz import FuzzCase, shrink_case
from repro.fuzz.shrink import _rebuild_region


def make_case(region):
    return FuzzCase(kind="region", seed=0, index=0, region=region,
                    model=maspar_cost_model(), config=SearchConfig(),
                    note="hand")


class TestRebuildRegion:
    def test_renumbers_threads_and_indices(self):
        ops0 = [Operation(3, 9, "add", (), ("a",))]
        ops1 = [Operation(7, 2, "mul", (), ("b",)),
                Operation(7, 5, "ld", (), ("c",))]
        region = _rebuild_region([ops0, ops1])
        assert region.num_threads == 2
        assert [op.key for op in region.all_ops()] == [(0, 0), (1, 0), (1, 1)]
        assert region[1].ops[1].opcode == "ld"


class TestShrinkCase:
    def test_no_failures_returns_case(self):
        region = Region((ThreadCode(0, (Operation(0, 0, "add", (), ("a",)),)),))
        case = make_case(region)
        assert shrink_case(case, []) is case

    def test_nonreproducible_failure_returns_case(self):
        # A clean case never fails, so no candidate reproduces and the
        # shrinker must hand the original back unchanged.
        from repro.fuzz.oracles import OracleFailure
        region = Region((
            ThreadCode(0, (Operation(0, 0, "add", (), ("a",)),
                           Operation(0, 1, "mul", ("a",), ("b",)))),
            ThreadCode(1, (Operation(1, 0, "add", (), ("c",)),)),
        ))
        case = make_case(region)
        out = shrink_case(case, [OracleFailure("engine_counters", "synthetic")],
                          max_attempts=30)
        assert out is case

    def test_records_original_size(self, monkeypatch):
        # Inject a real bug so shrinking actually happens, then check the
        # provenance field.
        import repro.core.search as search
        from repro.core.engines import bitmask_search

        def buggy(prepared, config, stats, best_slots, **kwargs):
            return bitmask_search(prepared,
                                  dataclasses.replace(config, use_memo=False),
                                  stats, best_slots, **kwargs)

        monkeypatch.setitem(search.branch_and_bound.__kwdefaults__,
                            "search_fn", buggy)
        from repro.fuzz import FuzzConfig, fuzz_run
        report = fuzz_run(FuzzConfig(seed=11, cases=200, fail_fast=True))
        assert report.failures
        failure = report.failures[0]
        if failure.shrunk is not None:
            assert failure.shrunk.shrunk_from_ops == failure.case.num_ops
            assert failure.shrunk.note.endswith("+shrunk")
            assert failure.shrunk.num_ops <= failure.case.num_ops
