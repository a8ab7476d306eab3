"""Tests for one-shot ``api.induce`` runs and schedule lowering."""

import pytest

from repro import api
from repro.core import (
    InductionResult,
    lower_schedule,
    render_simd_code,
    uniform_cost_model,
)
from repro.core.lower import MaskedInstruction
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.workloads import RandomRegionSpec, interpreter_handler_region, random_region
from repro.workloads.threads import interpreter_micro_cost_model

UNIT = uniform_cost_model(cost=1.0, mask_overhead=0.0)

REGION = parse_region("""
thread 0:
    a = ld x
    b = mul a a
    st y b
thread 1:
    c = ld x
    d = add c c
    st y d
""")


class TestInduce:
    @pytest.mark.parametrize("method", ["search", "greedy", "factor", "lockstep", "serial"])
    def test_all_methods_produce_valid_results(self, method):
        r = api.induce(api.InductionRequest(REGION, UNIT, method=method))
        assert isinstance(r, InductionResult)
        assert r.cost > 0
        assert r.serial_cost == 6.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            api.induce(api.InductionRequest(REGION, UNIT, method="magic"))

    def test_search_cost_ordering(self):
        costs = {m: api.induce(api.InductionRequest(REGION, UNIT,
                                                    method=m)).cost
                 for m in ("search", "greedy", "serial")}
        assert costs["search"] <= costs["greedy"] <= costs["serial"]

    def test_speedups(self):
        r = api.induce(api.InductionRequest(REGION, UNIT, method="search"))
        assert r.speedup_vs_serial == pytest.approx(r.serial_cost / r.cost)
        assert r.speedup_vs_lockstep == pytest.approx(r.lockstep_cost / r.cost)

    def test_stats_only_for_search(self):
        assert api.induce(api.InductionRequest(
            REGION, UNIT, method="search")).stats is not None
        assert api.induce(api.InductionRequest(
            REGION, UNIT, method="greedy")).stats is None

    def test_config_respected(self):
        region = random_region(
            RandomRegionSpec(num_threads=6, min_len=10, max_len=14, overlap=0.5),
            seed=2)
        r = api.induce(api.InductionRequest(
            region, UNIT, method="search",
            config=SearchConfig(node_budget=10)))
        assert r.stats.budget_exhausted and not r.stats.optimal

    def test_interpreter_region_end_to_end(self):
        region = interpreter_handler_region(("Add", "Sub", "Mul", "Push"))
        model = interpreter_micro_cost_model()
        search = api.induce(api.InductionRequest(
            region, model, method="search",
            config=SearchConfig(node_budget=50_000)))
        factor = api.induce(api.InductionRequest(
            region, model, method="factor"))
        serial = api.induce(api.InductionRequest(
            region, model, method="serial"))
        # CSI must at least rediscover the hand factoring, and beat serial
        # clearly (the §3.1.3.2 "several times slower without factoring").
        assert search.cost <= factor.cost <= serial.cost
        assert search.speedup_vs_serial > 1.5


class TestBaselineReuse:
    def test_serial_method_reuses_its_own_schedule_as_baseline(self):
        r = api.induce(api.InductionRequest(REGION, UNIT, method="serial"))
        assert r.serial_cost == r.cost
        assert r.speedup_vs_serial == pytest.approx(1.0)

    def test_lockstep_method_reuses_its_own_schedule_as_baseline(self):
        r = api.induce(api.InductionRequest(REGION, UNIT, method="lockstep"))
        assert r.lockstep_cost == r.cost
        assert r.speedup_vs_lockstep == pytest.approx(1.0)

    def test_baselines_built_once_per_call(self, monkeypatch):
        import repro.core.pipeline as pipeline
        calls = {"serial": 0, "lockstep": 0}
        real_serial, real_lockstep = pipeline.serial_schedule, pipeline.lockstep_schedule

        # Each baseline reads the request's prepared region: none is
        # built for it.
        def counting_serial(region, model, prepared=None):
            assert prepared is not None
            calls["serial"] += 1
            return real_serial(region, model, prepared)

        def counting_lockstep(region, model, prepared=None):
            assert prepared is not None
            calls["lockstep"] += 1
            return real_lockstep(region, model, prepared)

        monkeypatch.setattr(pipeline, "serial_schedule", counting_serial)
        monkeypatch.setattr(pipeline, "lockstep_schedule", counting_lockstep)

        api.induce(api.InductionRequest(REGION, UNIT, method="serial"))
        assert calls == {"serial": 1, "lockstep": 1}
        calls.update(serial=0, lockstep=0)
        api.induce(api.InductionRequest(REGION, UNIT, method="lockstep"))
        assert calls == {"serial": 1, "lockstep": 1}
        calls.update(serial=0, lockstep=0)
        api.induce(api.InductionRequest(REGION, UNIT, method="greedy"))
        assert calls == {"serial": 1, "lockstep": 1}


class TestEmptyRegionSpeedup:
    def test_empty_region_reports_speedup_one(self):
        # 0.0/0.0 used to fall into the `if self.cost else inf` branch; an
        # empty schedule against an empty baseline is a 1.0x "speedup".
        empty = parse_region("thread 0:\nthread 1:\n")
        for method in ("search", "greedy", "serial", "lockstep"):
            r = api.induce(api.InductionRequest(empty, UNIT, method=method))
            assert r.cost == 0.0 and r.serial_cost == 0.0
            assert r.speedup_vs_serial == 1.0
            assert r.speedup_vs_lockstep == 1.0

    def test_zero_cost_vs_positive_baseline_still_infinite(self):
        from repro.core import InductionResult as IR
        from repro.core import Schedule
        r = IR(method="search", schedule=Schedule(()), cost=0.0,
               serial_cost=5.0, lockstep_cost=0.0)
        assert r.speedup_vs_serial == float("inf")
        assert r.speedup_vs_lockstep == 1.0


class TestInduceTracing:
    def test_induce_emits_one_event(self):
        from repro.obs import MemoryTracer
        tracer = MemoryTracer()
        r = api.induce(api.InductionRequest(
            REGION, UNIT, method="search", tracer=tracer))
        (event,) = tracer.of_kind("induce")
        assert event["method"] == "search"
        assert event["cost"] == pytest.approx(r.cost)
        assert event["cache"] == "off"
        assert event["nodes"] == r.stats.nodes_expanded
        assert event["wall_s"] >= 0.0

    def test_no_tracer_means_no_overhead_path(self):
        # Just the API contract: tracer=None is accepted and ignored.
        r = api.induce(api.InductionRequest(
            REGION, UNIT, method="greedy", tracer=None))
        assert r.cost > 0


class TestLowering:
    def test_lowered_code_matches_schedule(self):
        r = api.induce(api.InductionRequest(REGION, UNIT, method="search"))
        code = lower_schedule(r.schedule, REGION, UNIT)
        assert len(code) == len(r.schedule)
        assert sum(instr.cost for instr in code) == pytest.approx(r.cost)
        assert sum(instr.width for instr in code) == REGION.num_ops

    def test_bindings_are_real_operations(self):
        r = api.induce(api.InductionRequest(REGION, UNIT, method="greedy"))
        for instr in lower_schedule(r.schedule, REGION, UNIT):
            for t, op in instr.bindings.items():
                assert op.thread == t
                assert REGION[t].ops[op.index] is op

    def test_mask_bindings_consistency_enforced(self):
        op = REGION[0].ops[0]
        with pytest.raises(ValueError):
            MaskedInstruction("ld", frozenset({0, 1}), {0: op}, cost=1.0)

    def test_render_shows_masks_and_total(self):
        r = api.induce(api.InductionRequest(REGION, UNIT, method="search"))
        text = render_simd_code(lower_schedule(r.schedule, REGION, UNIT), REGION.num_threads)
        assert "total cost" in text
        assert "|" in text and ("X." in text or "XX" in text or ".X" in text)


class TestRandomEndToEnd:
    @pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
    def test_speedup_monotone_in_overlap_tendency(self, overlap):
        region = random_region(
            RandomRegionSpec(num_threads=4, min_len=6, max_len=6, overlap=overlap),
            seed=11)
        r = api.induce(api.InductionRequest(region, UNIT, method="greedy"))
        if overlap == 0.0:
            assert r.speedup_vs_serial == pytest.approx(1.0)
        if overlap == 1.0:
            # Equal-length, identical opcode template -> near-total collapse.
            assert r.speedup_vs_serial > 2.0
