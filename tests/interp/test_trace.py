"""Tests for trace extraction (interp -> CSI bridge)."""

import pytest

import repro
from repro import api
from repro.interp.trace import (
    interp_cost_model,
    region_from_traces,
    trace_program,
)
from repro.isa import assemble
from repro.lang import compile_mimdc
from repro.workloads.programs import kernel_source


class TestTraceProgram:
    def test_spmd_code_gives_one_stream(self):
        prog = assemble("Push 1\nPush 2\nAdd\nPop\nHalt\n")
        bundle = trace_program(prog, 8, max_ops_per_pe=16)
        assert len(bundle.streams) == 1
        assert bundle.weights == (8,)
        assert bundle.streams[0] == ("Push", "Push", "Add", "Pop", "Halt")

    def test_divergent_code_gives_multiple_streams(self):
        src = """
            This
            Jz zero
            Push 5
            Pop
            Halt
        zero:
            This
            Neg
            Pop
            Halt
        """
        bundle = trace_program(assemble(src), 4, max_ops_per_pe=16)
        assert len(bundle.streams) == 2
        assert sum(bundle.weights) == 4
        assert sorted(bundle.weights) == [1, 3]

    def test_trace_length_capped(self):
        prog = assemble("loop: Nop\nJmp loop\n")
        bundle = trace_program(prog, 2, max_ops_per_pe=10)
        assert all(len(s) == 10 for s in bundle.streams)

    def test_mimdc_program_traces(self):
        unit = compile_mimdc(kernel_source("divergent", 3))
        bundle = trace_program(unit.program, 16, max_ops_per_pe=30)
        assert bundle.num_pes == 16
        assert len(bundle.streams) >= 2  # the lanes diverge

    def test_bad_cap_rejected(self):
        prog = assemble("Halt\n")
        with pytest.raises(ValueError):
            trace_program(prog, 2, max_ops_per_pe=0)


class TestRegionFromTraces:
    def test_chain_dependences(self):
        region = region_from_traces([("Push", "Add", "St")])
        from repro.core import build_dags
        dag = build_dags(region)[0]
        assert dag.preds == ((), (0,), (1,))

    def test_induction_on_traces(self):
        streams = [
            ("Push", "Ld", "Mul", "St", "Halt"),
            ("Push", "Ld", "Add", "St", "Halt"),
        ]
        region = region_from_traces(streams)
        model = interp_cost_model()
        result = api.induce(api.InductionRequest(
            region, model, method="search"))
        # Everything except Mul/Add merges: 6 slots for 10 ops.
        assert len(result.schedule) == 6
        assert result.speedup_vs_serial > 1.5

    def test_interp_cost_model_prices_all_opcodes(self):
        from repro.isa import ALL_OPCODES
        model = interp_cost_model()
        for name in ALL_OPCODES:
            assert model.cost_of_class(name) > 0
        assert model.cost_of_class("Mul") > model.cost_of_class("Add")


class TestInduceTraces:
    def test_whole_region_induction_over_bundle(self):
        from repro.interp import induce_traces
        unit = compile_mimdc(kernel_source("divergent", 3))
        bundle = trace_program(unit.program, 8, max_ops_per_pe=24)
        induction = induce_traces(bundle)
        assert induction.bundle is bundle
        assert isinstance(induction.result, repro.InductionResult)
        assert induction.result.cost == pytest.approx(
            induction.result.schedule.cost(interp_cost_model()))
        assert induction.result.speedup_vs_serial >= 1.0 - 1e-9
        assert induction.result.speedup_vs_lockstep >= 1.0 - 1e-9

    def test_cache_reused_across_bundles(self):
        from repro.core import ScheduleCache
        from repro.interp import induce_traces
        unit = compile_mimdc(kernel_source("divergent", 3))
        bundle = trace_program(unit.program, 8, max_ops_per_pe=24)
        cache = ScheduleCache()
        cold = induce_traces(bundle, cache=cache)
        warm = induce_traces(bundle, cache=cache)
        assert not cold.result.cache_hit and warm.result.cache_hit
        assert warm.result.cost == pytest.approx(cold.result.cost)
