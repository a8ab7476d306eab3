"""Cross-subsystem integration tests: the full pipelines of the paper.

These are the end-to-end stories: MIMDC source through the compiler,
interpreter and scheduler; traced execution back into CSI; the selection
loop against the simulated fleet.
"""

import numpy as np
import pytest

from repro import api
from repro.interp import FrequencyBias, InterpreterConfig, run_program
from repro.interp.trace import interp_cost_model, trace_program
from repro.isa import decode_object, disassemble, encode_object, assemble
from repro.lang import compile_mimdc
from repro.sched import select_target, simulate_execution
from repro.simd import SIMDMachine
from repro.simd.native import NATIVE_KERNELS
from repro.workloads.machines import table1_database
from repro.workloads.programs import KERNELS, kernel_source


class TestCompileRunPipeline:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_runs_on_every_interpreter_variant(self, kernel):
        unit = compile_mimdc(kernel_source(kernel, 5))
        init = {}
        if "nprocs" in unit.globals_map:
            init[unit.address_of("nprocs")] = 8
        reference = None
        for cfg in (InterpreterConfig(),
                    InterpreterConfig(factored=False, subinterpreters=False),
                    InterpreterConfig(bias=FrequencyBias(period=3))):
            interp, stats = run_program(unit.program, 8, config=cfg,
                                        layout=unit.layout, globals_init=init)
            result = interp.peek_global(unit.address_of("result"))
            if reference is None:
                reference = result
            assert np.array_equal(result, reference)
            assert stats.instructions_executed > 0

    def test_object_file_route_matches_direct(self):
        """compile -> encode -> decode -> run == compile -> run (§3.1.4's
        mimda object-file path)."""
        unit = compile_mimdc(kernel_source("axpy", 10))
        direct, _ = run_program(unit.program, 4, layout=unit.layout)
        via_object = decode_object(encode_object(unit.program))
        indirect, _ = run_program(via_object, 4, layout=unit.layout)
        addr = unit.address_of("result")
        assert np.array_equal(direct.peek_global(addr),
                              indirect.peek_global(addr))

    def test_assembly_route_matches_direct(self):
        unit = compile_mimdc(kernel_source("polynomial", 5))
        reassembled = assemble(disassemble(unit.program))
        direct, _ = run_program(unit.program, 4, layout=unit.layout)
        indirect, _ = run_program(reassembled, 4, layout=unit.layout)
        addr = unit.address_of("result")
        assert np.array_equal(direct.peek_global(addr),
                              indirect.peek_global(addr))


class TestInterpretedVsNative:
    @pytest.mark.parametrize("kernel", ["axpy", "polynomial", "pairwise"])
    def test_results_identical_and_band_reasonable(self, kernel):
        iters = 15
        unit = compile_mimdc(kernel_source(kernel, iters))
        init = {}
        if "nprocs" in unit.globals_map:
            init[unit.address_of("nprocs")] = 32
        interp, stats = run_program(unit.program, 32, layout=unit.layout,
                                    globals_init=init)
        machine = SIMDMachine(32)
        native = NATIVE_KERNELS[kernel](machine, iters)
        assert np.array_equal(interp.peek_global(unit.address_of("result")),
                              native)
        frac = machine.cycles / stats.cycles
        assert 1 / 60 < frac < 1 / 3


class TestTraceToCSI:
    def test_traced_kernel_induces_speedup(self):
        unit = compile_mimdc(kernel_source("divergent", 4))
        bundle = trace_program(unit.program, 32, max_ops_per_pe=24)
        assert len(bundle.streams) >= 2
        region = bundle.region()
        result = api.induce(api.InductionRequest(
            region, interp_cost_model(), method="greedy"))
        # Divergent lanes share their loop skeleton: induction must find it.
        assert result.speedup_vs_serial > 1.3


class TestSchedulerLoop:
    def test_selection_prediction_tracks_actual(self):
        unit = compile_mimdc(kernel_source("axpy", 100))
        db = table1_database()
        sel = select_target(db, unit.counts, 4)
        actual = simulate_execution(sel, unit.counts,
                                    {m: 0.0 for m in db.machines()},
                                    recompile_overhead=0.0)
        # The §4.2 formula is load-pessimistic but must be within ~an
        # order of magnitude of the realized time on an idle fleet.
        assert actual <= sel.predicted_time * 1.01
        assert sel.predicted_time < 10 * actual

    def test_unsupported_ops_never_selected(self):
        # pairwise uses LdD/StD; the pipe model does not list them.
        unit = compile_mimdc(kernel_source("pairwise", 10))
        db = table1_database()
        sel = select_target(db, unit.counts, 8)
        for entry in sel.targets:
            assert entry.supports("LdD")

    def test_width_constraint_respected_end_to_end(self):
        unit = compile_mimdc(kernel_source("axpy", 50))
        db = table1_database(include_udp=False)
        sel = select_target(db, unit.counts, 100_000)  # wider than the MasPar
        # Only pipe/file targets can host it (width 0 = unlimited procs).
        assert all(e.model in ("pipes", "file") for e in sel.targets)
