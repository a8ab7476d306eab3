"""Trace extraction: from running MIMD code to CSI input.

CSI operates on per-thread instruction sequences.  On a real system those
come from the compiler; a complementary source — used here to close the
loop between the interpreter and the optimizer — is *tracing*: run the
program, record each PE's executed instruction stream over a window, group
PEs with identical streams (SPMD code produces few distinct streams), and
hand the distinct streams to CSI as a region.

The induced schedule's cost, weighted by how many PEs follow each stream,
estimates how much SIMD time induction would save on that window — the
measurement behind benchmark A2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import ScheduleCache
from repro.core.costmodel import CostModel
from repro.core.ops import Operation, Region, ThreadCode
from repro.core.pipeline import run_induction
from repro.core.result import InductionResult
from repro.core.search import SearchConfig
from repro.interp.interpreter import InterpreterConfig, MIMDInterpreter
from repro.isa.opcodes import OPCODE_INFO, SHARED_COSTS
from repro.isa.program import Program
from repro.obs import Tracer

__all__ = ["TraceBundle", "TraceInduction", "induce_traces",
           "interp_cost_model", "region_from_traces", "trace_program"]


@dataclass(frozen=True)
class TraceBundle:
    """Distinct per-PE instruction streams plus their PE multiplicities."""

    streams: tuple[tuple[str, ...], ...]
    weights: tuple[int, ...]

    @property
    def num_pes(self) -> int:
        return sum(self.weights)

    def region(self) -> Region:
        return region_from_traces(self.streams)


def trace_program(
    program: Program,
    num_pes: int,
    max_ops_per_pe: int = 32,
    config: InterpreterConfig | None = None,
) -> TraceBundle:
    """Run ``program`` and capture each PE's first ``max_ops_per_pe`` ops.

    Returns the distinct streams with multiplicities, longest-first (ties
    broken by stream content for determinism).
    """
    if max_ops_per_pe < 1:
        raise ValueError(f"need at least one traced op, got {max_ops_per_pe}")
    interp = MIMDInterpreter(program, num_pes, config=config)
    traces: list[list[str]] = [[] for _ in range(num_pes)]
    number_to_name = interp._number_to_name

    while not interp.state.all_done():
        runnable = interp.state.runnable()
        pcs = np.clip(interp.state.pc, 0, len(interp.code_op) - 1)
        ops_before = interp.code_op[pcs]
        progressed = interp.step()
        for pe in np.flatnonzero(runnable):
            if len(traces[pe]) < max_ops_per_pe:
                traces[pe].append(number_to_name[int(ops_before[pe])])
        if not progressed or all(len(t) >= max_ops_per_pe for t in traces):
            break

    grouped: dict[tuple[str, ...], int] = {}
    for t in traces:
        key = tuple(t)
        grouped[key] = grouped.get(key, 0) + 1
    ordered = sorted(grouped.items(), key=lambda kv: (-len(kv[0]), kv[0]))
    return TraceBundle(
        streams=tuple(k for k, _ in ordered),
        weights=tuple(v for _, v in ordered),
    )


def region_from_traces(streams) -> Region:
    """Convert opcode streams to a CSI region.

    Stack-machine instructions chain through SP/TOS, so each stream is a
    strict dependence chain (read of the previous op's state, write of its
    own); CSI may align streams but never reorder within one — the safe
    conservative model for traced code.
    """
    threads = []
    for t, stream in enumerate(streams):
        ops = []
        for k, opcode in enumerate(stream):
            reads = (f"T{t}s{k - 1}",) if k else ()
            ops.append(Operation(t, k, opcode, reads, (f"T{t}s{k}",)))
        threads.append(ThreadCode(t, tuple(ops)))
    return Region(tuple(threads))


@dataclass(frozen=True)
class TraceInduction:
    """CSI over a trace bundle's whole region.

    ``result`` carries the induced cost next to the serial and lockstep
    interpreter baselines, and their speedups.
    """

    bundle: TraceBundle
    result: InductionResult


def induce_traces(
    bundle: TraceBundle,
    model: CostModel | None = None,
    config: SearchConfig | None = None,
    cache: ScheduleCache | None = None,
    tracer: Tracer | None = None,
) -> TraceInduction:
    """Induce a traced program's distinct streams as one request.

    The production loop this models: trace a running program, hand the
    distinct streams to CSI as one region — a repeated bundle hits the
    schedule ``cache`` — and compare the induced cost against the serial
    and lockstep interpreter baselines.
    """
    result = run_induction(bundle.region(), model or interp_cost_model(),
                           config=config, cache=cache, tracer=tracer)
    return TraceInduction(bundle=bundle, result=result)


def interp_cost_model(mask_overhead: float = 1.0) -> CostModel:
    """Cost model pricing ISA opcodes at their interpreter handler cost."""
    costs = {
        name: sum(SHARED_COSTS[c] for c in info.shared) + info.private_cost
        for name, info in OPCODE_INFO.items()
    }
    return CostModel(class_cost=costs, mask_overhead=mask_overhead)
