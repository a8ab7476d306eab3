#!/usr/bin/env python3
"""CSI rediscovers the hand-factored MIMD interpreter.

The paper's motivating use: the MasPar MIMD interpreter's handler bodies
share micro-op sequences — instruction fetch + PC increment, next-on-stack
fetch, immediate fetch, constant-pool lookup.  Hand-factoring them out made
the interpreter "several times" faster; CSI automates exactly that search.

This example expresses a set of handler bodies as a multi-thread region
(thread i = handler for MIMD instruction i) and lets each scheduler variant
at it.  Watch the `fetch` slot: CSI merges it across *all* handlers.

Run:  python examples/csi_interpreter_factoring.py
"""

from repro import api
from repro.core import lower_schedule, render_simd_code
from repro.core.search import SearchConfig
from repro.util import format_table
from repro.workloads.threads import (
    interpreter_handler_region,
    interpreter_micro_cost_model,
)

HANDLERS = ("Add", "Mul", "Push", "PushC", "Ld", "StS")


def main() -> None:
    region = interpreter_handler_region(HANDLERS)
    model = interpreter_micro_cost_model()
    print(f"region: one thread per handler body of {', '.join(HANDLERS)}")
    print(f"{region.num_ops} micro-ops across {region.num_threads} handlers")
    print()

    rows = []
    results = {}
    for method in ("serial", "lockstep", "factor", "greedy", "search"):
        config = SearchConfig(node_budget=200_000) \
            if method == "search" else None
        r = api.induce(api.InductionRequest(region, model, method=method,
                                            config=config))
        results[method] = r
        rows.append([method, round(r.cost, 1), len(r.schedule),
                     round(r.schedule.sharing_factor(), 2),
                     f"{r.speedup_vs_serial:.2f}x"])
    print(format_table(
        ["method", "cost (cycles)", "slots", "ops/slot", "speedup vs serial"],
        rows, title="Inducing common subsequences across interpreter handlers"))
    print()

    best = results["search"]
    print("CSI schedule (note the single shared fetch/incpc prologue):")
    print(render_simd_code(lower_schedule(best.schedule, region, model),
                           region.num_threads))
    print()
    merged_fetch = [s for s in best.schedule
                    if s.opclass == "fetch" and s.width == len(HANDLERS)]
    print(f"fetch merged across all {len(HANDLERS)} handlers: "
          f"{'yes' if merged_fetch else 'no'}")
    print(f"unfactored interpreter would be "
          f"{results['serial'].cost / best.cost:.1f}x slower on this mix "
          f"(§3.1.3.2: 'several times slower' without factoring)")


if __name__ == "__main__":
    main()
