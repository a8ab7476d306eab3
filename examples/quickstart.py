#!/usr/bin/env python3
"""Quickstart: Common Subexpression Induction in five minutes.

Two MIMD threads run different code on a SIMD machine.  Without induction
the machine serializes them (sum of both threads); CSI finds the shared
instruction slots and schedules them once, under a PE mask.

Run:  python examples/quickstart.py
"""

from repro import api, maspar_cost_model, parse_region
from repro.core import lower_schedule, render_simd_code

# Two threads of a bigger region: same load/store skeleton, different math.
REGION = parse_region("""
thread 0:
    a0 = ld    x
    a1 = mul   a0 a0
    a2 = add   a1 a0
    st  y  a2
thread 1:
    b0 = ld    x
    b1 = add   b0 b0
    b2 = mul   b1 b1
    st  y  b2
""")


def main() -> None:
    model = maspar_cost_model()

    print("Input region (two MIMD threads):")
    print(REGION.render())
    print()

    for method in ("serial", "lockstep", "greedy", "search"):
        result = api.induce(api.InductionRequest(REGION, model, method=method))
        print(f"{method:>9s}: cost {result.cost:6.1f} cycles   "
              f"speedup vs serial {result.speedup_vs_serial:4.2f}x")
    print()

    best = api.induce(api.InductionRequest(REGION, model, method="search"))
    print("CSI schedule (X = thread enabled in that SIMD slot):")
    code = lower_schedule(best.schedule, REGION, model)
    print(render_simd_code(code, REGION.num_threads))
    print()
    stats = best.stats
    print(f"search stats: {stats.nodes_expanded} nodes expanded, "
          f"{stats.pruned_by_bound} bound-pruned, "
          f"{stats.pruned_by_memo} memo-pruned, optimal={stats.optimal}")


if __name__ == "__main__":
    main()
