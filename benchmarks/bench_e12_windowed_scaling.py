"""E12 — induction at scale: whole-region search vs heuristics.

A 480-op region is within reach of the exact CSI search: the greedy seed
and the root lower bound (the larger of the critical path and the
per-class bound) settle such regions at or near the root, so the search
schedules the whole region in one pass.  This experiment compares the
practical options on a large random region — greedy list scheduling
and the whole-region search under a small node budget — reporting
schedule cost, speedup over serialization, search effort and whether the
search proved its schedule optimal.

Two regimes, both reported:

- *long uniform regions* (8x60 ops): a slot may merge ops from anywhere
  in the region, and the search, started from greedy's schedule, closes
  the gap to the lower bound within its budget.
- *moderate dense regions* (3x10 ops): greedy's myopia is the bigger
  error (E3 measured its optimality gap at 1.1-1.5x there) and the exact
  search beats it outright.
"""

from conftest import api_induce, bench_seed, record_table
from repro.core import (
    greedy_schedule,
    maspar_cost_model,
    serial_schedule,
    verify_schedule,
)
from repro.core.prepared import PreparedRegion
from repro.core.search import SearchConfig
from repro.util import format_table
from repro.workloads import RandomRegionSpec, random_region

MODEL = maspar_cost_model()
THREADS = 8
LENGTH = 60
BUDGET = 4_000

#: The committed seed's optimum, equal to its root lower bound.
COMMITTED_OPTIMUM = 360


def big_region(seed=0):
    return random_region(
        RandomRegionSpec(num_threads=THREADS, min_len=LENGTH, max_len=LENGTH,
                         vocab_size=12, overlap=0.6, private_vocab=False),
        seed=bench_seed(seed))


def run_experiment():
    region = big_region()
    serial_cost = serial_schedule(region, MODEL).cost(MODEL)
    rows = []
    data = {}

    greedy = greedy_schedule(region, MODEL)
    verify_schedule(greedy, region, MODEL)
    data["greedy"] = greedy.cost(MODEL)
    rows.append(["greedy list scheduling", round(greedy.cost(MODEL), 0),
                 f"{serial_cost / greedy.cost(MODEL):.2f}x", "-", "-"])

    result = api_induce(region, MODEL, config=SearchConfig(node_budget=BUDGET))
    verify_schedule(result.schedule, region, MODEL)
    cost = result.schedule.cost(MODEL)
    data["search"] = (cost, result.total_nodes, result.optimal)
    rows.append([f"whole-region search (budget {BUDGET:,})", round(cost, 0),
                 f"{serial_cost / cost:.2f}x", result.total_nodes,
                 result.optimal])

    data["lower_bound"] = PreparedRegion.build(region, MODEL).lower_bound
    rows.append(["root lower bound", round(data["lower_bound"], 0),
                 f"{serial_cost / data['lower_bound']:.2f}x", "-", "-"])

    text = format_table(
        ["method", "schedule cost", "speedup vs serial", "search nodes",
         "proven"],
        rows,
        title=f"E12a: induction on a long {THREADS}x{LENGTH}-op region "
              f"(serial cost {serial_cost:.0f})")
    record_table("E12a_windowed_scaling", text,
                 data={"rows": rows, "serial_cost": serial_cost})

    # Moderate dense region: the exact search vs greedy.
    moderate = random_region(
        RandomRegionSpec(num_threads=3, min_len=10, max_len=10,
                         vocab_size=8, overlap=0.6, private_vocab=False),
        seed=bench_seed(42))
    g2 = greedy_schedule(moderate, MODEL).cost(MODEL)
    exact = api_induce(moderate, MODEL,
                       config=SearchConfig(node_budget=300_000))
    verify_schedule(exact.schedule, moderate, MODEL)
    data["moderate"] = (g2, exact.cost, exact.optimal)
    record_table("E12b_moderate_region",
                 f"E12b: moderate 3x10 region — greedy {g2:.0f} vs "
                 f"exact search {exact.cost:.0f} "
                 f"(optimal={exact.optimal})",
                 data={"greedy": g2, "search": exact.cost,
                       "optimal": exact.optimal})
    return serial_cost, data


def test_e12_windowed_scaling(benchmark):
    serial_cost, data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Everyone beats serialization by a wide margin at 8 threads.
    assert serial_cost / data["greedy"] > 2.0
    # Regime 1 (long region): the whole-region search is never worse than
    # its greedy seed, proves its schedule within the budget, and at the
    # committed seed meets the root lower bound.
    cost, nodes, proven = data["search"]
    assert cost <= data["greedy"]
    assert proven
    assert nodes <= BUDGET
    if bench_seed() == 0:
        assert cost == data["lower_bound"] == COMMITTED_OPTIMUM
    # Regime 2 (moderate region): the exact search beats greedy.
    g2, exact_cost, optimal = data["moderate"]
    assert optimal and exact_cost <= g2
    assert exact_cost < g2  # strictly better here (E3's greedy gap)
