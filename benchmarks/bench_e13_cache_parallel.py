"""E13 — the schedule cache.

Repeated regions are the common case for interpreter workloads (the same
handler set is induced every time a program is loaded), so finished
results are memoized under a content fingerprint.  This experiment
measures what a warm cache buys: the cold/warm wall-time ratio of
``induce()`` on a dense region whose search dominates its cold run, and
asserts the acceptance criterion that a warm repeat is >= 10x faster.
"""

import os
import time

from conftest import api_induce, bench_seed, record_table
from repro.core import (
    ScheduleCache,
    maspar_cost_model,
)
from repro.core.search import SearchConfig
from repro.util import format_table
from repro.workloads import RandomRegionSpec, random_region

MODEL = maspar_cost_model()
BUDGET = 60_000


def dense_region(seed=0, threads=5, length=10):
    return random_region(
        RandomRegionSpec(num_threads=threads, min_len=length, max_len=length,
                         vocab_size=8, overlap=0.6, private_vocab=False),
        seed=bench_seed(seed))


def run_experiment():
    rows = []
    data = {}

    # Cold search vs warm lookup on a dense whole region.
    cache = ScheduleCache()
    region = dense_region()
    cfg = SearchConfig(node_budget=BUDGET)
    cold = api_induce(region, MODEL, config=cfg, cache=cache)
    warm_walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        warm = api_induce(region, MODEL, config=cfg, cache=cache)
        warm_walls.append(time.perf_counter() - t0)
    assert warm.cache_hit and warm.cost == cold.cost
    warm_wall = min(warm_walls)
    ratio = cold.wall_s / warm_wall if warm_wall else float("inf")
    data["cache_ratio"] = ratio
    rows.append(["induce() cold (search)", f"{cold.wall_s * 1e3:.1f} ms", "-"])
    rows.append(["induce() warm (cache hit)", f"{warm_wall * 1e3:.3f} ms",
                 f"{ratio:.0f}x faster"])

    text = format_table(
        ["configuration", "wall time", "effect"],
        rows,
        title=f"E13: the schedule cache ({os.cpu_count()} cores)")
    record_table("E13_cache_parallel", text, data={"rows": rows, **data})
    return data


def test_e13_cache_parallel(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Acceptance criterion: a warm cache repeat is at least 10x faster.
    assert data["cache_ratio"] >= 10.0
