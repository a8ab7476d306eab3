"""E14 (service) — dedup throughput of the induction server.

The service exists because real frontends resubmit the *same* hot regions
constantly (every PE executes the interpreter loop, every kernel shares
inner bodies).  A workload that repeats each unique region 10x should
therefore cost the server ~one search per unique region — duplicates
either join the in-flight request's single flight (dedup) or hit the
request-level cache — while a sequential cold ``repro.api.induce`` loop
pays for every repeat.

Acceptance criterion: the service sustains at least 5x the throughput of
the sequential cold loop on the 10x-repeat workload.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import bench_seed, record_table
from repro import api
from repro.core import ScheduleCache, maspar_cost_model
from repro.service import Endpoint, InductionServer, ServerConfig, ServiceClient
from repro.util import format_table
from repro.workloads import RandomRegionSpec, random_region

MODEL = maspar_cost_model()
#: Seeds 1/2 exhaust this budget (~0.4 s of search each); the workload is
#: search-dominated, so throughput gains must come from dedup, not noise.
SPEC = RandomRegionSpec(num_threads=6, min_len=14, max_len=14, vocab_size=12,
                        overlap=0.4, private_vocab=False)
_BASE = bench_seed(0)
SEEDS = (_BASE + 1, _BASE + 2, _BASE + 4)
REPEATS = 10
BUDGET = 10_000


def _workload():
    """(label, request) pairs: each unique region repeated REPEATS times."""
    items = []
    for seed in SEEDS:
        region = random_region(SPEC, seed=seed)
        request = api.InductionRequest(region=region, model=MODEL,
                                       budget=BUDGET)
        for rep in range(REPEATS):
            items.append((f"r{seed}[{rep}]", request))
    return items


def run_experiment():
    workload = _workload()
    n = len(workload)

    # -- baseline: sequential cold induce(), no cache, every repeat paid.
    t0 = time.perf_counter()
    seq_costs = {}
    for label, request in workload:
        result = api.induce(request)
        seq_costs[label.split("[")[0]] = result.cost
    seq_wall = time.perf_counter() - t0

    # -- service: dedup + request cache over a unix socket.
    workers = min(4, os.cpu_count() or 1)
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix("/tmp/repro-bench-e14.sock"),
                     workers=workers, queue_size=2 * n),
        cache=ScheduleCache())
    try:
        client = ServiceClient(server.endpoint)
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=10) as pool:
            results = list(pool.map(
                lambda item: (item[0], client.submit(item[1])), workload))
        svc_wall = time.perf_counter() - t0
        stats = client.stats()
    finally:
        server.shutdown()

    # Same schedules, an order of magnitude fewer searches.
    for label, result in results:
        assert result.cost == seq_costs[label.split("[")[0]]
        assert not result.degraded
    searches = stats["requests"] - stats["dedup_hits"] - \
        stats.get("cache_hits", 0)

    ratio = (n / svc_wall) / (n / seq_wall)
    rows = [
        ["sequential cold induce()", n, f"{seq_wall:.2f} s",
         f"{n / seq_wall:.1f} req/s", "-"],
        [f"service ({workers} workers)", n, f"{svc_wall:.2f} s",
         f"{n / svc_wall:.1f} req/s", f"{ratio:.1f}x"],
        ["  searches actually run", searches, "-", "-",
         f"dedup {stats['dedup_hits']:.0f} + cache "
         f"{stats.get('cache_hits', 0):.0f}"],
    ]
    text = format_table(
        ["configuration", "requests", "wall", "throughput", "effect"],
        rows,
        title=f"E14: service throughput, {len(SEEDS)} unique regions x "
              f"{REPEATS} repeats ({os.cpu_count()} cores)")
    record_table("E14_service_throughput", text,
                 data={"rows": rows, "seq_wall": seq_wall,
                       "svc_wall": svc_wall, "ratio": ratio})
    return {"ratio": ratio, "searches": searches,
            "dedup_hits": stats["dedup_hits"]}


def test_e14_service_throughput(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Acceptance criterion: >= 5x sequential cold throughput.
    assert data["ratio"] >= 5.0
    # The 10x-repeat workload must collapse to ~one search per region.
    assert data["searches"] <= len(SEEDS) + 2
    assert data["dedup_hits"] >= 1
