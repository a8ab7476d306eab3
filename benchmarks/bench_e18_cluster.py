"""E18 (cluster) — sharded scale-out of the induction service.

E14 showed one node collapsing a repeat-heavy workload to ~one search per
unique region — *as long as the working set fits its cache*.  This
experiment is about what happens when it does not: every node has a fixed
spec (here: a small in-memory schedule cache), and the only way to grow
capacity is to add nodes.  The cluster's consistent-hash ring shards the
fingerprint space, so N nodes hold N caches' worth of schedules and every
repeat routes back to the shard that already induced it.

Workload: U unique E14-style regions submitted in interleaved repeat
order (r0 r1 ... rU r0 r1 ...), which is exactly the access pattern that
defeats a single node's LRU when U exceeds its capacity — by the time r0
comes around again it has been evicted.  Sharded 3 ways, each node owns
U/3 <= capacity regions and every repeat is a memory hit.

Phases:

- **1 node behind the router** vs **3 nodes behind the router** on the
  same workload (same code path, so the ratio isolates sharding);
- **chaos**: warm 3-node cluster, kill one node mid-run, and require
  zero lost requests with p99 within 3x of the healthy run.  Each node's
  remote cache tier calls only a fingerprint's ring owner, so the node
  that inherits the dead owner's arc holds none of its schedules and
  recomputes each once.  The router's request cache, which in a default
  deployment answers repeats during an outage, is off in every phase.

Acceptance criteria: 3-node throughput >= 2x single-node (and >= 0.5x the
committed reference in ``BENCH_cluster.json``); chaos run completes with
zero failures and bounded p99; at least one cross-node cache hit is
observed.  ``E18_SMOKE=1`` shrinks the workload for CI.
"""

import json
import os
import pathlib
import time

from conftest import bench_seed, record_table
from repro import api
from repro.cluster import HashRing, LocalCluster, RetryPolicy
from repro.core import maspar_cost_model
from repro.core.search import SearchConfig, branch_and_bound
from repro.service import ServiceClient
from repro.util import format_table
from repro.workloads import RandomRegionSpec, random_region

SMOKE = os.environ.get("E18_SMOKE", "") == "1"
MODE = "smoke" if SMOKE else "full"

MODEL = maspar_cost_model()
SPEC = RandomRegionSpec(num_threads=5, min_len=12, max_len=12, vocab_size=12,
                        overlap=0.4, private_vocab=False)
#: Per-shard working set and the per-node cache capacity it must fit in.
PER_NODE = 3 if SMOKE else 5
CAPACITY = PER_NODE + 1
NODES = 3
REPEATS = 3 if SMOKE else 4
BUDGET = 10_000 if SMOKE else 20_000

_REFERENCE = pathlib.Path(__file__).parent / "BENCH_cluster.json"


#: Candidate index -> request if its search exhausts BUDGET, else None.
#: Shared between phases so each candidate's calibration search runs once.
_CANDIDATES: dict = {}


def _expensive_candidate(index: int):
    """Request for candidate ``index`` iff its search is budget-bound.

    Random regions vary wildly in search cost (milliseconds to hundreds of
    milliseconds at the same budget); the bench needs every unique region
    to cost roughly one full budget so that the cache-hit/search contrast
    — not region luck — drives the measured ratio.  ``budget_exhausted``
    is the deterministic filter for that: roughly a quarter of this spec's
    regions qualify, each costing ~one budget's worth of expansion.
    """
    if index not in _CANDIDATES:
        region = random_region(SPEC, seed=bench_seed(0) + 100 + index)
        _, stats = branch_and_bound(region, MODEL,
                                    SearchConfig(node_budget=BUDGET))
        _CANDIDATES[index] = api.InductionRequest(
            region=region, model=MODEL, budget=BUDGET) \
            if stats.budget_exhausted else None
    return _CANDIDATES[index]


def _pick_balanced(cluster: LocalCluster, per_node: int):
    """Select ``per_node`` budget-bound regions owned by each node.

    Node names embed the cluster's temp directory, so ownership can only
    be decided per-run: walk the deterministic candidate stream, keep the
    budget-exhausted regions, and greedily fill each shard's quota.  The
    selection is what makes the experiment honest — every shard's working
    set fits its cache exactly when the whole set would thrash a single
    node's, and every unique region costs a comparable search.
    """
    ring = HashRing(cluster.config.node_names, vnodes=cluster.config.vnodes)
    quota = {name: per_node for name in ring.nodes}
    picked = []
    for index in range(40 * per_node * NODES):
        request = _expensive_candidate(index)
        if request is None:
            continue
        owner = ring.node_for(request.fingerprint())
        if quota[owner] > 0:
            quota[owner] -= 1
            picked.append(request)
        if not any(quota.values()):
            return picked
    raise RuntimeError(f"candidate pool too small: leftover quota {quota}")


def _run_workload(client: ServiceClient, requests, repeats: int,
                  on_index=None):
    """Interleaved repeats; returns (wall_s, per-request latencies, costs)."""
    latencies, costs, failed = [], {}, 0
    t0 = time.perf_counter()
    index = 0
    for rep in range(repeats):
        for position, request in enumerate(requests):
            if on_index is not None:
                on_index(index)
            t1 = time.perf_counter()
            try:
                result = client.submit(request)
            except Exception:  # noqa: BLE001 - chaos runs count losses
                failed += 1
            else:
                costs.setdefault(position, result.cost)
                assert result.cost == costs[position]
            latencies.append(time.perf_counter() - t1)
            index += 1
    return time.perf_counter() - t0, latencies, failed


def _p99(latencies):
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, int(0.99 * len(ranked)))]


def _throughput_phase(nodes: int, requests_from=None):
    """Run the interleaved workload on an ``nodes``-node cluster.

    A routed schedule stays on its owner only, so cache pressure per node
    is exactly its owned shard — the fixed-node-spec premise of the
    scale-out claim.  The router's request cache is off in every phase:
    it would answer each repeat at the front door, so no repeat would
    ever reach the node caches this experiment measures.
    """
    with LocalCluster(nodes=nodes, cache_capacity=CAPACITY,
                      request_cache_size=0) as cluster:
        requests = requests_from(cluster) if requests_from else \
            _pick_balanced(cluster, PER_NODE)
        wall, latencies, failed = _run_workload(
            cluster.client(), requests, REPEATS)
        assert failed == 0
        stats = cluster.node_stats()
        hits = sum(s.get("cache_hits", 0) for s in stats)
        searches = sum(s.get("requests", 0) for s in stats) - hits
    return {"wall": wall, "n": len(latencies), "p99": _p99(latencies),
            "searches": searches, "hits": hits, "requests": requests}


def _chaos_phase(requests, healthy_p99: float):
    """Warm a 3-node cluster, kill one node mid-run: the node inheriting
    the dead owner's arc recomputes each of its schedules once."""
    with LocalCluster(nodes=NODES, cache_capacity=64,
                      retry=RetryPolicy(attempts=4, backoff_s=0.02),
                      mark_down_after=2, request_cache_size=0) as cluster:
        # Re-shard the request set for THIS cluster's ring (node names are
        # per-run); ownership balance does not matter here.
        client = cluster.client()
        for request in requests:
            client.submit(request)

        # Cross-node cache tier check: a node that does not own
        # requests[0] must local-miss and remote-hit its owner.
        ring = HashRing(cluster.config.node_names,
                        vnodes=cluster.config.vnodes)
        owner = ring.node_for(requests[0].fingerprint())
        names = [str(e) for e in cluster.endpoints]
        cluster.node_client((names.index(owner) + 1) % NODES).submit(
            requests[0])
        remote_hits = sum(
            s.get("cache_remote_hits", 0) for s in cluster.node_stats())

        # Kill the node owning requests[0] one third into the run, while
        # requests are flowing.
        victim = names.index(owner)
        total = len(requests) * REPEATS
        kill_at = max(1, total // 3)

        def chaos(index: int) -> None:
            if index == kill_at:
                cluster.kill_node(victim)

        wall, latencies, failed = _run_workload(
            client, requests, REPEATS, on_index=chaos)
        router_stats = cluster.router.stats()
    return {"wall": wall, "n": len(latencies), "failed": failed,
            "p99": _p99(latencies), "remote_hits": remote_hits,
            "failovers": router_stats.get("route_failovers", 0),
            "healthy_p99": healthy_p99}


def run_experiment():
    unique = PER_NODE * NODES

    three = _throughput_phase(NODES)
    # The single node gets the SAME region set (re-picked balance is
    # meaningless with one shard): capacity < unique regions, so the
    # interleaved repeats thrash its LRU.
    single = _throughput_phase(1, requests_from=lambda _c: three["requests"])

    ratio = (three["n"] / three["wall"]) / (single["n"] / single["wall"])
    chaos = _chaos_phase(three["requests"], healthy_p99=three["p99"])
    p99_ratio = chaos["p99"] / three["p99"] if three["p99"] else 0.0

    rows = [
        ["1 node  (cache %d)" % CAPACITY, single["n"],
         f"{single['wall']:.2f} s", f"{single['n'] / single['wall']:.1f} req/s",
         f"{single['hits']:.0f} hits / {single['searches']:.0f} searches"],
        ["3 nodes (cache %d each)" % CAPACITY, three["n"],
         f"{three['wall']:.2f} s", f"{three['n'] / three['wall']:.1f} req/s",
         f"{three['hits']:.0f} hits / {three['searches']:.0f} searches "
         f"({ratio:.1f}x)"],
        ["3 nodes, 1 killed mid-run", chaos["n"], f"{chaos['wall']:.2f} s",
         f"{chaos['failed']} lost, {chaos['failovers']:.0f} failovers",
         f"p99 {chaos['p99'] * 1e3:.1f} ms vs healthy "
         f"{three['p99'] * 1e3:.1f} ms"],
    ]
    text = format_table(
        ["configuration", "requests", "wall", "throughput", "effect"],
        rows,
        title=f"E18: sharded cluster scale-out [{MODE}], {unique} unique "
              f"regions x {REPEATS} interleaved repeats, budget {BUDGET}")
    data = {
        "mode": MODE, "unique_regions": unique, "repeats": REPEATS,
        "capacity": CAPACITY, "budget": BUDGET,
        "single_wall": single["wall"], "three_wall": three["wall"],
        "ratio": ratio, "healthy_p99_s": three["p99"],
        "chaos_p99_s": chaos["p99"], "chaos_p99_ratio": p99_ratio,
        "chaos_failed": chaos["failed"], "chaos_failovers": chaos["failovers"],
        "remote_hits": chaos["remote_hits"],
    }
    record_table("E18_cluster", text, data=data)
    return data


def test_e18_cluster(benchmark):
    data = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Acceptance criterion: 3 fixed-spec nodes >= 2x one on the repeat
    # workload, and no silent regression vs the committed reference.
    assert data["ratio"] >= 2.0
    reference = json.loads(_REFERENCE.read_text())[MODE]["ratio"]
    assert data["ratio"] >= 0.5 * reference
    # Chaos: kill-one-node completes with zero lost requests and p99
    # within 3x of the healthy cluster.
    assert data["chaos_failed"] == 0
    assert data["chaos_p99_s"] <= 3.0 * data["healthy_p99_s"]
    # The remote tier produced at least one genuine cross-node hit.
    assert data["remote_hits"] >= 1
