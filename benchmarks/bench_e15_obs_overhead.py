"""E15 — observability overhead: spans, metrics, SLO and flight recorder.

The instrumentation added for the induction service (hierarchical spans,
histogram metrics, structured trace events, and — since the cluster
observability plane — per-request SLO accounting, flight-recorder
digests and histogram exemplars) runs on the hot path of every
``induce()`` call, so it must be cheap enough to leave on.  This
experiment measures the same branch-and-bound workload under increasing
observability:

- *off*       — no tracer: spans still propagate trace ids (the code
  never branches on whether tracing is on) but nothing is emitted;
- *memory*    — a :class:`MemoryTracer` sink (what workers use to record
  spans for replay across the process boundary);
- *jsonl*     — a :class:`JsonlTracer` writing every span and event to
  disk under its interleave-safe lock;
- *full*      — everything the server does per request: a JSONL sink
  tee'd with a per-request :class:`MemoryTracer` recorder, one
  :class:`SLOTracker` sample, one :class:`FlightRecorder` consideration,
  and an exemplar-carrying histogram observation.

The four variants run interleaved, call by call: each round times one
call of every variant, in an order that rotates from round to round, so
host drift over the run weighs on all of them alike.  Each row reports
mean wall time per call and the median, over the rounds, of the call's
ratio to the same round's uninstrumented call.  Honest accounting: the
ratios depend on how search-heavy the region is — a huge search
amortizes instrumentation to nothing, an all-cache-hit run is dominated
by it — so the table reports a small-but-real search where overhead is
most visible, rather than asserting a machine-dependent ratio.  Hard assertions: the JSONL
runs must leave parseable span trees behind, and the *full* ratio must
not silently regress past the committed ``BENCH_obs.json`` reference
(with generous tolerance — it gates a 2x blow-up, not scheduler noise;
the gated figure is the median per-round ratio).
"""

import json
import pathlib
import statistics
import time

from conftest import api_induce, bench_seed, record_table
from repro.core import maspar_cost_model
from repro.core.search import SearchConfig
from repro.obs import (
    FlightRecorder, JsonlTracer, MemoryTracer, SLOTracker, TeeTracer,
    build_traces, load_span_events, span,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.util import format_table
from repro.workloads import RandomRegionSpec, random_region

MODEL = maspar_cost_model()
CALLS = 40
VARIANTS = ("off", "memory", "jsonl", "full")

_REFERENCE = pathlib.Path(__file__).parent / "BENCH_obs.json"


def bench_region(seed=7):
    return random_region(
        RandomRegionSpec(num_threads=4, min_len=6, max_len=6,
                         vocab_size=8, overlap=0.6, private_vocab=False),
        seed=bench_seed(seed))


class _Variants:
    """One timed ``induce()`` call per variant, each with its own metrics
    registry and sinks for the whole run."""

    def __init__(self, region, jsonl, sink) -> None:
        self.region = region
        self.cfg = SearchConfig(node_budget=20_000)
        self.registries = {name: MetricsRegistry() for name in VARIANTS}
        self.tracers = {"off": None, "memory": MemoryTracer(),
                        "jsonl": jsonl}
        self.sink = sink
        self.slo = SLOTracker()
        self.flightrec = FlightRecorder()

    def call(self, name: str, index: int) -> float:
        with use_registry(self.registries[name]):
            if name == "full":
                return self._full(index)
            t0 = time.perf_counter()
            api_induce(self.region, MODEL, config=self.cfg,
                       tracer=self.tracers[name])
            return time.perf_counter() - t0

    def _full(self, index: int) -> float:
        """Per-call cost of the complete server-side observability plane."""
        t0 = time.perf_counter()
        recorder = MemoryTracer()
        tee = TeeTracer(self.sink, recorder)
        with span("bench.request", tee) as request:
            api_induce(self.region, MODEL, config=self.cfg, tracer=tee)
        induce_s = time.perf_counter() - t0
        self.slo.record(induce_s, ok=True)
        self.flightrec.record(fingerprint=f"bench-{index}", outcome="ok",
                              wall_s=induce_s, trace=request.trace_id,
                              spans=recorder.events)
        self.registries["full"].observe("bench_request_seconds", induce_s,
                                        trace_id=request.trace_id)
        return time.perf_counter() - t0


def timed_rounds(region, jsonl_path, full_path) -> dict[str, list[float]]:
    """``CALLS`` rounds, each timing one call of every variant."""
    walls: dict[str, list[float]] = {name: [] for name in VARIANTS}
    with JsonlTracer(jsonl_path) as jsonl, JsonlTracer(full_path) as sink:
        variants = _Variants(region, jsonl, sink)
        for index in range(CALLS):
            shift = index % len(VARIANTS)
            for name in VARIANTS[shift:] + VARIANTS[:shift]:
                walls[name].append(variants.call(name, index))
    assert variants.slo.status()["requests_total"] == CALLS
    assert variants.flightrec.counts()["considered"] == CALLS
    return walls


def run_experiment(tmp_path):
    region = bench_region()
    # Warm imports and allocator before measuring.
    for _ in range(CALLS):
        api_induce(region, MODEL, config=SearchConfig(node_budget=20_000))

    jsonl_path = tmp_path / "bench_trace.jsonl"
    full_path = tmp_path / "bench_full.jsonl"
    walls = timed_rounds(region, jsonl_path, full_path)

    trees = build_traces(load_span_events(jsonl_path))
    assert len(trees) == CALLS
    assert all(t.roots[0].name == "induce" for t in trees)
    full_trees = build_traces(load_span_events(full_path))
    assert len(full_trees) == CALLS
    assert all(t.roots[0].name == "bench.request" for t in full_trees)

    mean = {name: statistics.fmean(w) for name, w in walls.items()}
    ratio = {name: statistics.median(
        call / off for call, off in zip(walls[name], walls["off"]))
        for name in VARIANTS}
    labels = {"off": "off (ids only)", "memory": "memory sink",
              "jsonl": "jsonl sink", "full": "full obs plane"}
    rows = [[labels[name], f"{mean[name] * 1e3:.3f}",
             f"{ratio[name]:.2f}x"] for name in VARIANTS]
    table = format_table(
        ["tracing", "mean wall (ms/call)", "vs off (median per round)"],
        rows,
        title=f"E15: observability overhead ({CALLS} interleaved rounds "
              f"of induce() calls, {region.num_ops} ops)")
    data = {
        "rows": rows,
        "off_ms": mean["off"] * 1e3,
        "full_ms": mean["full"] * 1e3,
        "memory_ratio": ratio["memory"],
        "jsonl_ratio": ratio["jsonl"],
        "full_ratio": ratio["full"],
    }
    record_table("E15_obs_overhead", table, data=data)
    return data


def test_e15_obs_overhead(tmp_path):
    data = run_experiment(tmp_path)
    # Regression gate: the full plane's median per-round overhead ratio
    # must stay within 2x of the committed reference (with an absolute floor so very fast
    # machines, where a few microseconds of bookkeeping is a large
    # *fraction*, don't flake the gate).
    reference = json.loads(_REFERENCE.read_text())["full"]["ratio"]
    assert data["full_ratio"] <= max(2.0 * reference, 1.5), (
        f"full obs plane overhead {data['full_ratio']:.2f}x exceeds gate "
        f"(reference {reference:.2f}x)")
