"""The benchmark's workloads, timed loop, checks and metrics.

Imported by ``run.py`` once it has found the program's source.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro import api
from repro.core.costmodel import CostModel
from repro.obs import MemoryTracer
from repro.service import ServiceClient

from reqbench import replycheck, streams
from reqbench.fleet import Fleet, peak_rss_mb
from reqbench.hostprobe import HostProbe
from reqbench.ledger import (CLIENT_METHODS, CLIENT_TARGETS, LOCAL_METHODS,
                             LOCAL_TARGETS, Wrappers, span_layers)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MICRO_MODEL = CostModel(class_cost=streams.MICRO_COSTS,
                        mask_overhead=streams.MICRO_MASK,
                        default_cost=streams.MICRO_DEFAULT)

#: slots: requests per pass (200-999 make p95 the highest of the
#: percentiles 50/90/95/99/99.9 with at least ten samples beyond it);
#: pass_s: one pass's duration on the reference host, which sets the pass
#: count from ``--seconds``; setups: set-up samples per run.
WORKLOADS = {
    "local-cold": {"slots": 400, "pass_s": 0.75, "setups": 7},
    "local-search": {"slots": 200, "pass_s": 7.8, "setups": 7},
    "service-repeat": {"slots": 400, "pass_s": 5.5, "setups": 5},
    "routed-repeat": {"slots": 400, "pass_s": 1.5, "setups": 5},
}
LADDER = (50, 90, 95, 99, 99.9)
BLOCK_S = 0.1
WARMUP = 20

END_TO_END_UNITS = {
    "req_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
    "cost_ratio": "ratio", "optimal_share": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "ops.self_ms": "ms", "costmodel.tables": "count", "dag.calls": "count",
    "dag.self_ms": "ms", "greedy.self_ms": "ms", "verify.calls": "count",
    "verify.self_ms": "ms", "serial.self_ms": "ms", "pipeline.self_ms": "ms",
    "engines.self_ms": "ms", "engines.nodes_per_s": "1/s",
    "engines.nodes": "count", "engines.exhausted_share": "ratio",
    "setup.import_s": "s", "setup.ready_s": "s", "client.connects": "count",
    "client.connect_ms": "ms", "protocol.codec_ms": "ms",
    "server.queue_wait_ms": "ms", "server.request_ms": "ms",
    "server.dispatch_ms": "ms", "server.cache_hit_share": "ratio",
    "workers.execute_ms": "ms", "workers.ipc_ms": "ms",
    "workers.retries": "count", "router.route_ms": "ms",
    "router.attempts": "count", "router.cache_hit_share": "ratio",
    "remotecache.peer_hits": "count", "trace.overhead": "ratio",
}
_LOCAL_LAYERS = ("ops.self_ms", "costmodel.tables", "dag.calls",
                 "dag.self_ms", "greedy.self_ms", "verify.calls",
                 "verify.self_ms", "serial.self_ms", "pipeline.self_ms",
                 "engines.self_ms", "setup.import_s", "trace.overhead")
_SERVED_LAYERS = ("setup.ready_s", "protocol.codec_ms",
                  "server.queue_wait_ms", "server.request_ms",
                  "server.dispatch_ms", "workers.execute_ms",
                  "workers.ipc_ms", "trace.overhead")
#: Layers each workload must reach: a zero here fails the traced run.
#: (``client.connects`` is left out: keeping connections open is planned.)
MUST_REACH = {
    "local-cold": _LOCAL_LAYERS + ("engines.nodes",),
    "local-search": _LOCAL_LAYERS + ("engines.nodes", "engines.nodes_per_s",
                                     "engines.exhausted_share"),
    "service-repeat": _SERVED_LAYERS + ("server.cache_hit_share",),
    "routed-repeat": _SERVED_LAYERS + ("router.route_ms", "router.attempts",
                                       "router.cache_hit_share"),
}
#: Per-request counts of today's program, printed beside the measured ones
#: so later changes to them show.
BASELINE = {
    "local-cold": {"dag.calls": 2, "verify.calls": 2, "costmodel.tables": 2},
    "local-search": {"dag.calls": 2, "verify.calls": 2,
                     "costmodel.tables": 2},
    "service-repeat": {"client.connects": 1, "server.cache_hit_share": 0.9},
    "routed-repeat": {"client.connects": 1, "router.cache_hit_share": 0.9},
}

_IMPORT_SAMPLE = """
import json, sys, time
spec = json.loads(sys.stdin.read())
start = time.perf_counter()
import repro.api
imported = time.perf_counter()
from repro.core.costmodel import CostModel
model = CostModel(class_cost=spec["costs"], mask_overhead=spec["mask"],
                  default_cost=spec["default"]) if spec["costs"] else "maspar"
repro.api.InductionRequest(region=spec["text"], model=model,
                           budget=spec["budget"])
ready = time.perf_counter()
print(json.dumps([imported - start, ready - start]))
"""


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def top_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    return max(p for p in LADDER if count * (100 - p) / 100 >= 10)


class Run:
    """One benchmark run: its stream, probe, records and checker state."""

    def __init__(self, args) -> None:
        spec = WORKLOADS[args.workload]
        self.workload = args.workload
        self.trace = bool(args.trace)
        self.slots = spec["slots"]
        passes = max(1, round(args.seconds / spec["pass_s"]))
        if self.trace:
            # Traced runs alternate untraced and traced passes, so the
            # tracing overhead is measured on the same stream.
            passes = max(2, passes + passes % 2)
        self.passes = passes
        self.setups = spec["setups"]
        self.stream = streams.build(args.workload, args.seed, self.slots,
                                    passes)
        self.digest = streams.digest(self.stream)
        self.probe = HostProbe()
        self.attempted = 0
        self.failures: list[str] = []
        self.parsed: dict = {}
        self.quality: list[tuple[float, bool]] = []
        # Scaled latencies of each slot over the untraced passes; scaled
        # wall time and request count of untraced (False) and traced passes.
        self.latency: dict[int, list[float]] = defaultdict(list)
        self.wall = {False: 0.0, True: 0.0}
        self.requests = {False: 0, True: 0}
        self.layers: dict[str, float] = defaultdict(float)
        self.setup_samples: list[float] = []
        self.layer_setup: list[float] = []
        self.notes: list[str] = []

    # -- checking ----------------------------------------------------------

    def check(self, spec, result, where: str) -> bool:
        self.attempted += 1
        if isinstance(result, Exception):
            self.failures.append(f"{where}: {type(result).__name__}: "
                                 f"{result}")
            return False
        region = self.parsed.get(spec)
        if region is None:
            region = self.parsed[spec] = replycheck.parse(spec)
        problem = replycheck.check(region, result)
        if problem is None and result.degraded:
            problem = "degraded reply"
        if problem is not None:
            self.failures.append(f"{where}: {problem}")
            return False
        return True

    # -- the timed loop ----------------------------------------------------

    def drive(self, send, requests_for, on_block=None) -> None:
        """Send every pass in blocks bracketed by host probes.

        ``send(request)`` returns ``(result, queue_wait_s)``;
        ``requests_for(pass, traced)`` gives one pass's requests;
        ``on_block(traced, factor, records)`` sees each finished block.
        """
        for p, row in enumerate(self.stream.rows):
            traced = self.trace and p % 2 == 1
            reqs = requests_for(p, traced)
            i = 0
            while i < len(row):
                before = self.probe.sample()
                records = []
                block_start = perf_counter()
                while i < len(row):
                    start = perf_counter()
                    try:
                        result, wait = send(reqs[i])
                    except Exception as exc:  # noqa: BLE001 - counted failed
                        result, wait = exc, 0.0
                    records.append((i, perf_counter() - start, wait, result,
                                    reqs[i]))
                    i += 1
                    if perf_counter() - block_start >= BLOCK_S:
                        break
                wall = perf_counter() - block_start
                factor = self.probe.factor(before, self.probe.sample())
                waits = sum(record[2] for record in records)
                self.wall[traced] += waits + (wall - waits) / factor
                self.requests[traced] += len(records)
                for slot, took, wait, result, _request in records:
                    if not self.check(row[slot], result,
                                      f"pass {p} slot {slot}"):
                        continue
                    if not traced:
                        self.latency[slot].append(
                            wait + (took - wait) / factor)
                    self.quality.append(
                        (result.cost / result.serial_cost, result.optimal))
                if on_block is not None:
                    on_block(traced, factor, records)

    # -- workloads ---------------------------------------------------------

    def request(self, spec, tracer=None):
        model = MICRO_MODEL if spec.model == "micro" else "maspar"
        return api.InductionRequest(region=spec.text, model=model,
                                    budget=spec.budget, tracer=tracer)

    def import_sample(self) -> tuple[float, float]:
        spec = self.stream.rows[0][0]
        payload = {"text": spec.text, "budget": spec.budget,
                   "costs": streams.MICRO_COSTS if spec.model == "micro"
                   else None, "mask": streams.MICRO_MASK,
                   "default": streams.MICRO_DEFAULT}
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", _IMPORT_SAMPLE],
                             input=json.dumps(payload), capture_output=True,
                             text=True, env=env, cwd=ROOT, check=True,
                             timeout=60)
        imported, ready = json.loads(out.stdout.strip().splitlines()[-1])
        return imported, ready

    def run_local(self) -> float:
        for _ in range(self.setups):
            before = self.probe.sample()
            imported, ready = self.import_sample()
            factor = self.probe.factor(before, self.probe.sample())
            self.setup_samples.append(ready / factor)
            self.layer_setup.append(imported / factor)
        row = self.stream.rows[0]
        reqs = [self.request(spec) for spec in row]
        for i in range(min(WARMUP, len(reqs))):
            try:
                result = api.induce(reqs[i])
            except Exception as exc:  # noqa: BLE001 - counted failed
                result = exc
            self.check(row[i], result, f"warm-up {i}")
        wrappers = Wrappers(LOCAL_TARGETS, LOCAL_METHODS)

        def requests_for(_pass, traced):
            wrappers.uninstall()
            if traced:
                wrappers.install()
            return reqs

        def send(request):
            return api.induce(request), 0.0

        def on_block(traced, factor, records):
            if not traced:
                return
            took_s, calls = wrappers.delta()
            for layer, seconds in took_s.items():
                self.layers[f"{layer}.s"] += seconds / factor
            for layer, count in calls.items():
                self.layers[f"{layer}.n"] += count
            for _slot, _took, _wait, result, _request in records:
                if isinstance(result, Exception):
                    continue
                for stats in result.search_stats:
                    self.layers["nodes"] += stats.nodes_expanded
                    self.layers["exhausted"] += stats.budget_exhausted

        try:
            self.drive(send, requests_for, on_block)
        finally:
            wrappers.uninstall()
        if wrappers.missing:
            self.notes.append(f"not wrapped: {', '.join(wrappers.missing)}")
        return peak_rss_mb(os.getpid())

    def run_served(self, kind: str) -> float:
        fleet = None
        try:
            for k in range(self.setups):
                fleet = Fleet(kind, ROOT)
                probes: list[float] = []
                took = fleet.start(lambda: probes.append(self.probe.sample()))
                # Each daemon's start-up is scaled by the probes around it.
                self.setup_samples.append(sum(
                    t / self.probe.factor(a, b)
                    for t, a, b in zip(took, probes, probes[1:])))
                if k + 1 < self.setups:
                    fleet.stop()
            client = ServiceClient(fleet.endpoint())
            for i, spec in enumerate(self.stream.warm):
                try:
                    result = client.submit(self.request(spec))
                except Exception as exc:  # noqa: BLE001 - counted failed
                    result = exc
                self.check(spec, result, f"hot set {i}")
            peer_hits = sum(s.get("cache_remote_hits", 0)
                            for s in fleet.node_stats())
            wrappers = Wrappers(CLIENT_TARGETS, CLIENT_METHODS)

            def requests_for(p, traced):
                wrappers.uninstall()
                if traced:
                    wrappers.install()
                return [self.request(spec, MemoryTracer() if traced
                                     else None)
                        for spec in self.stream.rows[p]]

            def send(request):
                result = client.submit(request)
                wait = 0.0 if result.extras.get("router_cache") else \
                    float(result.extras.get("queue_wait_s", 0.0))
                return result, wait

            def on_block(traced, factor, records):
                if not traced:
                    return
                took_s, calls = wrappers.delta()
                for layer in ("connect", "codec"):
                    self.layers[f"{layer}.s"] += took_s.get(layer, 0.0) / factor
                self.layers["connect.n"] += calls.get("connect", 0)
                for _slot, _took, wait, result, request in records:
                    if isinstance(result, Exception):
                        continue
                    spans = span_layers(request.tracer.events)
                    extras = result.extras
                    cached = bool(extras.get("router_cache"))
                    self.layers["queue_wait.s"] += wait
                    self.layers["request.s"] += wait + \
                        (spans["request_s"] - wait) / factor
                    for key in ("dispatch_s", "ipc_s", "execute_s",
                                "route_s"):
                        self.layers[key] += spans[key] / factor
                    self.layers["forwards"] += spans["forwards"]
                    self.layers["attempts"] += spans["attempts"]
                    self.layers["router_cache"] += cached
                    if cached:
                        continue
                    self.layers["server_cache"] += \
                        extras.get("disposition") == "cache"
                    self.layers["retries"] += extras.get("retries", 0)
                    if extras.get("disposition") == "miss":
                        for stats in result.search_stats:
                            self.layers["nodes"] += stats.nodes_expanded
                            self.layers["exhausted"] += \
                                stats.budget_exhausted

            try:
                self.drive(send, requests_for, on_block)
            finally:
                wrappers.uninstall()
            if wrappers.missing:
                self.notes.append(
                    f"not wrapped: {', '.join(wrappers.missing)}")
            self.layers["peer_hits"] = sum(
                s.get("cache_remote_hits", 0)
                for s in fleet.node_stats()) - peer_hits
            rss = peak_rss_mb(os.getpid()) + fleet.peak_rss_mb()
            fleet.stop()
            fleet = None
            return rss
        finally:
            if fleet is not None:
                fleet.kill()

    # -- reporting ---------------------------------------------------------

    def end_to_end(self, rss: float) -> dict[str, float]:
        samples = [statistics.median(v) for v in self.latency.values()]
        ratios = [q[0] for q in self.quality]
        return {
            "req_per_s": self.requests[False] / self.wall[False],
            "latency_p50_ms": percentile(samples, 50) * 1e3,
            "latency_p95_ms": percentile(samples, 95) * 1e3,
            "cost_ratio": statistics.fmean(ratios),
            "optimal_share": sum(q[1] for q in self.quality) / len(ratios),
            "setup_s": statistics.median(self.setup_samples),
            "peak_rss_mb": rss,
        }

    def per_layer(self) -> dict[str, float]:
        n = self.requests[True]
        lay = self.layers
        out = dict.fromkeys(LAYER_UNITS, 0.0)

        def per_req_ms(key):
            return lay.get(key, 0.0) / n * 1e3

        if self.workload.startswith("local"):
            for name in ("ops", "dag", "greedy", "verify", "serial",
                         "pipeline", "engines"):
                out[f"{name}.self_ms"] = per_req_ms(f"{name}.s")
            out["dag.calls"] = lay.get("dag.n", 0) / n
            out["verify.calls"] = lay.get("verify.n", 0) / n
            out["costmodel.tables"] = lay.get("tables.n", 0) / n
            out["setup.import_s"] = statistics.median(self.layer_setup)
            engine_s = lay.get("engines.s", 0.0)
            out["engines.nodes_per_s"] = lay.get("nodes", 0) / engine_s \
                if engine_s else 0.0
        else:
            out["setup.ready_s"] = statistics.median(self.setup_samples)
            out["client.connects"] = lay.get("connect.n", 0) / n
            out["client.connect_ms"] = per_req_ms("connect.s")
            out["protocol.codec_ms"] = per_req_ms("codec.s")
            out["server.queue_wait_ms"] = per_req_ms("queue_wait.s")
            out["server.request_ms"] = per_req_ms("request.s")
            out["server.dispatch_ms"] = per_req_ms("dispatch_s")
            out["server.cache_hit_share"] = lay.get("server_cache", 0) / n
            out["workers.execute_ms"] = per_req_ms("execute_s")
            out["workers.ipc_ms"] = per_req_ms("ipc_s")
            out["workers.retries"] = lay.get("retries", 0) / n
            out["router.route_ms"] = per_req_ms("route_s")
            forwards = lay.get("forwards", 0)
            out["router.attempts"] = lay.get("attempts", 0) / forwards \
                if forwards else 0.0
            out["router.cache_hit_share"] = lay.get("router_cache", 0) / n
            out["remotecache.peer_hits"] = float(lay.get("peer_hits", 0))
        out["engines.nodes"] = lay.get("nodes", 0) / n
        out["engines.exhausted_share"] = lay.get("exhausted", 0) / n
        out["trace.overhead"] = (self.wall[True] / self.requests[True]) / \
            (self.wall[False] / self.requests[False])
        return out
