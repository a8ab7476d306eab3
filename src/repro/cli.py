"""Command-line interface: ``python -m repro <command>``.

Mirrors the user-facing surface of the 1992 prototype:

- ``compile``  — MIMDC source -> assembly listing or binary object file
  (the ``mimda`` step of §3.1.4);
- ``run``      — execute MIMDC source or an object file on the simulated
  MasPar through the MIMD-on-SIMD interpreter;
- ``induce``   — run CSI (or a baseline) on a textual region file, with
  a persistent content-addressed schedule cache (``--cache-dir``) and a
  JSONL search trace (``--trace``);
- ``stats``    — summarize a ``--trace`` file (nodes, prunes, cache hit
  rate, wall time, per-field p50/p90/p99);
- ``trace``    — render the hierarchical span trees in a ``--trace`` file
  (one tree per trace id, with per-phase self-time percentages);
- ``flightrec`` — pull captured request digests from a running server or
  router's flight recorder and replay the most recent one as a span tree;
- ``slo``      — render a running server or router's SLO burn-rate table;
- ``select``   — the "master shell script" step of §4.3: compute expected
  op counts, consult the machine database, and report where the program
  should run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main"]


def _cmd_compile(args) -> int:
    from repro.isa import disassemble, encode_object
    from repro.lang import compile_mimdc

    source = Path(args.source).read_text()
    unit = compile_mimdc(source, optimize=not args.no_optimize)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(encode_object(unit.program))
        print(f"wrote {args.output}: {len(unit.program)} instructions, "
              f"{len(unit.program.constants)} constants")
    if args.asm or not args.output:
        print(disassemble(unit.program), end="")
    if args.counts:
        print("; expected execution counts (for target selection):")
        for op, count in sorted(unit.counts.items()):
            print(f";   {op:8s} {count:12.2f}")
    return 0


def _load_program(path: str, optimize: bool = True):
    from repro.interp.state import MemoryLayout
    from repro.isa import decode_object
    from repro.lang import compile_mimdc

    if path.endswith(".mobj"):
        program = decode_object(Path(path).read_bytes())
        return program, MemoryLayout(), {}
    unit = compile_mimdc(Path(path).read_text(), optimize=optimize)
    return unit.program, unit.layout, unit.globals_map


def _cmd_run(args) -> int:
    import numpy as np

    from repro.interp import FrequencyBias, InterpreterConfig, run_program

    program, layout, globals_map = _load_program(args.source)
    config = InterpreterConfig(
        factored=not args.no_factoring,
        subinterpreters=not args.no_subinterpreters,
        bias=FrequencyBias(period=args.bias) if args.bias else None,
    )
    interp, stats = run_program(program, args.pes, config=config, layout=layout)
    print(f"ran on {args.pes} PEs: {stats.cycles:.1f} SIMD cycles, "
          f"{stats.cycle_count} interpreter cycles, "
          f"{stats.instructions_executed} instructions, "
          f"PE utilization {stats.pe_utilization(args.pes):.3f}")
    for comp, cyc in stats.breakdown.items():
        print(f"  {comp:8s} {cyc:12.1f} cycles")
    for name, addr in sorted(globals_map.items()):
        values = interp.peek_global(addr)
        if np.all(values == values[0]):
            print(f"  {name} = {int(values[0])}")
        else:
            shown = ", ".join(str(int(v)) for v in values[:8])
            more = ", ..." if len(values) > 8 else ""
            print(f"  {name} = [{shown}{more}]")
    return 0


def _describe_result(result) -> list[str]:
    """One rendering for every route's result (an ``InductionResult``)."""
    d = result.as_dict()
    lines = [f"method={d['method']} cost={d['cost']:.1f} "
             f"serial={d['serial_cost']:.1f} "
             f"speedup={d['speedup_vs_serial']:.2f}x"
             + (" [degraded]" if d["degraded"] else "")]
    if result.search_stats:
        lines.append(f"search: {d['nodes']} nodes, optimal={d['optimal']}"
                     + (" [cut at deadline]" if d["deadline_cut"] else ""))
    return lines


def _build_request(args, region_text: str):
    """Shared ``induce``/``submit`` request construction (same flags)."""
    from repro import api

    # The CLI default budget only applies to methods that take one, so
    # `repro induce --method greedy` works without the user having to know
    # which knobs belong to which method; an *explicit* --budget on a
    # searchless method still errors, matching the api-level knob table.
    budget = args.budget
    if budget is None and args.method in api.KNOB_METHODS["budget"]:
        budget = 100_000
    try:
        return api.InductionRequest(
            region=region_text, model=args.model, method=args.method,
            budget=budget,
            deadline_s=args.deadline,
            vn=getattr(args, "vn", "off"))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_induce(args) -> int:
    from repro import api
    from repro.core import ScheduleCache, lower_schedule, render_simd_code
    from repro.obs import JsonlTracer

    cache = ScheduleCache(cache_dir=args.cache_dir) if args.cache_dir else None
    tracer = JsonlTracer(args.trace) if args.trace else None
    request = _build_request(args, Path(args.region).read_text())
    request.cache = cache
    request.tracer = tracer
    try:
        result = api.induce(request)
        for line in _describe_result(result):
            print(line)
        if cache is not None:
            print(f"cache: {'hit' if result.cache_hit else 'miss'}")
            snap = cache.counters.snapshot()
            print(f"cache counters: hits={snap.get('hits', 0):.0f} "
                  f"misses={snap.get('misses', 0):.0f} "
                  f"stores={snap.get('stores', 0):.0f}")
        if tracer is not None:
            print(f"trace: {tracer.events_written} events -> {tracer.path}")
    finally:
        if tracer is not None:
            tracer.close()
    region = request.resolved_region()
    print(render_simd_code(
        lower_schedule(result.schedule, region, request.resolved_model()),
        region.num_threads))
    return 0


def _cmd_serve(args) -> int:
    from repro.core import ScheduleCache
    from repro.obs import JsonlTracer
    from repro.service import InductionServer, ServerConfig, ServiceClient

    if args.status or args.stop or args.metrics:
        with ServiceClient(args.socket) as client:
            if args.status:
                print(f"service at {args.socket}:")
                for name, value in sorted(client.stats().items()):
                    print(f"  {name:32s} {value:g}")
            if args.metrics:
                print(client.metrics(), end="")
            if args.stop:
                client.shutdown(drain=True)
                print("server drained and stopped")
        return 0

    cache = ScheduleCache(cache_dir=args.cache_dir) if args.cache_dir \
        else ScheduleCache()
    tracer = JsonlTracer(args.trace) if args.trace else None
    import os
    config = ServerConfig(
        endpoint=args.socket,
        workers=args.jobs or (os.cpu_count() or 1),
        queue_size=args.queue_size,
        default_deadline_s=args.deadline,
        allow_chaos=args.allow_chaos,
    )
    slo = flightrec = None
    if args.slo_latency is not None:
        from repro.obs import (FlightConfig, FlightRecorder, SLOConfig,
                               SLOTracker)
        # One threshold drives both: the SLO latency objective and the
        # flight recorder's "slow enough to capture" predicate.
        slo = SLOTracker(SLOConfig(latency_threshold_s=args.slo_latency))
        flightrec = FlightRecorder(
            FlightConfig(slow_threshold_s=args.slo_latency))
    server = InductionServer(config, cache=cache, tracer=tracer, slo=slo,
                             flightrec=flightrec)
    print(f"induction service listening on {server.endpoint} "
          f"(workers={config.workers}, queue={config.queue_size})", flush=True)
    if args.metrics_port is not None:
        from repro.obs import start_metrics_server
        http = start_metrics_server(server.render_metrics, args.metrics_port)
        print(f"metrics endpoint on http://127.0.0.1:{http.port}/metrics",
              flush=True)
    try:
        while not server.wait_stopped(0.5):
            pass
    except KeyboardInterrupt:
        print("draining in-flight requests...")
        server.shutdown(drain=True)
    finally:
        if tracer is not None:
            tracer.close()
    print("server stopped")
    return 0


def _cmd_submit(args) -> int:
    import time
    from concurrent.futures import ThreadPoolExecutor

    from repro.obs import JsonlTracer
    from repro.service import ServiceBusy, ServiceClient

    requests = []
    for path in args.region:
        request = _build_request(args, Path(path).read_text())
        for i in range(args.repeat):
            requests.append((f"{path}" + (f"[{i}]" if args.repeat > 1 else ""),
                             request))
    client = ServiceClient(args.socket)
    tracer = JsonlTracer(args.trace) if args.trace else None
    if tracer is not None:
        for _, request in requests:
            request.tracer = tracer

    def one(item):
        label, request = item
        try:
            return label, client.submit(request), None
        except ServiceBusy as exc:
            return label, None, exc

    start = time.monotonic()
    with client:
        if args.concurrency > 1:
            with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
                outcomes = list(pool.map(one, requests))
        else:
            outcomes = [one(item) for item in requests]
    wall = time.monotonic() - start

    ok = busy = 0
    try:
        for label, result, exc in outcomes:
            if result is None:
                busy += 1
                print(f"{label}: busy ({exc})")
                continue
            ok += 1
            d = result.as_dict()
            print(f"{label}: cost={d['cost']:.1f} "
                  f"speedup={d['speedup_vs_serial']:.2f}x "
                  f"disposition={result.extras.get('disposition', '?')}"
                  + (" [cut at deadline]" if d["deadline_cut"] else "")
                  + (" [degraded]" if d["degraded"] else ""))
            if tracer is not None:
                fields = {k: v for k, v in d.items() if k != "kind"}
                tracer.emit("submit", label=label, **fields)
        rate = ok / wall if wall else float("inf")
        print(f"submitted {len(outcomes)} requests: {ok} ok, {busy} busy, "
              f"{wall:.3f}s ({rate:.1f} req/s)")
    finally:
        if tracer is not None:
            tracer.close()
    return 0 if busy == 0 else 1


def _endpoint_arg(spec: str):
    """argparse type for --socket/--peers: lenient endpoint parsing."""
    from repro.service.endpoint import Endpoint

    try:
        return Endpoint.parse_lenient(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cluster_config(args):
    from repro.cluster import ClusterConfig, RetryPolicy

    try:
        return ClusterConfig(
            endpoints=tuple(args.peers),
            retry=RetryPolicy(attempts=args.retries),
            probe_interval_s=args.probe_interval,
            mark_down_after=args.mark_down_after,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_cluster_serve(args) -> int:
    import os

    from repro.cluster import RemoteScheduleCache
    from repro.core import ScheduleCache
    from repro.service import InductionServer, ServerConfig

    config = _cluster_config(args)
    if str(args.socket) not in config.node_names:
        raise SystemExit(
            f"--socket {args.socket} must be one of the --peers endpoints "
            "(a node has to know its own ring position)")
    local = ScheduleCache(capacity=args.cache_capacity,
                          cache_dir=args.cache_dir)
    cache = RemoteScheduleCache(local, config, self_name=str(args.socket))
    server = InductionServer(
        ServerConfig(endpoint=args.socket,
                     workers=args.jobs or (os.cpu_count() or 1),
                     queue_size=args.queue_size,
                     default_deadline_s=args.deadline,
                     allow_chaos=args.allow_chaos),
        cache=cache)
    print(f"cluster node listening on {server.endpoint} "
          f"(peers={len(config.endpoints)})", flush=True)
    try:
        while not server.wait_stopped(0.5):
            pass
    except KeyboardInterrupt:
        print("draining in-flight requests...")
        server.shutdown(drain=True)
    print("node stopped")
    return 0


def _cmd_cluster_route(args) -> int:
    from repro.cluster import ClusterRouter
    from repro.obs import JsonlTracer

    config = _cluster_config(args)
    tracer = JsonlTracer(args.trace) if args.trace else None
    slo = flightrec = None
    if args.slo_latency is not None:
        from repro.obs import (FlightConfig, FlightRecorder, SLOConfig,
                               SLOTracker)
        slo = SLOTracker(SLOConfig(latency_threshold_s=args.slo_latency))
        flightrec = FlightRecorder(
            FlightConfig(slow_threshold_s=args.slo_latency))
    router = ClusterRouter(args.socket, config, tracer=tracer,
                           slo=slo, flightrec=flightrec)
    print(f"cluster router listening on {router.endpoint} "
          f"(nodes={len(config.endpoints)})", flush=True)
    if args.metrics_port is not None:
        from repro.obs import start_metrics_server
        http = start_metrics_server(router.render_metrics, args.metrics_port)
        print(f"metrics endpoint on http://127.0.0.1:{http.port}/metrics",
              flush=True)
    try:
        while not router.wait_stopped(0.5):
            pass
    except KeyboardInterrupt:
        router.shutdown()
    finally:
        if tracer is not None:
            tracer.close()
    print("router stopped")
    return 0


def _router_op(endpoint, message: dict, timeout: float = 30.0) -> dict:
    """One framed request/reply against a running router."""
    from repro.service import protocol

    try:
        with endpoint.connect(timeout=timeout) as sock:
            protocol.send_message(sock, message)
            reply = protocol.recv_message(sock)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"router at {endpoint} unreachable: {exc}") from exc
    if reply is None:
        raise SystemExit(f"router at {endpoint} closed the connection")
    return reply


def _node_slo_cell(slo: dict) -> str:
    """One-word SLO status for the cluster table, from probed gauges."""
    if not slo:
        return "-"
    burns = [v for k, v in slo.items() if "_burn_" in k]
    worst = max(burns) if burns else 0.0
    state = "ok" if slo.get("slo_healthy", 1.0) else "burning"
    return f"{state} ({worst:.2f}x)"


def _cmd_cluster_status(args) -> int:
    import json

    from repro.util.tables import format_table

    reply = _router_op(args.socket, {"op": "cluster_status"})
    if reply.get("status") != "cluster":
        raise SystemExit(f"bad cluster_status reply: {reply}")
    cluster = reply["cluster"]
    if args.json:
        print(json.dumps(cluster, indent=2, sort_keys=True))
        return 0
    from repro.service.endpoint import Endpoint

    counters = cluster["counters"]
    rows = []
    labels = set()
    for node in cluster["nodes"]:
        # Per-node counters are keyed by the metric-safe endpoint label.
        label = Endpoint.parse_lenient(node["endpoint"]).label
        labels.add(label)
        rows.append([
            node["endpoint"],
            node["state"],
            f"{node['queue_depth']:g}",
            f"{counters.get(f'route_{label}', 0):g}",
            f"{counters.get(f'retry_{label}', 0):g}",
            f"{counters.get(f'failover_{label}', 0):g}",
            _node_slo_cell(node.get("slo") or {}),
            node["last_error"] or "",
        ])
    print(format_table(
        ["node", "state", "queue", "routed", "retries", "failovers",
         "slo", "last error"],
        rows,
        title=(f"cluster via {args.socket}: {len(cluster['nodes'])} nodes, "
               f"{len(cluster['ring_nodes'])} routable, "
               f"inflight={cluster['inflight']}, "
               f"uptime={cluster['uptime_s']:.0f}s")))
    # Per-node counters are in the table; print only the aggregates below.
    per_node = {f"{kind}_{label}" for label in labels
                for kind in ("route", "retry", "failover")}
    for name, value in sorted(counters.items()):
        if name not in per_node:
            print(f"  {name:32s} {value:g}")
    return 0


def _cmd_cluster_drain(args) -> int:
    reply = _router_op(args.socket,
                       {"op": "cluster_drain", "node": args.node})
    if reply.get("status") != "ok":
        raise SystemExit(f"drain failed: {reply.get('error', reply)}")
    print(f"draining {args.node}: in-flight work finishes, ring stops "
          "routing new requests to it")
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import render_trace_summary, summarize_trace

    print(render_trace_summary(summarize_trace(args.trace)))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import build_traces, load_span_events, render_trace_trees

    events = load_span_events(args.trace)
    trees = build_traces(events)
    if not trees:
        print(f"no span events in {args.trace}")
        return 1
    print(render_trace_trees(trees, trace_id=args.trace_id,
                             last_only=args.last))
    return 0


def _digest_row(digest: dict) -> list:
    flags = [name for name in ("slow", "failed", "degraded", "failed_over")
             if digest.get(name)]
    route = ">".join(digest.get("route") or [])
    return [
        digest["seq"],
        digest["fingerprint"][:12],
        digest["outcome"],
        f"{digest['wall_s'] * 1e3:.1f}ms",
        ",".join(flags) or "-",
        route or "-",
        (digest.get("trace") or "")[:12] or "-",
    ]


def _cmd_flightrec(args) -> int:
    import json

    from repro.obs import build_traces, render_trace_trees
    from repro.service import ServiceClient
    from repro.util.tables import format_table

    client = ServiceClient(args.socket)
    snap = client.flightrec(slow=args.slow, failed=args.failed,
                            last=args.last)
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0
    digests = snap["digests"]
    print(f"flight recorder at {args.socket}: "
          f"{snap['considered']} considered, {snap['captured']} captured, "
          f"{snap['buffered']} buffered, {len(digests)} matching")
    if not digests:
        return 1
    print(format_table(
        ["seq", "fingerprint", "outcome", "wall", "flags", "route", "trace"],
        [_digest_row(d) for d in digests]))
    newest = digests[-1]
    spans = [e for e in (newest.get("spans") or [])
             if e.get("kind") == "span"]
    if spans:
        trees = build_traces(spans)
        print(f"replay of digest #{newest['seq']} "
              f"({len(spans)} recorded spans):")
        print(render_trace_trees(trees))
    else:
        print(f"digest #{newest['seq']} captured no spans")
    return 0


def _render_slo(status: dict) -> str:
    from repro.util.tables import format_table

    rows = []
    for entry in status["objectives"]:
        threshold = (f"<{entry['threshold_s']:g}s"
                     if entry.get("threshold_s") is not None else "ok-rate")
        for window in entry["windows"]:
            rows.append([
                entry["objective"],
                threshold,
                f"{entry['target'] * 100:g}%",
                f"{window['window_s']:g}s",
                window["requests"],
                window["bad"],
                f"{window['burn_rate']:.2f}x",
            ])
    health = "HEALTHY" if status["healthy"] else "BURNING"
    return format_table(
        ["objective", "goal", "target", "window", "requests", "bad", "burn"],
        rows,
        title=(f"SLO {health}: {status['requests_total']} requests "
               "(burn <= 1.00x is within budget)"))


def _cmd_slo(args) -> int:
    import json

    from repro.service import ServiceClient

    status = ServiceClient(args.socket).slo()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(_render_slo(status))
    return 0 if status["healthy"] else 1


def _cmd_fuzz(args) -> int:
    import json
    import os
    import tempfile

    from repro.fuzz import (FuzzConfig, case_from_payload, check_case,
                            entry_needs_vn, fuzz_run, load_corpus)
    from repro.obs import JsonlTracer

    if args.replay:
        try:
            if os.path.isdir(args.replay):
                entries = load_corpus(args.replay)
            else:
                payload = json.loads(Path(args.replay).read_text())
                entries = [(args.replay, case_from_payload(payload["case"]))]
        except Exception as exc:
            print(f"error: cannot load corpus from {args.replay}: {exc}")
            return 1
        if not entries:
            print(f"no corpus entries under {args.replay}")
            return 1
        bad = 0
        for path, case in entries:
            # Entries recorded by a vn_* oracle re-run under the vn battery
            # even without --vn, so they replay against the bug they found.
            found = check_case(case, vn=args.vn or entry_needs_vn(path))
            status = "ok" if not found else "FAIL"
            print(f"{status}  {path}  [{case.describe()}]")
            for failure in found:
                print(f"      {failure}")
            bad += bool(found)
        print(f"replayed {len(entries)} corpus entries, {bad} failing")
        return 1 if bad else 0

    tracer = JsonlTracer(args.trace) if args.trace else None
    try:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as workdir:
            config = FuzzConfig(
                seed=args.seed,
                cases=args.cases,
                max_ops=args.max_ops,
                max_threads=args.max_threads,
                time_budget_s=args.time_budget,
                program_fraction=args.program_fraction,
                cluster_fraction=args.cluster_fraction,
                shrink=not args.no_shrink,
                corpus_dir=args.corpus_dir,
                fail_fast=args.fail_fast,
                workdir=workdir,
                vn=args.vn,
            )
            report = fuzz_run(config, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()

    rate = report.cases_run / report.wall_s if report.wall_s > 0 else 0.0
    print(f"fuzz: seed={report.seed} cases={report.cases_run} "
          f"(regions={report.region_cases}, programs={report.program_cases})")
    print(f"fuzz: {report.wall_s:.2f}s ({rate:.1f} cases/s), "
          f"stopped by {report.stopped_by}")
    if tracer is not None:
        print(f"trace: {args.trace} (summarize with `repro stats {args.trace}`)")
    if report.ok:
        print("fuzz: all oracles agree")
        return 0
    print(f"fuzz: {len(report.failures)} FAILING case(s)")
    for failure in report.failures:
        print(f"  {failure.summary()}")
        for oracle_failure in failure.failures:
            print(f"      {oracle_failure}")
        print(f"      reproduce: repro fuzz --seed {report.seed} "
              f"--cases {failure.case.index + 1}")
    for path in report.corpus_paths:
        print(f"  saved: {path}")
    return 1


def _cmd_select(args) -> int:
    from repro.lang import compile_mimdc
    from repro.sched import select_target
    from repro.workloads.machines import table1_database

    unit = compile_mimdc(Path(args.source).read_text())
    db = table1_database(maspar_load=args.maspar_load)
    selection = select_target(db, unit.counts, args.pes)
    print(f"would run on: {selection.description}")
    print(f"expected execution time: {selection.predicted_time * 1e3:.3f} ms")
    if args.verbose:
        print("candidates considered:")
        for (name, model), t in sorted(selection.candidate_times.items(),
                                       key=lambda kv: kv[1]):
            shown = f"{t * 1e3:.3f} ms" if t != float("inf") else "unsupported"
            print(f"  {name:14s} {model:6s} {shown}")
    return 0


def _cmd_simdc(args) -> int:
    from repro.simdc import compile_simdc, run_simdc

    unit = compile_simdc(Path(args.source).read_text())
    if args.vir:
        print(unit.vir.render())
        return 0
    machine, result = run_simdc(unit, args.pes)
    print(f"ran on {args.pes} PEs: result = {result.value}, "
          f"{result.cycles:.1f} SIMD cycles, {result.steps} VIR steps")
    # Plural non-array values live in executor registers and are gone after
    # the run; arrays persist in PE memory, so report those.
    for name, (base, size) in sorted(unit.array_bases.items()):
        sample = machine.memory.data[:4, base:base + min(size, 4)]
        print(f"  {name}[0:{min(size, 4)}] on PEs 0..3 = {sample.tolist()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Common Subexpression Induction reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MIMDC to MIMD stack code")
    p.add_argument("source", help="MIMDC source file")
    p.add_argument("-o", "--output", help="binary object output (.mobj)")
    p.add_argument("--asm", action="store_true", help="print assembly listing")
    p.add_argument("--counts", action="store_true",
                   help="print expected execution counts")
    p.add_argument("--no-optimize", action="store_true")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("run", help="run MIMDC/.mobj on the simulated MasPar")
    p.add_argument("source", help="MIMDC source or .mobj object file")
    p.add_argument("--pes", type=int, default=64)
    p.add_argument("--no-factoring", action="store_true")
    p.add_argument("--no-subinterpreters", action="store_true")
    p.add_argument("--bias", type=int, default=0,
                   help="frequency-bias period (0 = off)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("induce", help="run CSI on a textual region file")
    p.add_argument("region", help="region file (parse_region syntax)")
    p.add_argument("--method", default="search",
                   choices=["search", "greedy", "factor", "lockstep",
                            "serial"])
    p.add_argument("--model", default="maspar", choices=["maspar", "uniform"])
    p.add_argument("--budget", type=int, default=None,
                   help="branch-and-bound node budget (default 100000; only "
                        "valid for methods that search)")
    p.add_argument("--vn", default="off", choices=["off", "on", "auto"],
                   help="cross-thread value-numbering pre-pass: canonicalize "
                        "equivalent subexpressions before induction (auto = "
                        "keep the rewrite only when it helps)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="wall-clock budget: a search still running then "
                        "returns its best schedule so far, unproven")
    p.add_argument("--trace", metavar="FILE",
                   help="append the request's spans and one JSONL induce "
                        "event to FILE")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent schedule cache directory (content-addressed)")
    p.set_defaults(fn=_cmd_induce)

    p = sub.add_parser(
        "serve", help="run (or query) the long-running induction service")
    p.add_argument("--socket", type=_endpoint_arg, default="/tmp/repro.sock",
                   metavar="ENDPOINT",
                   help="unix:///path or tcp://host:port (bare unix paths "
                        "and host:port accepted)")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes (0 = all cores)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="admission-control bound: most requests waiting for "
                        "a worker; one more gets 'busy'")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="default per-request deadline (requests may override)")
    p.add_argument("--trace", metavar="FILE",
                   help="append the service's spans and one JSONL "
                        "service_request event per reply to FILE")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="persistent schedule cache directory (content-addressed)")
    p.add_argument("--allow-chaos", action="store_true",
                   help="honour client fault injection (tests only)")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="serve Prometheus metrics over HTTP on this "
                        "loopback port (0 = pick a free port)")
    p.add_argument("--slo-latency", type=float, default=None,
                   metavar="SECONDS",
                   help="latency SLO threshold: drives the slo_* burn-rate "
                        "gauges and the flight recorder's slow-capture "
                        "predicate (default 1.0 when unset)")
    p.add_argument("--status", action="store_true",
                   help="print a running server's stats snapshot and exit")
    p.add_argument("--metrics", action="store_true",
                   help="print a running server's Prometheus metrics and exit")
    p.add_argument("--stop", action="store_true",
                   help="drain and stop a running server, then exit")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit region files to a running induction service")
    p.add_argument("region", nargs="+", help="region file(s) (parse_region syntax)")
    p.add_argument("--socket", type=_endpoint_arg, default="/tmp/repro.sock",
                   metavar="ENDPOINT",
                   help="service or cluster-router endpoint (unix:///path, "
                        "tcp://host:port, or the bare legacy forms)")
    p.add_argument("--method", default="search",
                   choices=["search", "greedy", "factor", "lockstep",
                            "serial"])
    p.add_argument("--model", default="maspar", choices=["maspar", "uniform"])
    p.add_argument("--budget", type=int, default=None,
                   help="branch-and-bound node budget (default 100000; only "
                        "valid for methods that search)")
    p.add_argument("--vn", default="off", choices=["off", "on", "auto"],
                   help="server-side value-numbering pre-pass (see "
                        "`repro induce --vn`)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="per-request deadline: the search answers then with "
                        "its best schedule so far")
    p.add_argument("--trace", metavar="FILE",
                   help="append one JSONL event per reply to FILE")
    p.add_argument("--repeat", type=int, default=1,
                   help="submit each region this many times (dedup/cache demo)")
    p.add_argument("--concurrency", type=int, default=1,
                   help="client threads submitting in parallel")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "cluster",
        help="run a sharded multi-node induction cluster (nodes + router)")
    csub = p.add_subparsers(dest="cluster_command", required=True)

    def _cluster_common(cp, socket_help):
        cp.add_argument("--socket", type=_endpoint_arg, required=True,
                        metavar="ENDPOINT", help=socket_help)
        cp.add_argument("--peers", type=_endpoint_arg, nargs="+",
                        required=True, metavar="ENDPOINT",
                        help="every node endpoint in the cluster, in any "
                             "order (the ring is derived from the set)")
        cp.add_argument("--retries", type=int, default=3,
                        help="total forward attempts per request")
        cp.add_argument("--probe-interval", type=float, default=1.0,
                        metavar="SECONDS", help="heartbeat probe cadence")
        cp.add_argument("--mark-down-after", type=int, default=3,
                        help="consecutive failures before a node is down")

    cp = csub.add_parser(
        "serve", help="run one induction node with the cluster cache tier")
    _cluster_common(cp, "this node's own endpoint (must appear in --peers)")
    cp.add_argument("--jobs", type=int, default=0,
                    help="worker processes (0 = all cores)")
    cp.add_argument("--queue-size", type=int, default=64)
    cp.add_argument("--cache-capacity", type=int, default=1024,
                    help="in-memory schedule cache entries on this node")
    cp.add_argument("--cache-dir", metavar="DIR",
                    help="persistent schedule cache directory")
    cp.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="default per-request deadline")
    cp.add_argument("--allow-chaos", action="store_true",
                    help="honour client fault injection (tests only)")
    cp.set_defaults(fn=_cmd_cluster_serve)

    cp = csub.add_parser(
        "route", help="run the cluster front door (routes, dedups, fails over)")
    _cluster_common(cp, "the router's listening endpoint")
    cp.add_argument("--trace", metavar="FILE",
                    help="append routing span events (cluster.route/attempt/"
                         "failover) to this JSONL trace file")
    cp.add_argument("--slo-latency", type=float, default=None,
                    metavar="SECONDS",
                    help="latency SLO threshold for the router's own slo_* "
                         "gauges and flight recorder")
    cp.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                    help="serve Prometheus metrics over HTTP on this "
                         "loopback port (0 = pick a free port)")
    cp.set_defaults(fn=_cmd_cluster_route)

    cp = csub.add_parser("status", help="show the per-node membership table "
                                        "and routing counters")
    cp.add_argument("--socket", type=_endpoint_arg, required=True,
                    metavar="ENDPOINT", help="a running router's endpoint")
    cp.add_argument("--json", action="store_true",
                    help="print the raw cluster_status reply as JSON")
    cp.set_defaults(fn=_cmd_cluster_status)

    cp = csub.add_parser(
        "drain", help="drain one node (ring stops routing new work to it)")
    cp.add_argument("--socket", type=_endpoint_arg, required=True,
                    metavar="ENDPOINT", help="a running router's endpoint")
    cp.add_argument("--node", required=True, metavar="NAME",
                    help="the node's canonical endpoint name "
                         "(as shown by cluster status)")
    cp.set_defaults(fn=_cmd_cluster_drain)

    p = sub.add_parser("stats", help="summarize a JSONL trace file")
    p.add_argument("trace", help="trace file written by --trace")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "trace", help="render span trees from a JSONL trace file")
    p.add_argument("trace", help="trace file written by --trace")
    p.add_argument("--trace-id", metavar="ID",
                   help="show only the trace whose id starts with ID")
    p.add_argument("--last", action="store_true",
                   help="show only the most recent trace")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "flightrec",
        help="pull request digests from a server/router flight recorder")
    p.add_argument("--socket", type=_endpoint_arg, default="/tmp/repro.sock",
                   metavar="ENDPOINT",
                   help="a running server's or router's endpoint")
    p.add_argument("--slow", action="store_true",
                   help="only digests that crossed the slow threshold")
    p.add_argument("--failed", action="store_true",
                   help="only digests whose outcome was not ok")
    p.add_argument("--last", type=int, default=None, metavar="N",
                   help="only the N most recent matching digests")
    p.add_argument("--json", action="store_true",
                   help="print the raw flightrec reply as JSON")
    p.set_defaults(fn=_cmd_flightrec)

    p = sub.add_parser(
        "slo", help="show a server/router SLO burn-rate table")
    p.add_argument("--socket", type=_endpoint_arg, default="/tmp/repro.sock",
                   metavar="ENDPOINT",
                   help="a running server's or router's endpoint")
    p.add_argument("--json", action="store_true",
                   help="print the raw slo reply as JSON")
    p.set_defaults(fn=_cmd_slo)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated cases vs independent oracles")
    p.add_argument("--seed", type=int, default=None,
                   help="root seed (default: $REPRO_SEED, else fresh entropy)")
    p.add_argument("--cases", type=int, default=200,
                   help="maximum number of generated cases")
    p.add_argument("--max-ops", type=int, default=24,
                   help="maximum total ops per generated region")
    p.add_argument("--max-threads", type=int, default=4,
                   help="maximum threads per generated region")
    p.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                   help="stop after this much wall time even if cases remain")
    p.add_argument("--program-fraction", type=float, default=0.15,
                   help="fraction of cases that are MIMDC programs")
    p.add_argument("--cluster-fraction", type=float, default=0.1,
                   help="fraction of region cases also routed through an "
                        "in-process 3-node cluster and compared against the "
                        "local result (0 = never boot the cluster)")
    p.add_argument("--corpus-dir",
                   help="persist failing cases as JSON under this directory")
    p.add_argument("--vn", action="store_true",
                   help="run the value-numbering differential oracle on every "
                        "region case and bias generation toward cross-thread "
                        "redundancy")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip delta-debugging of failing cases")
    p.add_argument("--fail-fast", action="store_true",
                   help="stop at the first failing case")
    p.add_argument("--trace", help="write fuzz spans/events to a JSONL trace")
    p.add_argument("--replay", metavar="PATH",
                   help="replay a corpus entry (or directory) instead of "
                        "generating new cases")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("simdc", help="compile and run a SIMDC (data-parallel) program")
    p.add_argument("source", help="SIMDC source file")
    p.add_argument("--pes", type=int, default=64)
    p.add_argument("--vir", action="store_true", help="print the vector IR only")
    p.set_defaults(fn=_cmd_simdc)

    p = sub.add_parser("select", help="pick the best target for a program")
    p.add_argument("source", help="MIMDC source file")
    p.add_argument("--pes", type=int, default=16)
    p.add_argument("--maspar-load", type=float, default=1.0)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_select)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
