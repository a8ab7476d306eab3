"""Cluster front door: route, dedup, retry, fail over.

:class:`ClusterForwarder` is the routing core: given a submit, it computes
the request fingerprint, picks a node with the consistent-hash ring
(bounded-load, §ring), forwards the wire frame, and on node failure
retries the *next* node in the fingerprint's preference order with
exponential backoff.  Duplicate submits that arrive while a fingerprint is
already in flight — the common case for interpreter workloads — do not
fan out: they join the in-flight route and share its reply, through the
same :class:`~repro.service.daemon.SingleFlight` each node dedups with.
The fingerprint comes from the forwarder's own
:class:`~repro.service.protocol.SubmitMemo`: a repeat costs one digest,
and only a first-seen submit parses.
The route's leader alone asks the request cache: *finished* duplicates
are answered from the forwarder's own memory-only
:class:`~repro.core.cache.ScheduleCache`
(``ClusterConfig.request_cache_size`` entries; an ``ok`` reply's result,
under the cache's one store rule) without touching a node at all — the
hit sends the stored text, routing facts included, with this request's
own fields spliced in (:class:`~repro.service.protocol.ResultText`);
``router_cache_hits`` counts them, and cached replies carry a
``router_cache`` extra.  A forwarded ``ok`` result is encoded once: that
text is what the cache stores and what the reply carries.  The cache
stores it only when it builds as a result, as the disk and peer tiers
check an entry (:func:`~repro.core.cache.check_entry`): a node's reply
that does not is passed on unstored and counted in
``router_cache_refusals``.

Two skins over the core:

- :class:`ClusterClient` — in-process client, the thing
  :func:`repro.api.induce(cluster=...)` uses; ``submit`` reads the
  routed reply as a :class:`~repro.service.client.ServiceClient` reads
  one (:func:`~repro.service.client.read_reply`), into the
  :class:`~repro.core.result.InductionResult` a local call returns, its
  ``extras`` carrying ``routed_node``/``route_attempts``;
- :class:`ClusterRouter` — the ``repro cluster route`` daemon: the same
  core behind a listening :class:`~repro.service.endpoint.Endpoint`
  speaking the ordinary framed-JSON protocol, so any existing
  :class:`~repro.service.client.ServiceClient` can point at the router
  and transparently talk to the whole cluster.

Failure handling is per-attempt, not per-request: a dead socket is a
membership strike (three strikes → node marked down, ring rebuilt) and an
immediate failover; a ``busy`` shed advances to the next node without
backoff (the next node is idle or it isn't); an ``error`` reply is
returned as-is (malformed requests are deterministic — retrying them
elsewhere just spreads the error).  Every hop lands in per-node counters
(``route_<node>``/``retry_<node>``/``failover_<node>``) and the
``cluster_route_seconds`` / ``cluster_node_queue_depth`` histograms, all
rendered through the standard Prometheus exposition.

Observability plane (PR 8): every route runs inside
``cluster.route``/``cluster.attempt``/``cluster.failover`` spans that
continue the caller's trace; node replies ship their server-side spans
back in an ``obs`` payload that the router stitches into the same trace
and — for traced callers — forwards in its own reply.  The router keeps
its own :class:`~repro.obs.SLOTracker` (burn-rate gauges in ``stats()``
and the exposition) and :class:`~repro.obs.FlightRecorder` (digests of
slow/failed/failed-over routes, spans included), served by the ``slo``
and ``flightrec`` ops.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Mapping

from repro.api import InductionRequest
from repro.cluster.config import PEER_TIMEOUT_S, ClusterConfig
from repro.cluster.membership import Membership
from repro.cluster.ring import HashRing
from repro.core.cache import ScheduleCache
from repro.core.result import InductionResult, result_from_payload
from repro.obs import (
    NULL_TRACER,
    Counters,
    MemoryTracer,
    Span,
    TeeTracer,
    Tracer,
    attach_context,
    current_context,
    span,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import (
    MetricsRegistry,
    render_prometheus,
    split_stats,
)
from repro.obs.slo import SLOTracker
from repro.service import protocol
from repro.service.client import ServiceError, read_reply, replay_obs
from repro.service.daemon import (
    Connections,
    SingleFlight,
    finish_request,
    flightrec_reply,
)
from repro.service.endpoint import Endpoint

__all__ = ["ClusterClient", "ClusterForwarder", "ClusterRouter"]

#: Queue-depth histogram buckets: service queues are small integers.
_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Per-hop socket timeout for forwarded requests.
FORWARD_TIMEOUT_S = 600.0


class ClusterForwarder:
    """The routing core shared by :class:`ClusterClient` and
    :class:`ClusterRouter` (see module docstring)."""

    def __init__(self, config: ClusterConfig,
                 membership: Membership | None = None,
                 metrics: MetricsRegistry | None = None,
                 start_probes: bool = True,
                 tracer: Tracer | None = None,
                 slo: SLOTracker | None = None,
                 flightrec: FlightRecorder | None = None) -> None:
        if not config.endpoints:
            raise ValueError("cluster config has no endpoints")
        self.config = config
        self.counters = Counters()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer or NULL_TRACER
        self.slo = slo if slo is not None else SLOTracker()
        self.flightrec = flightrec if flightrec is not None \
            else FlightRecorder()
        self.membership = membership or Membership(
            config.endpoints,
            probe_interval_s=config.probe_interval_s,
            mark_down_after=config.mark_down_after)
        self._ring = HashRing(config.node_names, vnodes=config.vnodes)
        self._ring_version = -1
        self._ring_lock = threading.Lock()
        self._loads: dict[str, int] = {}
        self._loads_lock = threading.Lock()
        self._flights = SingleFlight()
        self._memo = protocol.SubmitMemo(self.counters)
        #: Finished routed results; None when ``request_cache_size`` is 0.
        self.cache = ScheduleCache(capacity=config.request_cache_size) \
            if config.request_cache_size else None
        #: Open connections to each node not in use by a forward.
        self._idle: dict[str, list[socket.socket]] = {}
        self._idle_lock = threading.Lock()
        self._closed = False
        self._started = time.monotonic()
        if start_probes:
            self.membership.start()

    def close(self) -> None:
        self.membership.stop()
        with self._idle_lock:
            self._closed = True
            socks = [sock for idle in self._idle.values() for sock in idle]
            self._idle.clear()
        for sock in socks:
            sock.close()

    # -- planning ----------------------------------------------------------

    def _current_ring(self) -> HashRing:
        """The ring over currently-routable nodes (rebuilt on membership
        version changes, atomically swapped)."""
        version = self.membership.version
        with self._ring_lock:
            if version != self._ring_version:
                routable = self.membership.routable()
                # With every node down, keep the last ring: routing must
                # attempt *somewhere* so note_success can resurrect nodes
                # the moment one comes back.
                if routable:
                    self._ring = self._ring.with_nodes(routable)
                self._ring_version = version
            return self._ring

    def plan(self, fingerprint: str) -> list[str]:
        """Nodes to try for ``fingerprint``, in order.

        First the bounded-load pick (the owner, unless it is already
        carrying well over the mean in-flight load), then the rest of the
        preference order for failover.
        """
        ring = self._current_ring()
        with self._loads_lock:
            loads = dict(self._loads)
        first = ring.pick(fingerprint, loads=loads)
        order = ring.preference(fingerprint)
        return [first] + [node for node in order if node != first]

    # -- forwarding --------------------------------------------------------

    def submit_wire(self, wire: dict[str, Any]) -> dict[str, Any]:
        """Route one submit frame; returns its reply, ready to send.

        An ``ok`` reply's result is a
        :class:`~repro.service.protocol.ResultText`; an in-process caller
        reads the reply with :func:`~repro.service.client.read_reply`.

        Duplicate fingerprints already in flight join the live route and
        share its reply instead of fanning out to the nodes.

        The whole route runs inside a ``cluster.route`` span (continuing
        the caller's trace when the wire carried a ``trace_ctx``); each
        hop opens a ``cluster.attempt`` span whose context rides to the
        node, and the node-side spans the reply ships back are stitched
        into the same trace.  When the caller traced the request, the
        reply's ``result["obs"]`` carries the combined span records;
        either way the route lands in the SLO tracker and — if slow,
        failed or failed over — in the flight recorder.
        """
        fingerprint = self._memo.fingerprint(wire)
        started = time.monotonic()
        # The request's deadline is one instant, fixed here: each hop
        # gets the time left, never the client's relative value again.
        deadline_s = wire.get("deadline_s")
        deadline = None if deadline_s is None else started + deadline_s
        recorder = MemoryTracer()
        tee = TeeTracer(self.tracer, recorder)
        info = {"route": [], "failed_over": False}
        with attach_context(wire.get("trace_ctx")), \
                span("cluster.route", tee,
                     fingerprint=fingerprint[:12]) as route:
            reply, led = self._flights.share(
                fingerprint,
                lambda: self._lead(wire, fingerprint, started, deadline,
                                   tee, info, route))
            if not led:
                # The joiner shares the leader's reply but not its spans:
                # the leader popped the node-side obs into its own trace,
                # so a joiner's tree shows its route span joining a live
                # flight, which is what actually happened.  Nodes enforce
                # deadlines, so it waits for the leader however long.
                self.counters.bump("route_dedup_hits")
                route.set(dedup=True)
                result = reply.get("result")
                if isinstance(result, protocol.ResultText):
                    reply = {**reply, "result": result.with_fields(
                        router_dedup=True)}
            route.set(status=str(reply.get("status")))
        return finish_request(
            reply, recorder, route.trace_id, fingerprint=fingerprint,
            started=started, stitch=bool(wire.get("trace_ctx")),
            slo=self.slo, flightrec=self.flightrec, route=info["route"],
            failed_over=info["failed_over"])

    def _lead(self, wire: dict[str, Any], fingerprint: str, started: float,
              deadline: float | None, tee: Tracer, info: dict,
              route: Span) -> dict[str, Any]:
        """Answer a flight: the request cache once, else a forward."""
        text = self.cache.get_text(fingerprint) if self.cache is not None \
            else None
        if text is not None:
            # A finished duplicate: answer it from the front door without
            # touching a node, with the stored text as it is.
            self.counters.bump("router_cache_hits")
            route.set(cached=True)
            return {"status": "ok", "result": protocol.ResultText(text, {
                "router_cache": True, "cache_hit": True,
                "wall_s": time.monotonic() - started, "retries": 0})}
        reply = self._forward(wire, fingerprint, deadline, tee, info)
        payload = reply.get("result")
        if reply.get("status") != "ok" or not isinstance(payload, dict):
            return reply
        # Encoded once: the cache stores the text the reply sends.
        result = protocol.ResultText.encode(payload)
        if self.cache is not None:
            try:
                result_from_payload(payload)
            except ValueError:
                # No result: the caller's client raises on it, and no
                # later request is answered with it.
                self.counters.bump("router_cache_refusals")
            else:
                self.cache.put(fingerprint, payload, text=result.text)
        return {**reply, "result": result}

    def _forward(self, wire: dict[str, Any], fingerprint: str,
                 deadline: float | None, tee: Tracer,
                 info: dict) -> dict[str, Any]:
        """Forward to the plan's nodes in turn until one answers.

        With a ``deadline`` (a :func:`time.monotonic` instant), each hop
        carries the time left as its ``deadline_s``, and no attempt (or
        backoff) starts once none is left: the route then answers as when
        its attempts run out.
        """
        started = time.monotonic()
        ctx = current_context()
        route_trace = ctx["trace"] if ctx else None
        for depth in self.membership.queue_depths().values():
            self.metrics.observe("cluster_node_queue_depth", depth,
                                 buckets=_DEPTH_BUCKETS)
        plan = self.plan(fingerprint)
        retry = self.config.retry
        attempts = max(retry.attempts, len(plan))
        last_busy: dict | None = None
        last_error = "no routable nodes"
        tried = 0
        for attempt in range(attempts):
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                if not tried:
                    last_error = "the request's deadline passed"
                break
            node = plan[attempt % len(plan)]
            if attempt and attempt % len(plan) == 0:
                # Wrapped the whole plan: re-plan against fresh membership
                # (a mark-down mid-request changes the preference order).
                plan = self.plan(fingerprint)
                node = plan[0]
            tried += 1
            label = self._label(node)
            self.counters.bump(f"route_{label}")
            if attempt:
                self.counters.bump(f"retry_{label}")
                self.counters.bump("route_retries")
            info["route"].append(label)
            error: Exception | None = None
            with span("cluster.attempt", tee, node=label,
                      attempt=attempt) as att:
                hop = dict(wire)
                if left is not None:
                    hop["deadline_s"] = left
                hop["routing"] = {**(wire.get("routing") or {}),
                                  "node": node, "attempt": attempt,
                                  "fingerprint": fingerprint}
                # Every hop carries the attempt's context: the node's
                # service.request joins this trace, and its reply ships
                # the node-side spans back for stitching (into the
                # caller's tracer and the flight recorder alike).
                hop["trace_ctx"] = att.context()
                try:
                    reply = self._roundtrip(node, hop)
                    self._absorb_node_obs(reply, tee)
                except (OSError, protocol.ProtocolError,
                        ServiceError) as exc:
                    error = exc
                    att.set(status="failover", error=str(exc)[:120])
                else:
                    att.set(status=str(reply.get("status")))
            if error is not None:
                last_error = f"{node}: {error}"
                self.counters.bump(f"failover_{label}")
                self.counters.bump("route_failovers")
                self.membership.note_failure(node, str(error))
                info["failed_over"] = True
                backoff_s = retry.backoff(attempt) \
                    if attempt + 1 < attempts else 0.0
                if deadline is not None:
                    backoff_s = min(backoff_s,
                                    max(0.0, deadline - time.monotonic()))
                with span("cluster.failover", tee, node=label,
                          error=str(error)[:120],
                          backoff_s=round(backoff_s, 4)):
                    if backoff_s:
                        time.sleep(backoff_s)
                continue
            status = reply.get("status")
            if status == "busy":
                # Shedding is per-node; the next node may be idle.  No
                # backoff — but it *is* a strike against nobody: a busy
                # node is alive.
                last_busy = reply
                self.membership.note_success(node)
                continue
            self.membership.note_success(node)
            self.counters.bump("routed_ok" if status == "ok"
                               else "routed_error")
            self.metrics.observe("cluster_route_seconds",
                                 time.monotonic() - started,
                                 trace_id=route_trace)
            return self._annotate(reply, node, tried)
        self.metrics.observe("cluster_route_seconds",
                             time.monotonic() - started,
                             trace_id=route_trace)
        if last_busy is not None:
            self.counters.bump("routed_busy")
            return dict(last_busy)
        self.counters.bump("routed_failed")
        return {"status": "error",
                "error": f"no node accepted the request: {last_error}"}

    @staticmethod
    def _absorb_node_obs(reply: dict, tee: Tracer) -> None:
        """Pop a node reply's obs payload into the route's span stream; a
        malformed one raises :class:`ServiceError` (a failed attempt)."""
        result = reply.get("result")
        if isinstance(result, dict):
            obs = result.pop("obs", None)
            if obs:
                replay_obs(obs, tee)

    def _roundtrip(self, node: str, message: Mapping[str, Any]) -> dict:
        """One exchange with ``node`` over a kept-alive connection.

        An idle connection that the node closed meanwhile (it restarted,
        say) is retried once on a fresh one, so only a node that fails a
        fresh connection costs a failover and a membership strike.
        """
        endpoint = self.membership.endpoint_of(node)
        with self._idle_lock:
            idle = self._idle.get(node)
            kept = idle.pop() if idle else None
        with self._loads_lock:
            self._loads[node] = self._loads.get(node, 0) + 1
        try:
            sock, reply = protocol.exchange(
                kept, message, lambda: endpoint.connect(
                    timeout=FORWARD_TIMEOUT_S))
        finally:
            with self._loads_lock:
                self._loads[node] -= 1
        with self._idle_lock:
            if not self._closed:
                self._idle.setdefault(node, []).append(sock)
                return reply
        sock.close()
        return reply

    @staticmethod
    def _annotate(reply: dict, node: str, attempts: int) -> dict:
        """Stamp routing facts into a node's result payload (a result
        surfaces unknown keys through ``extras``); they are stored with
        it, so a router cache hit reports the route that computed it."""
        result = reply.get("result")
        if isinstance(result, dict):
            reply = {**reply, "result": {**result, "routed_node": node,
                                         "route_attempts": attempts}}
        return reply

    @staticmethod
    def _label(node: str) -> str:
        return Endpoint.parse_lenient(node).label

    # -- cluster management -------------------------------------------------

    def drain_node(self, name: str) -> dict:
        """Drain one node: the node stops admitting, the ring stops
        routing to it, in-flight work finishes."""
        from repro.service.client import ServiceClient

        endpoint = self.membership.endpoint_of(name)
        with ServiceClient(endpoint, timeout=PEER_TIMEOUT_S) as client:
            reply = client.drain()
        self.membership.drain(name)
        self.counters.bump("drains")
        return reply

    def status(self) -> dict:
        """Cluster-level snapshot: membership (with each node's probed
        SLO gauges), ring, routing counters, the router's own SLO."""
        ring = self._current_ring()
        return {
            "nodes": self.membership.snapshot(),
            "ring_nodes": list(ring.nodes),
            "vnodes": ring.vnodes,
            "inflight": sum(self._loads.values()),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "counters": self.counters.snapshot(),
            "slo": self.slo.status(),
        }

    def stats(self) -> dict:
        """One flat snapshot, same shape as ``InductionServer.stats()``:
        counters and gauges from one locked pass plus histogram
        percentiles, so ``repro stats`` renders server and router
        identically."""
        states = self.membership.states()
        gauges = {
            "cluster_nodes": len(states),
            "cluster_nodes_up": sum(1 for s in states.values()
                                    if s == "up"),
            "inflight": sum(self._loads.values()),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "trace_events": self.tracer.events_written,
            **self.slo.gauges(),
        }
        snap = self.counters.snapshot_with(gauges)
        snap.update(self.metrics.percentiles())
        return snap

    _GAUGE_STATS = frozenset({"cluster_nodes", "cluster_nodes_up",
                              "inflight", "uptime_s", "trace_events"})

    def render_metrics(self) -> str:
        counters, gauges = split_stats(self.stats(), self._GAUGE_STATS)
        return render_prometheus(self.metrics, extra_counters=counters,
                                 extra_gauges=gauges)


class ClusterClient(ClusterForwarder):
    """In-process cluster client: what ``induce(cluster=...)`` talks to."""

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def submit(self, request: InductionRequest,
               chaos: Mapping[str, Any] | None = None) -> InductionResult:
        """Route one request through the cluster; blocks until the reply.

        With ``request.tracer`` set, the route happens inside a
        ``client.submit`` span and the stitched cluster + node spans from
        the reply are replayed into the tracer — one trace id from this
        caller through router, node and worker.
        """
        tracer = request.tracer
        if tracer is not None and tracer.enabled:
            with span("client.submit", tracer, cluster=True):
                reply = self.submit_wire(
                    protocol.request_to_wire(request, chaos=chaos))
        else:
            reply = self.submit_wire(
                protocol.request_to_wire(request, chaos=chaos))
        return read_reply(reply, tracer)


class ClusterRouter(ClusterForwarder):
    """The ``repro cluster route`` daemon: the forwarding core behind a
    listening endpoint speaking the standard framed-JSON protocol."""

    def __init__(self, endpoint: Endpoint | str, config: ClusterConfig,
                 membership: Membership | None = None,
                 metrics: MetricsRegistry | None = None,
                 start_probes: bool = True,
                 tracer: Tracer | None = None,
                 slo: SLOTracker | None = None,
                 flightrec: FlightRecorder | None = None) -> None:
        listen = Endpoint.parse(endpoint)
        super().__init__(config, membership=membership, metrics=metrics,
                         start_probes=start_probes, tracer=tracer,
                         slo=slo, flightrec=flightrec)
        self._stopping = False
        self._stopped = threading.Event()
        self._unix_path = listen.path if listen.scheme == "unix" else None
        self._listener = listen.bind(backlog=64)
        self._endpoint = listen.resolved(self._listener)
        self._conns = Connections(self._dispatch_op, self.shutdown,
                                  "router-conn")
        self._accept_thread = threading.Thread(
            target=self._conns.accept_loop, args=(self._listener,),
            name="router-accept", daemon=True)
        self._accept_thread.start()

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def shutdown(self) -> None:
        """Stop the router (the nodes keep running)."""
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        self._finalize()

    def _finalize(self) -> None:
        if self._unix_path is not None:
            import os
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        self._conns.close()
        self.close()
        self._stopped.set()

    def wait_stopped(self, timeout: float | None = None) -> bool:
        return self._stopped.wait(timeout)

    # -- requests -----------------------------------------------------------

    def _dispatch_op(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "submit":
            if self._stopping:
                return {"status": "busy", "reason": "shutdown"}
            return self.submit_wire(msg)
        if op == "stats":
            return {"status": "stats", "stats": self.stats()}
        if op == "metrics":
            return {"status": "metrics", "metrics": self.render_metrics()}
        if op == "ping":
            return {"status": "pong", "router": True}
        if op == "flightrec":
            return flightrec_reply(self.flightrec, msg)
        if op == "slo":
            return {"status": "slo", "slo": self.slo.status()}
        if op == "cluster_status":
            return {"status": "cluster", "cluster": self.status()}
        if op == "cluster_drain":
            name = msg.get("node")
            if not isinstance(name, str) or not name:
                raise protocol.ProtocolError("cluster_drain needs a node name")
            try:
                self.drain_node(name)
            except (LookupError, ServiceError, OSError) as exc:
                return {"status": "error", "error": f"drain {name}: {exc}"}
            return {"status": "ok", "draining": name}
        if op == "shutdown":
            return {"status": "ok", "drained": True}
        raise protocol.ProtocolError(f"unknown op {op!r}")
