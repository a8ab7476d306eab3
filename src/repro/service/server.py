"""The induction server: single-flight dedup, admission control, drain.

One :class:`InductionServer` owns a listening socket and one thread per
connection (kept open across requests).  The thread that reads a submit
answers it:

- it fingerprints the submit through the server's
  :class:`~repro.service.protocol.SubmitMemo`, which parses only a submit
  it has not seen (a repeat costs one digest; malformed text is a ``bad
  submit payload`` error), and sheds ``busy`` while the server stops or
  drains;
- it joins the :class:`SingleFlight` of its fingerprint: while another
  request with the same fingerprint is being answered, it waits for that
  reply (dedup) instead of working — but not past its own deadline;
- otherwise it leads: it asks the cache once, every tier, and answers a
  hit at once with the entry's stored text; on a miss it waits for a free
  worker (at most ``queue_size`` requests wait; one more is shed
  ``busy``), but not past its deadline, and runs the search through the
  supervised :class:`~repro.service.workers.WorkerPool` itself.

Every ``ok`` reply carries a :class:`~repro.service.protocol.ResultText`:
an entry's JSON text plus the request's own fields, spliced into the
frame as it is sent.  A hit sends the text the cache holds, undecoded.
A miss sends the text its worker encoded, with ``retries`` added and no
JSON of the server's own; a degraded fallback encodes its payload once.
Either way one text is what the cache stores and what the reply
carries.  The peer ``cache_get`` op sends the stored text too.

Robustness contract (the point of the service):

- a full queue sheds load with a clear ``busy`` reply — never a hang;
- a deadline is one instant per request, fixed at admission: the worker
  gets the time left and its search answers then with its checked
  incumbent (unproven, never cached).  A request whose deadline passes
  before a worker is free, or whose worker hangs past the deadline plus
  :data:`~repro.service.workers.KILL_GRACE_S`, degrades to the verified
  greedy schedule with ``degraded=True`` — never an error;
- a worker death is retried with backoff; only exhausted retries degrade;
- a leader that fails answers itself and every joiner with an ``error``;
- shutdown stops admitting, *drains* every admitted request, then stops.

A flight runs under its leader's deadline; a joiner whose own deadline
passes first answers itself with the degraded schedule.

Only the rare path that needs the parsed request — a degraded reply —
parses the submit again, from the ticket's wire.

Metrics are plain :class:`repro.obs.Counters` — ``requests``, ``ok``,
``shed``, ``degraded_deadline``, ``degraded_retries``, ``dedup_hits``,
``cache_hits``, ``retries``, ``worker_deaths``, ``submit_memo_hits``,
``submit_memo_misses`` — plus the gauges
``queue_depth`` (requests waiting for a worker), ``inflight`` (flights)
and ``open_tickets`` (requests admitted and not yet answered); the
``stats`` op returns a snapshot, and a :class:`repro.obs.Tracer` (if
given) receives one ``service_request`` event per ``ok`` reply.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

from repro.api import valid_deadline
from repro.core.cache import ScheduleCache, check_entry
from repro.core.result import result_to_payload
from repro.service.endpoint import Endpoint
from repro.obs import (
    NULL_TRACER,
    Counters,
    MemoryTracer,
    TeeTracer,
    Tracer,
    attach_context,
    current_context,
    span,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    render_prometheus,
    split_stats,
    use_registry,
)
from repro.obs.slo import SLOTracker
from repro.service import protocol
from repro.service.daemon import (
    Connections,
    SingleFlight,
    finish_request,
    flightrec_reply,
)
from repro.service.workers import (
    DeadlineExpired,
    RetriesExhausted,
    WorkerPool,
    WorkerTaskError,
    absorb_obs,
    degraded_result,
)

__all__ = ["InductionServer", "ServerConfig"]


@dataclass
class ServerConfig:
    """Tunables for one :class:`InductionServer`.

    ``endpoint`` is the one connection-config knob: an
    :class:`~repro.service.endpoint.Endpoint` or its URL string form
    (:meth:`Endpoint.parse`; a bare address string raises ``ValueError``).
    """

    endpoint: Endpoint | str | None = None
    workers: int = 1
    #: Most requests that may wait for a worker; one more is shed ``busy``.
    queue_size: int = 64
    default_deadline_s: float | None = None
    #: Honour ``chaos`` fault-injection in requests (tests/CI only).
    allow_chaos: bool = False

    def __post_init__(self) -> None:
        if self.endpoint is None:
            raise ValueError("ServerConfig needs an endpoint")
        self.endpoint = Endpoint.parse(self.endpoint)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_size < 1:
            raise ValueError(f"queue size must be >= 1, got {self.queue_size}")
        if self.default_deadline_s is not None and \
                not valid_deadline(self.default_deadline_s):
            raise ValueError(
                f"default deadline must be a positive finite number of "
                f"seconds, got {self.default_deadline_s!r}")


class _Ticket(NamedTuple):
    """One admitted submit, fingerprinted and checked but not parsed."""

    wire: dict
    fingerprint: str
    admitted: float
    #: Absolute :func:`time.monotonic` deadline, or None.
    deadline: float | None

    def degraded(self, wall_s: float) -> protocol.ResultText:
        """The verified greedy result; parses the wire (rare path)."""
        return protocol.ResultText.encode(result_to_payload(degraded_result(
            protocol.request_from_wire(self.wire), wall_s=wall_s)))


class _Served(NamedTuple):
    """A flight's ``ok`` outcome, before it becomes each request's reply."""

    result: protocol.ResultText
    disposition: str
    #: When the work began: the dispatch for a computed reply, the
    #: leader's admission for a cache hit.
    started: float


class InductionServer:
    """Long-running induction daemon (see module docstring)."""

    def __init__(self, config: ServerConfig,
                 cache: ScheduleCache | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 slo: SLOTracker | None = None,
                 flightrec: FlightRecorder | None = None) -> None:
        self.config = config
        self.cache = cache
        self.tracer = tracer or NULL_TRACER
        self.counters = Counters()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slo = slo if slo is not None else SLOTracker()
        self.flightrec = flightrec if flightrec is not None \
            else FlightRecorder()
        self._started = time.monotonic()
        self.pool = WorkerPool(workers=config.workers, counters=self.counters)
        self._flights = SingleFlight()
        self._memo = protocol.SubmitMemo(self.counters)
        # One lock guards admission and the worker slots.  Leaders hold at
        # most ``workers`` slots, so when every worker is busy requests
        # wait here and queue_size is the thing that sheds load.
        self._lock = threading.Lock()
        self._worker_freed = threading.Condition(self._lock)
        self._all_answered = threading.Condition(self._lock)
        self._free_workers = config.workers
        self._waiting = 0
        self._open = 0
        self._shedding = False
        self._stopping = False
        self._draining = False
        self._stopped = threading.Event()
        self._unix_path: str | None = None
        self._listener = self._bind(config.endpoint)
        self._endpoint = config.endpoint.resolved(self._listener)
        # Finalize only after the drained-ack is on the wire, so a
        # foreground `repro serve` doesn't exit (killing the handler
        # thread) before the client hears back.
        self._conns = Connections(self._dispatch_op, self._finalize,
                                  "serve-conn")
        self._accept_thread = threading.Thread(
            target=self._conns.accept_loop, args=(self._listener,),
            name="serve-accept", daemon=True)
        self._accept_thread.start()

    # -- lifecycle ---------------------------------------------------------

    def _bind(self, endpoint: Endpoint) -> socket.socket:
        sock = endpoint.bind(backlog=64)
        if endpoint.scheme == "unix":
            self._unix_path = endpoint.path
        return sock

    @property
    def endpoint(self) -> Endpoint:
        """Where this node listens (with the real port for ``tcp://*:0``)."""
        return self._endpoint

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` every admitted request finishes.

        Without ``drain``, requests still waiting for a worker are shed
        with a ``busy`` reply (running searches still complete — workers
        are never abandoned mid-write).
        """
        self._drain_phase(drain)
        self._finalize()

    def _drain_phase(self, drain: bool) -> None:
        with self._lock:
            self._stopping = True
            if not drain:
                self._shedding = True
                self._worker_freed.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            self._all_answered.wait_for(lambda: self._open == 0,
                                        timeout=600.0)

    def _finalize(self) -> None:
        # _stopped is set LAST: a foreground `repro serve` exits (killing
        # daemon threads) the moment wait_stopped() returns, so the socket
        # unlink and worker teardown must already be done by then.
        if self._unix_path is not None:
            import os
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        self._conns.close()
        close_cache = getattr(self.cache, "close", None)
        if close_cache is not None:
            close_cache()
        self.pool.close()
        self._stopped.set()

    def wait_stopped(self, timeout: float | None = None) -> bool:
        return self._stopped.wait(timeout)

    # -- requests ----------------------------------------------------------

    def _dispatch_op(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "submit":
            return self._admit(msg)
        if op == "stats":
            return {"status": "stats", "stats": self.stats()}
        if op == "metrics":
            return {"status": "metrics", "metrics": self.render_metrics()}
        if op == "ping":
            return {"status": "pong", "draining": self._draining}
        if op == "drain":
            # Unlike shutdown, a drained node keeps running: admitted
            # requests finish, new submits shed with busy/"draining", and
            # stats/metrics/ping stay live so the cluster can watch it
            # empty out before stopping it for real.
            self._draining = True
            self.counters.bump("drain_requests")
            return {"status": "ok", "draining": True}
        if op == "flightrec":
            return flightrec_reply(self.flightrec, msg)
        if op == "slo":
            return {"status": "slo", "slo": self.slo.status()}
        if op == "cache_get":
            return self._peer_cache_get(msg)
        if op == "cache_put":
            return self._peer_cache_put(msg)
        if op == "shutdown":
            self._drain_phase(drain=bool(msg.get("drain", True)))
            return {"status": "ok", "drained": True}
        raise protocol.ProtocolError(f"unknown op {op!r}")

    # -- peer cache ops ----------------------------------------------------
    #
    # The remote cache tier (repro.cluster.remotecache) reads and writes
    # peers' *local* tiers through these ops, one cache entry each way; a
    # RemoteScheduleCache exposes get_local/put_local so serving a peer
    # never recurses back out to the cluster.  A get sends the stored text.

    def _peer_cache_get(self, msg: dict) -> dict:
        fingerprint = msg.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise protocol.ProtocolError("cache_get needs a fingerprint")
        self.counters.bump("peer_cache_requests")
        text = None
        if self.cache is not None:
            get = getattr(self.cache, "get_local", self.cache.get_text)
            text = get(fingerprint)
        if text is None:
            return {"status": "cache", "hit": False}
        self.counters.bump("peer_cache_served")
        return {"status": "cache", "hit": True,
                "entry": protocol.ResultText(text)}

    def _peer_cache_put(self, msg: dict) -> dict:
        try:
            fingerprint = msg["fingerprint"]
            if not isinstance(fingerprint, str) or not fingerprint:
                raise ValueError("bad fingerprint")
            entry = check_entry(msg.get("entry"))
        except (KeyError, ValueError) as exc:
            raise protocol.ProtocolError(f"bad cache_put payload: {exc}") \
                from exc
        if self.cache is not None:
            put = getattr(self.cache, "put_local", self.cache.put)
            put(fingerprint, entry)
            self.counters.bump("peer_cache_stores")
        return {"status": "ok", "stored": self.cache is not None}

    # -- admission ---------------------------------------------------------

    def _admit(self, wire: dict) -> dict:
        self.counters.bump("requests")
        if not self.config.allow_chaos:
            wire.pop("chaos", None)
        # A malformed submit is an error on the client's connection; the
        # memo has checked deadline_s too.
        fingerprint = self._memo.fingerprint(wire)
        admitted = time.monotonic()
        deadline_s = wire.get("deadline_s")
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        ticket = _Ticket(wire, fingerprint, admitted,
                         None if deadline_s is None
                         else admitted + float(deadline_s))
        # This thread owns the request's server-side span: it covers the
        # whole answer, and continues the client's trace when the wire
        # carried a context.  The recorder tees off the same spans so the
        # reply can carry them back.
        recorder = MemoryTracer()
        tee = TeeTracer(self.tracer, recorder)
        with attach_context(wire.get("trace_ctx")), \
                span("service.request", tee, method=wire.get(
                    "method", "search")) as live, \
                use_registry(self.metrics):
            reply = self._answer(ticket, tee, live.trace_id)
            live.set(status=reply["status"])
            if reply["status"] == "ok":
                live.set(disposition=reply["result"].fields["disposition"])
            elif reply["status"] == "busy":
                self.counters.bump("shed")
        return finish_request(
            reply, recorder, live.trace_id, fingerprint=fingerprint,
            started=admitted, stitch=bool(wire.get("trace_ctx")),
            slo=self.slo, flightrec=self.flightrec)

    def _answer(self, ticket: _Ticket, tee: Tracer, trace_id: str) -> dict:
        """Reply to one submit: join its fingerprint's flight, or lead it."""
        with self._lock:
            refused = self._stopping or self._draining
            if not refused:
                self._open += 1
        if refused:
            return {"status": "busy",
                    "reason": "draining" if self._draining and
                    not self._stopping else "shutdown"}
        try:
            wait_s = None
            if ticket.deadline is not None:
                wait_s = ticket.deadline - time.monotonic()
            outcome, led = self._flights.share(
                ticket.fingerprint, lambda: self._lead(ticket, tee),
                wait_s=wait_s)
            if not led:
                self.counters.bump("dedup_hits")
                if outcome is None:
                    # The leader outlived this request's own deadline.
                    outcome = self._degrade(ticket, "deadline",
                                            ticket.admitted)
            if not isinstance(outcome, _Served):
                return outcome
            return self._ok_reply(outcome, ticket.admitted,
                                  deduped=not led, trace_id=trace_id)
        finally:
            with self._lock:
                self._open -= 1
                if not self._open:
                    self._all_answered.notify_all()

    def _lead(self, ticket: _Ticket, tee: Tracer) -> _Served | dict:
        """Answer a flight: the cache once, else a worker's search."""
        if self.cache is not None:
            text = self.cache.get_text(ticket.fingerprint)
            if text is not None:
                self.counters.bump("cache_hits")
                return _Served(protocol.ResultText(text, {
                    "cache_hit": True,
                    "wall_s": time.monotonic() - ticket.admitted,
                    "retries": 0}), "cache", ticket.admitted)
        with self._lock:
            if not self._free_workers:
                if self._waiting >= self.config.queue_size:
                    return {"status": "busy", "reason": "queue full",
                            "queue_depth": self._waiting}
                self._waiting += 1
                try:
                    self._worker_freed.wait_for(
                        lambda: self._free_workers or self._shedding,
                        None if ticket.deadline is None
                        else ticket.deadline - time.monotonic())
                finally:
                    self._waiting -= 1
            if self._shedding:
                return {"status": "busy", "reason": "shutdown"}
            leased = self._free_workers > 0
            if leased:
                self._free_workers -= 1
        if not leased:
            # The deadline passed while every worker was busy.
            return self._degrade(ticket, "deadline", time.monotonic())
        try:
            return self._dispatch(ticket, tee)
        finally:
            with self._lock:
                self._free_workers += 1
                self._worker_freed.notify()

    def _degrade(self, ticket: _Ticket, disposition: str,
                 started: float) -> _Served:
        """The verified greedy answer, counted under ``disposition``.

        Its ``wall_s`` is the request's time so far; ``started`` is when
        its wait for a worker ended.
        """
        self.counters.bump(f"degraded_{disposition}")
        return _Served(ticket.degraded(time.monotonic() - ticket.admitted),
                       disposition, started)

    def _dispatch(self, ticket: _Ticket, tee: Tracer) -> _Served | dict:
        """Run one search on a worker; degrade or error as it ends.

        The pool sends the worker the time left until the ticket's
        deadline, and nothing once it has passed.
        """
        started = time.monotonic()
        # Worker-side spans hang off the dispatch span via the context
        # injected into the wire below, completing the stitched trace in
        # the leader's recorder (joiners carry only their own
        # service.request span — the search ran on the leader's trace).
        with span("service.dispatch", tee) as live:
            wire = dict(ticket.wire)
            ctx = current_context()
            if ctx is not None:
                wire["trace_ctx"] = ctx
            try:
                worker_started = time.monotonic()
                result, meta = self.pool.run(wire, ticket.deadline)
                self.metrics.observe(
                    "service_worker_seconds",
                    time.monotonic() - worker_started,
                    trace_id=live.trace_id)
                result = absorb_obs(result, tracer=tee, registry=self.metrics)
                result = result.with_fields(retries=meta["retries"])
                if meta["retries"]:
                    self.metrics.observe("service_worker_retries",
                                         meta["retries"],
                                         buckets=DEFAULT_SIZE_BUCKETS)
                # Encoded once, in the worker: the cache stores the text
                # the reply sends, under the store rule of its flags.
                if self.cache is not None:
                    self.cache.put(ticket.fingerprint, result.flags,
                                   text=result.text)
            except DeadlineExpired:
                served = self._degrade(ticket, "deadline", started)
            except RetriesExhausted:
                served = self._degrade(ticket, "retries", started)
            except WorkerTaskError as exc:
                self.counters.bump("task_errors")
                live.set(disposition="error")
                return {"status": "error", "error": str(exc)}
            else:
                served = _Served(result, "miss", started)
            live.set(disposition=served.disposition)
        return served

    def _ok_reply(self, served: _Served, admitted: float, deduped: bool,
                  trace_id: str) -> dict:
        """One request's ``ok`` reply, counted and timed."""
        now = time.monotonic()
        # A joiner that arrived after its leader got a worker waited for
        # none.
        queue_wait_s = max(0.0, served.started - admitted)
        self.metrics.observe("service_queue_wait_seconds", queue_wait_s)
        self.metrics.observe("service_request_seconds", now - admitted,
                             trace_id=trace_id)
        extras = {
            "deduped": deduped,
            "queue_wait_s": round(queue_wait_s, 6),
            "server_wall_s": round(now - admitted, 6),
            "disposition": served.disposition,
        }
        if deduped:
            self.counters.bump("dedup_served")
        self.counters.bump("ok")
        if self.tracer.enabled:
            self.tracer.emit("service_request",
                             disposition=served.disposition,
                             degraded=served.result.degraded,
                             deduped=deduped,
                             wall_s=extras["server_wall_s"])
        # Each request its own fields, over the flight's one text.
        return {"status": "ok", "result": served.result.with_fields(**extras)}

    # -- introspection -----------------------------------------------------

    #: Stats keys that are point-in-time gauges rather than monotonic
    #: counters; the Prometheus exposition types them accordingly.
    _GAUGE_STATS = frozenset({
        "queue_depth", "inflight", "workers", "inline_pool",
        "open_tickets", "uptime_s", "trace_events", "draining",
    })

    def stats(self) -> dict:
        """One consistent snapshot: counters, gauges, latency percentiles.

        The live gauges (queue depth, open requests, uptime, tracer
        output) are written and the counters copied under a single lock
        acquisition (:meth:`Counters.snapshot_with`), so a snapshot taken
        mid-burst cannot pair a new counter value with a stale gauge.
        """
        with self._lock:
            waiting, open_requests = self._waiting, self._open
        gauges = {
            "queue_depth": waiting,
            "inflight": len(self._flights),
            "workers": self.pool.workers,
            "inline_pool": int(self.pool.inline),
            "open_tickets": open_requests,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "trace_events": self.tracer.events_written,
            "draining": int(self._draining),
            **self.slo.gauges(),
        }
        snap = self.counters.snapshot_with(gauges)
        if self.cache is not None:
            snap.update({f"cache_{k}": v
                         for k, v in self.cache.counters.snapshot().items()})
        snap.update(self.metrics.percentiles())
        return snap

    def render_metrics(self) -> str:
        """Prometheus text exposition covering the whole server.

        Histograms come straight from the registry; the legacy
        :class:`Counters` snapshot folds in as counter series, split from
        the gauge-typed stats by :data:`_GAUGE_STATS` (plus the shared
        gauge prefixes — SLO burn rates).  Served by the ``metrics`` op
        and by ``repro serve --metrics-port``.
        """
        counters, gauges = split_stats(self.stats(), self._GAUGE_STATS)
        return render_prometheus(self.metrics, extra_counters=counters,
                                 extra_gauges=gauges)
