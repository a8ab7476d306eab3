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
- otherwise it leads: it asks the cache once, every tier, and replays a
  hit at once; on a miss it waits for a free worker (at most
  ``queue_size`` requests wait; one more is shed ``busy``) and runs the
  search through the supervised
  :class:`~repro.service.workers.WorkerPool` itself.

Robustness contract (the point of the service):

- a full queue sheds load with a clear ``busy`` reply — never a hang;
- a deadline that expires degrades to the verified greedy schedule with
  ``degraded=True`` — never an error;
- a worker death is retried with backoff; only exhausted retries degrade;
- a leader that fails answers itself and every joiner with an ``error``;
- shutdown stops admitting, *drains* every admitted request, then stops.

A flight runs under its leader's deadline; a joiner whose own deadline
passes first answers itself with the degraded schedule.

Only the rare paths that need the parsed request — a degraded reply and
a portfolio's selector hints — parse the submit again, from the ticket's
wire.

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
import traceback
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.api import valid_deadline
from repro.core.cache import ScheduleCache, check_entry, replay
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
from repro.service.workers import (
    PORTFOLIO_KILL_GRACE_S,
    DeadlineExpired,
    RetriesExhausted,
    WorkerPool,
    WorkerTaskError,
    absorb_obs,
    degraded_result,
    inject_portfolio_hints,
    record_portfolio_outcome,
)

__all__ = ["Connections", "InductionServer", "ServerConfig", "SingleFlight",
           "finish_request", "flightrec_reply"]


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


def flightrec_reply(recorder: FlightRecorder, msg: dict) -> dict:
    """Serve one ``flightrec`` op from ``recorder``.

    Shared by the induction server and the cluster router so both speak
    the identical reply shape: capture counters plus the filtered digest
    list (``slow``/``failed`` flags AND-ed, ``last`` keeps the newest N).
    """
    last = msg.get("last")
    if last is not None:
        try:
            last = int(last)
        except (TypeError, ValueError) as exc:
            raise protocol.ProtocolError(
                f"flightrec last must be an integer, got {last!r}") from exc
    return {"status": "flightrec", "flightrec": {
        **recorder.counts(),
        "digests": recorder.snapshot(
            slow=bool(msg.get("slow")), failed=bool(msg.get("failed")),
            last=last),
    }}


def _send(conn: socket.socket, obj: dict) -> bool:
    try:
        protocol.send_message(conn, obj)
        return True
    except OSError:
        return False


class Connections:
    """A daemon's accepted connections, each served on its own thread.

    Shared by the induction server and the cluster router.  ``dispatch``
    turns one request frame into its reply (a
    :class:`~repro.service.protocol.ProtocolError` becomes an ``error``
    reply); ``on_shutdown`` runs once an ``ok`` reply to a ``shutdown``
    op is on the wire.  Clients keep connections open across requests, so
    a stopping daemon must close them itself: :meth:`close` shuts the read
    side of each, which wakes an idle handler with EOF and lets a busy one
    send its reply before it reads EOF in turn.
    """

    def __init__(self, dispatch: Callable[[dict], dict],
                 on_shutdown: Callable[[], None], name: str) -> None:
        self._dispatch = dispatch
        self._on_shutdown = on_shutdown
        self._name = name
        self._open: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closed = False

    def accept_loop(self, listener: socket.socket) -> None:
        while not self._closed:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            threading.Thread(target=self.serve, args=(conn,),
                             name=self._name, daemon=True).start()

    def serve(self, conn: socket.socket) -> None:
        with self._lock:
            if self._closed:
                conn.close()
                return
            self._open.add(conn)
        try:
            with conn:
                self._serve(conn)
        finally:
            with self._lock:
                self._open.discard(conn)

    def _serve(self, conn: socket.socket) -> None:
        while True:
            try:
                msg = protocol.recv_message(conn)
            except protocol.ProtocolError as exc:
                _send(conn, {"status": "error", "error": str(exc)})
                return
            except OSError:
                return
            if msg is None:
                return
            try:
                reply = self._dispatch(msg)
            except protocol.ProtocolError as exc:
                reply = {"status": "error", "error": str(exc)}
            sent = _send(conn, reply)
            if msg.get("op") == "shutdown" and reply.get("status") == "ok":
                self._on_shutdown()
                return
            if not sent:
                return

    def close(self) -> None:
        """Stop serving: shut the read side of every open connection."""
        with self._lock:
            self._closed = True
            conns = list(self._open)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass


class _Flight:
    """One request being answered; its duplicates wait for the answer."""

    __slots__ = ("landed", "answer")

    def __init__(self) -> None:
        #: Made by the first joiner, so a flight nobody joins (nearly
        #: every one) allocates no event.
        self.landed: threading.Event | None = None
        self.answer = None


class SingleFlight:
    """At most one computation per request fingerprint at a time.

    The first caller for a fingerprint *leads*: it computes the answer.
    Callers that arrive while it does *join*: they wait for the leader's
    answer instead of computing their own.  A leader that raises answers
    with an ``error`` reply naming the exception, so no joiner waits
    forever.  The induction server and the cluster router both dedup
    through one.
    """

    def __init__(self) -> None:
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._flights)

    def share(self, key: str, lead: Callable[[], object],
              wait_s: float | None = None) -> tuple[object, bool]:
        """``(answer, led)``: ``lead()``'s answer, or the running leader's.

        A joiner waits at most ``wait_s`` seconds (``None``: until the
        leader is done) and gets ``None`` when that runs out first.
        """
        with self._lock:
            flight = self._flights.get(key)
            led = flight is None
            if led:
                flight = self._flights[key] = _Flight()
            elif flight.landed is None:
                flight.landed = threading.Event()
        if not led:
            return (flight.answer if flight.landed.wait(wait_s) else None), \
                False
        answer: object = None
        try:
            answer = lead()
        except Exception as exc:  # noqa: BLE001 - every waiter is answered
            traceback.print_exc()
            answer = {"status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}
        finally:
            # Unlink before publishing: a caller that arrives now leads a
            # new flight, and every joiner of this one already made the
            # event it waits on.
            with self._lock:
                del self._flights[key]
            flight.answer = answer
            if flight.landed is not None:
                flight.landed.set()
        return answer, True


def finish_request(reply: dict, recorder: MemoryTracer, trace_id: str, *,
                   fingerprint: str, started: float, stitch: bool,
                   slo: SLOTracker, flightrec: FlightRecorder,
                   route: list[str] | None = None,
                   failed_over: bool = False) -> dict:
    """Close one answered request's books once its span has ended.

    Takes the SLO sample and records the flight-recorder digest (the
    reply's timing phases, plus ``route_s``, ``route`` and
    ``failed_over`` for a routed request).  For a ``stitch`` caller — one
    that sent a trace context — the reply's result carries the request's
    span records as ``obs``; everyone else gets the reply untouched.
    Shared by the induction server and the cluster router.
    """
    wall_s = time.monotonic() - started
    status = str(reply.get("status", "error"))
    slo.record(wall_s, ok=status == "ok")
    result = reply.get("result")
    if not isinstance(result, dict):
        result = None
    phases = {key: result[key] for key in
              ("queue_wait_s", "server_wall_s", "wall_s")
              if result and result.get(key) is not None}
    if route is not None:
        phases["route_s"] = wall_s
    flightrec.record(
        fingerprint=fingerprint, outcome=status, wall_s=wall_s,
        trace=trace_id, phases=phases, route=route,
        spans=recorder.events,
        degraded=bool(result.get("degraded")) if result else False,
        failed_over=failed_over)
    if stitch and result is not None:
        reply = dict(reply)
        reply["result"] = {**result, "obs": {"spans": list(recorder.events)}}
    return reply


class _Ticket(NamedTuple):
    """One admitted submit, fingerprinted and checked but not parsed."""

    wire: dict
    fingerprint: str
    admitted: float
    #: Absolute :func:`time.monotonic` deadline, or None.
    deadline: float | None

    def degraded(self, wall_s: float) -> dict:
        """The verified greedy reply payload; parses the wire (rare path)."""
        return result_to_payload(degraded_result(
            protocol.request_from_wire(self.wire), wall_s=wall_s))


class _Served(NamedTuple):
    """A flight's ``ok`` outcome, before it becomes each request's reply."""

    payload: dict
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
                 strategy_store=None,
                 slo: SLOTracker | None = None,
                 flightrec: FlightRecorder | None = None) -> None:
        self.config = config
        self.cache = cache
        #: Optional :class:`repro.sched.StrategyOutcomesStore`.  Portfolio
        #: submits are dispatched with this store's ranked order/skip hints
        #: and their outcomes are folded back in, so the server's strategy
        #: selection improves as traffic flows.
        self.strategy_store = strategy_store
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
    # never recurses back out to the cluster.

    def _peer_cache_get(self, msg: dict) -> dict:
        fingerprint = msg.get("fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise protocol.ProtocolError("cache_get needs a fingerprint")
        self.counters.bump("peer_cache_requests")
        entry = None
        if self.cache is not None:
            get = getattr(self.cache, "get_local", self.cache.get)
            entry = get(fingerprint)
        if entry is None:
            return {"status": "cache", "hit": False}
        self.counters.bump("peer_cache_served")
        return {"status": "cache", "hit": True, "entry": entry}

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
                live.set(disposition=reply["result"]["disposition"])
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
                if ticket.wire.get("method") == "portfolio":
                    wait_s += PORTFOLIO_KILL_GRACE_S
            outcome, led = self._flights.share(
                ticket.fingerprint, lambda: self._lead(ticket, tee),
                wait_s=wait_s)
            if not led:
                self.counters.bump("dedup_hits")
                if outcome is None:
                    # The leader outlived this request's own deadline.
                    self.counters.bump("degraded_deadline")
                    outcome = _Served(
                        ticket.degraded(time.monotonic() - ticket.admitted),
                        "deadline", ticket.admitted)
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
            entry = self.cache.get(ticket.fingerprint)
            if entry is not None:
                self.counters.bump("cache_hits")
                return _Served(
                    replay(entry, wall_s=time.monotonic() - ticket.admitted),
                    "cache", ticket.admitted)
        with self._lock:
            if not self._free_workers:
                if self._waiting >= self.config.queue_size:
                    return {"status": "busy", "reason": "queue full",
                            "queue_depth": self._waiting}
                self._waiting += 1
                try:
                    while not self._free_workers and not self._shedding:
                        self._worker_freed.wait()
                finally:
                    self._waiting -= 1
            if self._shedding:
                return {"status": "busy", "reason": "shutdown"}
            self._free_workers -= 1
        try:
            return self._dispatch(ticket, tee)
        finally:
            with self._lock:
                self._free_workers += 1
                self._worker_freed.notify()

    def _dispatch(self, ticket: _Ticket, tee: Tracer) -> _Served | dict:
        """Run one search on a worker; degrade or error as it ends."""
        deadline = ticket.deadline
        started = time.monotonic()
        # Worker-side spans hang off the dispatch span via the context
        # injected into the wire below, completing the stitched trace in
        # the leader's recorder (joiners carry only their own
        # service.request span — the search ran on the leader's trace).
        with span("service.dispatch", tee) as live:
            disposition = "miss"
            wire = dict(ticket.wire)
            ctx = current_context()
            if ctx is not None:
                wire["trace_ctx"] = ctx
            if wire.get("method") == "portfolio":
                # The race self-deadlines inside the worker; the pool's
                # kill switch is only the wedged-worker backstop.  A
                # server-default deadline reaches the race through the
                # wire, since the client never set one there.
                inject_portfolio_hints(wire, self.strategy_store)
                if deadline is not None:
                    if "deadline_s" not in wire:
                        wire["deadline_s"] = max(
                            0.0, deadline - time.monotonic())
                    deadline += PORTFOLIO_KILL_GRACE_S
            try:
                worker_started = time.monotonic()
                payload, meta = self.pool.run(wire, deadline)
                self.metrics.observe(
                    "service_worker_seconds",
                    time.monotonic() - worker_started,
                    trace_id=live.trace_id)
                absorb_obs(payload, tracer=tee, registry=self.metrics)
                record_portfolio_outcome(payload, self.strategy_store)
                payload["retries"] = meta["retries"]
                if meta["retries"]:
                    self.metrics.observe("service_worker_retries",
                                         meta["retries"],
                                         buckets=DEFAULT_SIZE_BUCKETS)
                if self.cache is not None:
                    self.cache.put(ticket.fingerprint, payload)
            except DeadlineExpired:
                disposition = "deadline"
                self.counters.bump("degraded_deadline")
                payload = ticket.degraded(time.monotonic() - started)
            except RetriesExhausted:
                disposition = "retries"
                self.counters.bump("degraded_retries")
                payload = ticket.degraded(time.monotonic() - started)
            except WorkerTaskError as exc:
                self.counters.bump("task_errors")
                live.set(disposition="error")
                return {"status": "error", "error": str(exc)}
            live.set(disposition=disposition)
        return _Served(payload, disposition, started)

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
                             degraded=bool(served.payload.get("degraded")),
                             deduped=deduped,
                             wall_s=extras["server_wall_s"])
        return {"status": "ok", "result": {**served.payload, **extras}}

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
