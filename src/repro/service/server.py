"""The induction server: batching, dedup, admission control, drain.

One :class:`InductionServer` owns a listening socket and three layers of
threads:

- *handlers* (one per connection, kept open across requests) parse each
  frame once, apply admission control, answer a cached fingerprint
  themselves and otherwise queue a ticket and wait for its response;
- the *batcher* takes the first queued ticket plus whatever else is
  already queued — it never waits for more — joins duplicates onto
  in-flight groups, groups the rest by request fingerprint (the dedup
  key) and dispatches each unique group once;
- *dispatchers* (as many as there are workers) re-check the local cache
  tier, run a group through the supervised
  :class:`~repro.service.workers.WorkerPool`, then respond to every member.

Robustness contract (the point of the service):

- a full queue sheds load with a clear ``busy`` reply — never a hang;
- a deadline that expires degrades to the verified greedy schedule with
  ``degraded=True`` — never an error;
- a worker death is retried with backoff; only exhausted retries degrade;
- shutdown stops admitting, *drains* every in-flight ticket, then stops.

Deduplicated requests share one search: the effective deadline of a group
is the earliest member deadline at dispatch, so a degraded group degrades
together (each member still gets a valid, verified schedule).

Metrics are plain :class:`repro.obs.Counters` — ``requests``, ``ok``,
``shed``, ``degraded_deadline``, ``degraded_retries``, ``dedup_hits``,
``cache_hits``, ``batches``, ``batched_tickets``, ``retries``,
``worker_deaths`` — plus gauges ``queue_depth``/``inflight``; the
``stats`` op returns a snapshot, and a :class:`repro.obs.Tracer` (if
given) receives one ``service_batch`` event per batch and one
``service_request`` event per response.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.api import InductionRequest
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

__all__ = ["Connections", "InductionServer", "ServerConfig",
           "flightrec_reply"]


@dataclass
class ServerConfig:
    """Tunables for one :class:`InductionServer`.

    ``endpoint`` is the one connection-config knob: an
    :class:`~repro.service.endpoint.Endpoint` or its URL string form
    (:meth:`Endpoint.parse`; a bare address string raises ``ValueError``).
    """

    endpoint: Endpoint | str | None = None
    workers: int = 1
    queue_size: int = 64
    batch_max: int = 16
    default_deadline_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
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
        if self.batch_max < 1:
            raise ValueError(f"batch max must be >= 1, got {self.batch_max}")


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


class _Ticket:
    """One admitted submit: parsed request plus its response rendezvous."""

    __slots__ = ("wire", "request", "fingerprint", "deadline", "enqueued_at",
                 "event", "response", "trace_ctx", "recorder")

    def __init__(self, wire: dict, request: InductionRequest,
                 fingerprint: str, deadline: float | None) -> None:
        self.wire = wire
        #: The request parsed from ``wire`` at admission; every later
        #: consumer reuses it instead of parsing the region text again.
        self.request = request
        self.fingerprint = fingerprint
        self.deadline = deadline
        self.enqueued_at = time.monotonic()
        self.event = threading.Event()
        self.response: dict[str, Any] | None = None
        #: Span context of this ticket's ``service.request`` span, so the
        #: dispatcher thread can parent its work onto the right trace.
        self.trace_ctx: dict | None = None
        #: Per-request span recorder: the handler (and, for the group
        #: leader, the dispatcher) tees spans in here so the reply can
        #: carry them back to a traced caller and the flight recorder can
        #: keep them for untraced ones.
        self.recorder = MemoryTracer()

    def respond(self, response: dict[str, Any]) -> None:
        self.response = response
        self.event.set()


class _Group:
    """All tickets deduplicated onto one search."""

    def __init__(self, fingerprint: str, first: _Ticket) -> None:
        self.fingerprint = fingerprint
        self.tickets = [first]
        self.lock = threading.Lock()
        self.done = False

    def try_join(self, ticket: _Ticket) -> bool:
        with self.lock:
            if self.done:
                return False
            self.tickets.append(ticket)
            return True

    def members(self) -> list[_Ticket]:
        with self.lock:
            self.done = True
            return list(self.tickets)


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
        self.pool = WorkerPool(
            workers=config.workers, max_retries=config.max_retries,
            backoff_s=config.backoff_s, counters=self.counters)
        self._queue: queue.Queue[_Ticket] = queue.Queue(maxsize=config.queue_size)
        # Dispatch concurrency is bounded by the worker count so that when
        # every worker is busy the queue genuinely backs up and admission
        # control (queue_size) is the thing that sheds load.
        self._dispatch_slots = threading.BoundedSemaphore(config.workers)
        self._inflight: dict[str, _Group] = {}
        self._inflight_lock = threading.Lock()
        self._open_tickets = 0
        self._open_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()
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
        self._accept_thread = self._spawn(
            lambda: self._conns.accept_loop(self._listener), "serve-accept")
        self._batcher_thread = self._spawn(self._batch_loop, "serve-batch")

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

    @staticmethod
    def _spawn(target, name: str) -> threading.Thread:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        return thread

    def shutdown(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` every admitted ticket finishes.

        Without ``drain``, queued-but-undispatched tickets are shed with a
        ``busy`` reply (dispatched groups still complete — workers are
        never abandoned mid-write).
        """
        self._drain_phase(drain)
        self._finalize()

    def _drain_phase(self, drain: bool) -> None:
        self._stopping = True
        try:
            self._listener.close()
        except OSError:
            pass
        if not drain:
            while True:
                try:
                    ticket = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._respond(ticket, {"status": "busy", "reason": "shutdown"})
        self._drained.wait(timeout=600.0)

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
            # Unlike shutdown, a drained node keeps running: in-flight
            # tickets finish, new submits shed with busy/"draining", and
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
        # Parse and validate now, once: a malformed region is an error on
        # the client's connection, and the parsed request rides the ticket.
        request = protocol.request_from_wire(wire)
        fingerprint = request.fingerprint()
        deadline_s = request.deadline_s if request.deadline_s is not None \
            else self.config.default_deadline_s
        deadline = None if deadline_s is None \
            else time.monotonic() + float(deadline_s)
        ticket = _Ticket(wire, request, fingerprint, deadline)
        # The handler thread owns the request's server-side span: it covers
        # queue wait, dispatch and response, and continues the client's
        # trace when the wire carried a context.  The ticket's recorder
        # tees off the same spans so the reply can carry them back.
        tee = TeeTracer(self.tracer, ticket.recorder)
        with attach_context(wire.get("trace_ctx")), \
                span("service.request", tee, method=wire.get(
                    "method", "search")) as live:
            ticket.trace_ctx = current_context()
            response = self._admit_wait(ticket, deadline_s, live)
        return self._finish_request(ticket, response, live.trace_id,
                                    stitch=bool(wire.get("trace_ctx")))

    def _admit_wait(self, ticket: _Ticket, deadline_s: float | None,
                    live) -> dict:
        if self._stopping or self._draining:
            self.counters.bump("shed")
            live.set(status="busy")
            return {"status": "busy",
                    "reason": "draining" if self._draining and
                    not self._stopping else "shutdown"}
        cached = self._answer_from_cache(ticket)
        if cached is not None:
            live.set(status="ok", disposition="cache")
            return cached
        with self._open_lock:
            self._open_tickets += 1
            self._drained.clear()
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self._ticket_closed()
            self.counters.bump("shed")
            live.set(status="busy")
            return {"status": "busy", "reason": "queue full",
                    "queue_depth": self._queue.qsize()}
        self.counters.set("queue_depth", self._queue.qsize())
        wait = None if ticket.deadline is None \
            else max(1.0, deadline_s) + 600.0
        if not ticket.event.wait(timeout=wait or 3600.0):
            live.set(status="error")
            return {"status": "error",
                    "error": "response timed out in server"}
        live.set(status=ticket.response.get("status", "ok"))
        return ticket.response

    def _answer_from_cache(self, ticket: _Ticket) -> dict | None:
        """Replay a cached fingerprint on the handler thread, or None.

        A hit never queues, so it waits behind neither the batcher nor a
        saturated worker pool.  A miss asks the cache's every tier (peers
        included) here; the dispatcher re-checks the local tier only.
        """
        if self.cache is None:
            return None
        with use_registry(self.metrics):
            entry = self.cache.get(ticket.fingerprint)
        if entry is None:
            return None
        self.counters.bump("cache_hits")
        payload = replay(entry, wall_s=time.monotonic() - ticket.enqueued_at)
        return self._ok_reply(ticket, payload, "cache", batch=1,
                              deduped=False, started=ticket.enqueued_at)

    def _ok_reply(self, ticket: _Ticket, payload: dict, disposition: str,
                  batch: int, deduped: bool, started: float) -> dict:
        """One member's ``ok`` reply, counted and timed.

        ``started`` is when its work began: the dispatch for a queued
        ticket, admission itself for a cache hit (zero queue wait).
        """
        now = time.monotonic()
        self.metrics.observe("service_queue_wait_seconds",
                             max(0.0, started - ticket.enqueued_at))
        self.metrics.observe("service_request_seconds",
                             now - ticket.enqueued_at,
                             trace_id=(ticket.trace_ctx or {}).get("trace"))
        extras = {
            "batch": batch,
            "deduped": deduped,
            "queue_wait_s": round(started - ticket.enqueued_at, 6),
            "server_wall_s": round(now - ticket.enqueued_at, 6),
            "disposition": disposition,
        }
        if deduped:
            self.counters.bump("dedup_served")
        self.counters.bump("ok")
        if self.tracer.enabled:
            self.tracer.emit("service_request", disposition=disposition,
                             degraded=bool(payload.get("degraded")),
                             batch=batch, deduped=deduped,
                             wall_s=extras["server_wall_s"])
        return {"status": "ok", "result": {**payload, **extras}}

    def _finish_request(self, ticket: _Ticket, response: dict,
                        trace_id: str, stitch: bool) -> dict:
        """Post-span bookkeeping: SLO sample, flight digest, reply obs."""
        status = str(response.get("status", "ok"))
        wall_s = time.monotonic() - ticket.enqueued_at
        result = response.get("result")
        if not isinstance(result, dict):
            result = None
        degraded = bool(result.get("degraded")) if result else False
        self.slo.record(wall_s, ok=status == "ok")
        phases = {key: result[key] for key in
                  ("queue_wait_s", "server_wall_s", "wall_s")
                  if result and result.get(key) is not None}
        self.flightrec.record(
            fingerprint=ticket.fingerprint, outcome=status, wall_s=wall_s,
            trace=trace_id, phases=phases, spans=ticket.recorder.events,
            degraded=degraded)
        if stitch and result is not None:
            # Only a caller that propagated a trace context pays for span
            # records on the wire; everyone else gets the reply untouched.
            response = dict(response)
            response["result"] = {
                **result, "obs": {"spans": list(ticket.recorder.events)}}
        return response

    def _ticket_closed(self) -> None:
        with self._open_lock:
            self._open_tickets -= 1
            if self._open_tickets == 0:
                self._drained.set()

    def _respond(self, ticket: _Ticket, response: dict) -> None:
        try:
            ticket.respond(response)
        finally:
            self._ticket_closed()

    # -- batching ----------------------------------------------------------

    def _batch_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopped.is_set():
                    return
                continue
            # No linger: a lone ticket dispatches at once, and a burst
            # that queued up meanwhile (behind busy workers) still batches.
            batch = [first]
            while len(batch) < self.config.batch_max:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self.counters.set("queue_depth", self._queue.qsize())
            self._form_groups(batch)

    def _form_groups(self, batch: list[_Ticket]) -> None:
        self.counters.bump("batches")
        self.counters.bump("batched_tickets", len(batch))
        self.metrics.observe("service_batch_size", len(batch),
                             buckets=DEFAULT_SIZE_BUCKETS)
        fresh: dict[str, _Group] = {}
        for ticket in batch:
            live = self._inflight.get(ticket.fingerprint)
            if live is not None and live.try_join(ticket):
                self.counters.bump("dedup_hits")
                continue
            group = fresh.get(ticket.fingerprint)
            if group is not None:
                group.tickets.append(ticket)
                self.counters.bump("dedup_hits")
                continue
            fresh[ticket.fingerprint] = _Group(ticket.fingerprint, ticket)
        if self.tracer.enabled:
            self.tracer.emit("service_batch", tickets=len(batch),
                             groups=len(fresh),
                             deduped=len(batch) - len(fresh))
        for group in fresh.values():
            self._dispatch_slots.acquire()
            with self._inflight_lock:
                self._inflight[group.fingerprint] = group
            self.counters.set("inflight", len(self._inflight))
            self._spawn(lambda g=group: self._run_group(g), "serve-dispatch")

    # -- dispatch ----------------------------------------------------------

    def _run_group(self, group: _Group) -> None:
        try:
            # Everything the dispatch does — cache lookups, degraded
            # fallback searches, worker supervision — records into the
            # server's registry, not the process default.
            with use_registry(self.metrics):
                self._run_group_inner(group)
        finally:
            self._dispatch_slots.release()
            with self._inflight_lock:
                # Identity check: a successor group for the same fingerprint
                # may already have replaced this one.
                if self._inflight.get(group.fingerprint) is group:
                    del self._inflight[group.fingerprint]
                self.counters.set("inflight", len(self._inflight))

    def _run_group_inner(self, group: _Group) -> None:
        first = group.tickets[0]
        request = first.request
        started = time.monotonic()

        # The dispatch span hangs off the first member's service.request
        # span; worker-side spans hang off the dispatch via the context
        # injected into the wire below, completing the stitched trace.
        # Teeing into the leader's recorder puts dispatch + worker spans
        # into the leader's reply obs (dedup members carry only their own
        # service.request span — the search ran on the leader's trace).
        tee = TeeTracer(self.tracer, first.recorder)
        with attach_context(first.trace_ctx), \
                span("service.dispatch", tee,
                     tickets=len(group.tickets)) as live:
            payload: dict | None = None
            disposition = "miss"
            if self.cache is not None:
                # A duplicate that finished while this group queued has
                # filled the local tier; admission already asked the peers.
                get = getattr(self.cache, "get_local", self.cache.get)
                payload = get(group.fingerprint)
                if payload is not None:
                    replay(payload, wall_s=time.monotonic() - started)
                    disposition = "cache"
                    self.counters.bump("cache_hits")

            if payload is None:
                deadlines = [t.deadline for t in group.tickets
                             if t.deadline is not None]
                effective = min(deadlines) if deadlines else None
                wire = dict(first.wire)
                ctx = current_context()
                if ctx is not None:
                    wire["trace_ctx"] = ctx
                if wire.get("method") == "portfolio":
                    # The race self-deadlines inside the worker; the pool's
                    # kill switch is only the wedged-worker backstop.  A
                    # server-default deadline reaches the race through the
                    # wire, since the client never set one there.
                    inject_portfolio_hints(wire, request, self.strategy_store)
                    if effective is not None:
                        if "deadline_s" not in wire:
                            wire["deadline_s"] = max(
                                0.0, effective - time.monotonic())
                        effective += PORTFOLIO_KILL_GRACE_S
                try:
                    worker_started = time.monotonic()
                    payload, meta = self.pool.run(wire, effective)
                    self.metrics.observe(
                        "service_worker_seconds",
                        time.monotonic() - worker_started,
                        trace_id=live.trace_id)
                    absorb_obs(payload, tracer=tee,
                               registry=self.metrics)
                    record_portfolio_outcome(payload, self.strategy_store)
                    payload["retries"] = meta["retries"]
                    if meta["retries"]:
                        self.metrics.observe("service_worker_retries",
                                             meta["retries"],
                                             buckets=DEFAULT_SIZE_BUCKETS)
                    if self.cache is not None:
                        self.cache.put(group.fingerprint, payload)
                except DeadlineExpired:
                    disposition = "deadline"
                    self.counters.bump("degraded_deadline")
                    payload = result_to_payload(degraded_result(
                        request, wall_s=time.monotonic() - started))
                except RetriesExhausted:
                    disposition = "retries"
                    self.counters.bump("degraded_retries")
                    payload = result_to_payload(degraded_result(
                        request, wall_s=time.monotonic() - started))
                except WorkerTaskError as exc:
                    self.counters.bump("task_errors")
                    live.set(disposition="error")
                    for ticket in group.members():
                        self._respond(ticket, {"status": "error",
                                               "error": str(exc)})
                    return
            live.set(disposition=disposition)

        members = group.members()
        for position, ticket in enumerate(members):
            self._respond(ticket, self._ok_reply(
                ticket, payload, disposition, batch=len(members),
                deduped=position > 0, started=started))

    # -- introspection -----------------------------------------------------

    #: Stats keys that are point-in-time gauges rather than monotonic
    #: counters; the Prometheus exposition types them accordingly.
    _GAUGE_STATS = frozenset({
        "queue_depth", "inflight", "workers", "inline_pool",
        "open_tickets", "uptime_s", "trace_events", "draining",
    })

    def stats(self) -> dict:
        """One consistent snapshot: counters, gauges, latency percentiles.

        The live gauges (queue depth, open tickets, uptime, tracer output)
        are written and the counters copied under a single lock acquisition
        (:meth:`Counters.snapshot_with`), so a snapshot taken mid-burst
        cannot pair a new counter value with a stale gauge.
        """
        with self._open_lock:
            open_tickets = self._open_tickets
        gauges = {
            "queue_depth": self._queue.qsize(),
            "workers": self.pool.workers,
            "inline_pool": int(self.pool.inline),
            "open_tickets": open_tickets,
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
