"""What every daemon shares: connections, single-flight, request books.

The induction server (:mod:`repro.service.server`) and the cluster router
(:mod:`repro.cluster.router`) answer requests the same way, through the
pieces here:

- :class:`Connections` serves each accepted connection on its own thread,
  one framed request and reply after another;
- :class:`SingleFlight` lets the first request for a fingerprint lead and
  its duplicates join the leader's answer;
- :func:`finish_request` closes one answered request's books: the SLO
  sample, the flight-recorder digest and, for a traced caller, the span
  records stitched into the reply;
- :func:`flightrec_reply` serves the ``flightrec`` op.

Nothing here starts a worker process, so a router that imports this
module loads neither the worker pool nor :mod:`multiprocessing`.
"""

from __future__ import annotations

import socket
import threading
import time
import traceback
from typing import Callable

from repro.obs import MemoryTracer
from repro.obs.flightrec import FlightRecorder
from repro.obs.slo import SLOTracker
from repro.service import protocol

__all__ = ["Connections", "SingleFlight", "finish_request",
           "flightrec_reply"]


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

    Takes the SLO sample and records the flight-recorder digest: the
    timing phases among the result's own fields, plus ``route_s``,
    ``route`` and ``failed_over`` for a routed request.  It reads only an
    ``ok`` result's fields and flag, never its text.  For a ``stitch``
    caller — one that sent a trace context — the reply's result carries
    the request's span records as its ``obs`` field; everyone else gets
    the reply untouched.  Shared by the induction server and the cluster
    router.
    """
    wall_s = time.monotonic() - started
    status = str(reply.get("status", "error"))
    slo.record(wall_s, ok=status == "ok")
    result = reply.get("result")
    if not isinstance(result, protocol.ResultText):
        result = None
    fields = result.fields if result is not None else {}
    phases = {key: fields[key] for key in
              ("queue_wait_s", "server_wall_s", "wall_s")
              if fields.get(key) is not None}
    if route is not None:
        phases["route_s"] = wall_s
    flightrec.record(
        fingerprint=fingerprint, outcome=status, wall_s=wall_s,
        trace=trace_id, phases=phases, route=route,
        spans=recorder.events,
        degraded=result.degraded if result is not None else False,
        failed_over=failed_over)
    if stitch and result is not None:
        reply = dict(reply)
        reply["result"] = result.with_fields(
            obs={"spans": list(recorder.events)})
    return reply
