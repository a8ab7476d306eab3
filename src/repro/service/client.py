"""Blocking client for the induction service.

One :class:`ServiceClient` per caller.  It keeps one open connection per
calling thread, so a client object is safe to share across threads (the
benchmark's submit pool does exactly that) and sequential calls pay for
no connect; :meth:`ServiceClient.close` (or leaving its ``with`` block)
closes them all.

Every submit reply, from a server or through a cluster
(:class:`repro.cluster.ClusterClient` reads its routed replies here too),
becomes a result in one place, :func:`read_reply`: the same
:class:`~repro.core.result.InductionResult` a local call returns.
Admission-control sheds surface as :class:`ServiceBusy` — a clear,
retryable signal distinct from :class:`ServiceError` (malformed request,
a reply that is no result, or a genuine server-side bug).  Degraded
results are *not* errors: they come back as ordinary results with
``degraded=True``, per the service's graceful-degradation contract.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Mapping

from repro.api import InductionRequest
from repro.core.result import InductionResult, result_from_payload
from repro.obs import Tracer, replay_events, span
from repro.service import protocol
from repro.service.endpoint import Endpoint

__all__ = ["ServiceBusy", "ServiceClient", "ServiceError", "read_reply",
           "replay_obs"]


class ServiceError(RuntimeError):
    """The server rejected the request or the protocol broke."""


class ServiceBusy(ServiceError):
    """Admission control shed the request (queue full or shutting down)."""


def replay_obs(obs: Any, tracer: Tracer) -> None:
    """Replay a reply's ``obs`` freight (a daemon's span records) into
    ``tracer``; unless it is an object whose ``spans`` is a list of objects
    with string keys, replay nothing and raise :class:`ServiceError`."""
    spans = obs.get("spans") if isinstance(obs, dict) else None
    if not isinstance(spans, list) or not all(
            isinstance(record, dict)
            and all(isinstance(key, str) for key in record)
            for record in spans):
        raise ServiceError(f"reply with a bad obs freight: {obs!r:.200}")
    replay_events(spans, tracer)


def read_reply(reply: Mapping[str, Any],
               tracer: Tracer | None) -> InductionResult:
    """A submit's reply as its result; raises for any other reply.

    ``busy`` raises :class:`ServiceBusy`, any other status but ``ok``
    raises :class:`ServiceError`, and so does an ``ok`` reply whose
    result does not build.  A result a daemon holds as
    :class:`~repro.service.protocol.ResultText` (an in-process router's
    reply) is decoded as a receiver would.  The result's ``obs`` field —
    the server-side span records of a traced request — is dropped, and
    replayed into ``tracer`` when it is enabled (:func:`replay_obs`).
    """
    status = reply.get("status")
    if status == "busy":
        raise ServiceBusy(
            f"service busy: {reply.get('reason', 'unspecified')}")
    if status != "ok":
        raise ServiceError(reply.get("error", f"bad reply {reply!r}"))
    payload = protocol.decode_result(reply.get("result"))
    if isinstance(payload, dict):
        obs = payload.pop("obs", None)
        if obs and tracer is not None and tracer.enabled:
            replay_obs(obs, tracer)
    try:
        return result_from_payload(payload)
    except ValueError as exc:
        raise ServiceError(
            f"ok reply with a bad result {payload!r}: {exc}") from exc


class ServiceClient:
    """Submit induction requests to a running ``repro serve`` daemon."""

    def __init__(self, endpoint: Endpoint | str,
                 timeout: float | None = 600.0) -> None:
        #: Where the service lives: an :class:`Endpoint` or its URL string.
        self.endpoint = Endpoint.parse(endpoint)
        self.timeout = timeout
        #: Each calling thread's open connection.
        self._socks: dict[threading.Thread, socket.socket] = {}
        self._lock = threading.Lock()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; the next call opens anew."""
        with self._lock:
            socks = list(self._socks.values())
            self._socks.clear()
        for sock in socks:
            sock.close()

    def __del__(self) -> None:
        # A client dropped without close() still releases its connections.
        if hasattr(self, "_socks"):
            self.close()

    def _open(self) -> socket.socket:
        sock = self.endpoint.connect(timeout=self.timeout)
        with self._lock:
            # Connections of threads that have since exited go first.
            gone = [t for t in self._socks if not t.is_alive()]
            stale = [self._socks.pop(t) for t in gone]
            self._socks[threading.current_thread()] = sock
        for old in stale:
            old.close()
        return sock

    def _roundtrip(self, message: Mapping[str, Any] | protocol.Submit
                   ) -> dict[str, Any]:
        me = threading.current_thread()
        try:
            _sock, reply = protocol.exchange(self._socks.get(me), message,
                                             self._open)
        except BaseException as exc:
            # The exchange closed the socket; a broken reply, or a submit
            # that fails to encode as it is sent (a budget of 0, say),
            # costs the connection, and the next call opens a fresh one.
            with self._lock:
                self._socks.pop(me, None)
            if isinstance(exc, (OSError, protocol.ProtocolError)):
                raise ServiceError(
                    f"service at {self.endpoint} unreachable: {exc}"
                ) from exc
            raise
        return reply

    def submit(self, request: InductionRequest,
               chaos: Mapping[str, Any] | None = None) -> InductionResult:
        """Run one request on the service; blocks until the reply.

        With ``request.tracer`` set, the roundtrip happens inside a
        ``client.submit`` span whose context rides the wire, and the span
        records the server ships back in the reply's ``obs`` payload are
        replayed into the tracer — one stitched trace from this caller
        through server (and, via a router, the whole cluster) to worker.

        ``chaos`` injects test faults (crash/sleep) and is honoured only by
        servers started with ``allow_chaos=True``.
        """
        tracer = request.tracer
        # Encoded as it is sent, inside the span when there is one.
        message = protocol.Submit(request, chaos)
        if tracer is not None and tracer.enabled:
            # The span makes a trace context current, so the frame
            # carries it and the server knows to ship spans back.
            with span("client.submit", tracer, endpoint=self.endpoint.label):
                reply = self._roundtrip(message)
        else:
            # No client tracer: no span of our own, but an ambient caller
            # span (if any) still propagates through the frame.
            reply = self._roundtrip(message)
        return read_reply(reply, tracer)

    def stats(self) -> dict[str, Any]:
        reply = self._roundtrip({"op": "stats"})
        if reply.get("status") != "stats":
            raise ServiceError(f"bad stats reply {reply!r}")
        return reply["stats"]

    def metrics(self) -> str:
        """Prometheus text exposition from the server's ``metrics`` op."""
        reply = self._roundtrip({"op": "metrics"})
        if reply.get("status") != "metrics":
            raise ServiceError(f"bad metrics reply {reply!r}")
        return reply["metrics"]

    def flightrec(self, *, slow: bool = False, failed: bool = False,
                  last: int | None = None) -> dict[str, Any]:
        """Fetch captured request digests from the flight recorder.

        Works against a server or a cluster router (both serve the op with
        the same shape): ``{"considered": n, "captured": m, "buffered": k,
        "digests": [...]}``.
        """
        message: dict[str, Any] = {"op": "flightrec",
                                   "slow": slow, "failed": failed}
        if last is not None:
            message["last"] = int(last)
        reply = self._roundtrip(message)
        if reply.get("status") != "flightrec":
            raise ServiceError(f"bad flightrec reply {reply!r}")
        return reply["flightrec"]

    def slo(self) -> dict[str, Any]:
        """Fetch the SLO status (objectives, windows, burn rates)."""
        reply = self._roundtrip({"op": "slo"})
        if reply.get("status") != "slo":
            raise ServiceError(f"bad slo reply {reply!r}")
        return reply["slo"]

    def ping(self) -> bool:
        try:
            return self._roundtrip({"op": "ping"}).get("status") == "pong"
        except (ServiceError, socket.timeout):
            return False

    def drain(self) -> dict[str, Any]:
        """Ask the server to stop admitting new work but keep running.

        In-flight tickets finish normally; new submits are shed with
        ``busy`` (reason ``draining``).  Stats/metrics/ping stay live so a
        draining node remains observable until it is shut down.
        """
        reply = self._roundtrip({"op": "drain"})
        if reply.get("status") != "ok":
            raise ServiceError(f"drain failed: {reply!r}")
        return reply

    def cache_get(self, fingerprint: str) -> Any:
        """The cache entry under ``fingerprint`` in the server's local tiers.

        The peer-cache read behind :class:`repro.cluster.RemoteScheduleCache`,
        which checks what it gets: ``None`` on a miss (and from a server
        that sends no ``entry``).  The server sends the entry's stored
        text; this is it decoded.  Unreachable peers raise
        :class:`ServiceError`; the remote tier treats that as a miss.
        """
        reply = self._roundtrip({"op": "cache_get",
                                 "fingerprint": fingerprint})
        if reply.get("status") != "cache":
            raise ServiceError(f"bad cache_get reply {reply!r}")
        return reply.get("entry") if reply.get("hit") else None

    def cache_put(self, fingerprint: str,
                  entry: Mapping[str, Any] | protocol.ResultText) -> None:
        """Push a cache entry, or its text, into the server's local tiers."""
        reply = self._roundtrip({"op": "cache_put",
                                 "fingerprint": fingerprint,
                                 "entry": entry if isinstance(
                                     entry, protocol.ResultText)
                                 else dict(entry)})
        if reply.get("status") != "ok":
            raise ServiceError(f"cache_put failed: {reply!r}")

    def shutdown(self, drain: bool = True) -> None:
        """Ask the server to stop; returns after the drain completes."""
        reply = self._roundtrip({"op": "shutdown", "drain": drain})
        self.close()
        if reply.get("status") != "ok":
            raise ServiceError(f"shutdown failed: {reply!r}")
