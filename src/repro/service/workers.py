"""Supervised worker processes for the induction service.

The exponential search must not run on the server's accept path: it can
blow a deadline, exhaust memory, or (on real deployments) segfault in
native code.  So every search runs in a *worker process* joined to the
parent by a :mod:`multiprocessing` pipe — the same control-process/PE-pipe
shape as :class:`repro.models.pipes.PipeModel`, but real.  The supervisor
gives the service its robustness guarantees:

- **deadlines** — each attempt's task carries the time left until the
  request's deadline, so the worker's search stops there by itself and
  answers with its checked incumbent.  The kill is only the backstop for
  a hung worker: the parent waits on the pipe until :data:`KILL_GRACE_S`
  past the deadline, then kills and respawns the worker, and the caller
  degrades to the greedy schedule (``degraded=True``, never an error).
  A task whose deadline has passed is never sent;
- **crash retry** — a worker that dies mid-search (EOF on the pipe) is
  respawned and the task retried with exponential backoff, up to
  ``max_retries``; only then does the task degrade;
- **inline fallback** — environments that cannot fork run tasks
  in-process, where the search honours the deadline all the same, so
  the service still functions everywhere the library does.

A task is the submit's wire dict, region text and all (a parse costs less
than a pickled region).  The reply is the entry text the server stores
and sends, encoded once here, with an ``obs`` field that
:func:`absorb_obs` replays: span records and metric calls.

Fault injection for tests rides the wire: a ``chaos`` object may request
``crash_attempts`` (die with ``os._exit`` on the first N attempts) or
``sleep_s`` (stall before searching).  Servers strip ``chaos`` unless
explicitly constructed with ``allow_chaos=True``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import threading
import time
from typing import Any, Mapping

from repro.api import InductionRequest, _execute_local
from repro.core.pipeline import run_induction
from repro.core.result import InductionResult, result_to_payload
from repro.obs import Counters, MemoryTracer, attach_context, replay_events, span
from repro.obs.metrics import (
    MetricsLog, MetricsRegistry, get_registry, use_registry)
from repro.service.protocol import ResultText, request_from_wire

__all__ = [
    "DeadlineExpired",
    "KILL_GRACE_S",
    "RetriesExhausted",
    "WorkerPool",
    "WorkerTaskError",
    "absorb_obs",
    "degraded_result",
]


#: Seconds past a task's deadline before its worker is killed.  The search
#: stops at the deadline by itself (within 256 nodes) and then only checks
#: and costs its incumbent, so the kill catches a hung or stalled worker,
#: not a search.
KILL_GRACE_S = 1.0


class DeadlineExpired(Exception):
    """The task's deadline passed before a worker finished it."""


class RetriesExhausted(Exception):
    """Workers died more times than the retry budget allows."""


class WorkerTaskError(Exception):
    """The task itself raised inside the worker (not a worker death)."""


class _WorkerDied(Exception):
    """Internal: the worker process exited without replying."""


def _execute_wire(wire: Mapping[str, Any]) -> ResultText:
    """Execute a wire-form submit with worker-side observability.

    The request runs under a :class:`MetricsLog` and a
    :class:`MemoryTracer` recorder, attached to the parent's span context
    shipped in ``wire["trace_ctx"]`` (if any) so the ``worker.execute``
    span — and everything the induction emits beneath it — stays on the
    caller's trace.  The wire's ``deadline_s`` is the time its sender had
    left; the search stops there with its checked incumbent.  The result
    comes back encoded once, as the :class:`ResultText` the server stores
    and sends; the recorded events and metric calls ride in its ``obs``
    field, which :func:`absorb_obs` replays, so nothing is double-counted
    or lost at the process boundary.
    """
    recorder = MemoryTracer()
    log = MetricsLog()
    request = request_from_wire(wire).replace(cache=None, tracer=recorder)
    with use_registry(log), attach_context(wire.get("trace_ctx")):
        with span("worker.execute", recorder, pid=os.getpid(),
                  method=request.method):
            result = _execute_local(request)
    return ResultText.encode(result_to_payload(result), obs={
        "spans": recorder.events, "metrics": log.calls})


def absorb_obs(result: ResultText, tracer=None,
               registry: MetricsRegistry | None = None) -> ResultText:
    """A worker's ``result`` without its ``obs`` field, replayed here.

    Its spans go to ``tracer`` (when given and enabled), its metric calls
    to ``registry`` (default: the registry in scope).
    """
    fields = dict(result.fields)
    obs = fields.pop("obs")
    if tracer is not None:
        replay_events(obs["spans"], tracer)
    (registry or get_registry()).replay(obs["metrics"])
    return ResultText(result.text, fields, result.flags)


def _worker_main(conn, parent_end) -> None:
    """Child process loop: ``(wire, attempt)`` in, ``(status, payload)`` out.

    A forked child inherits ``parent_end``, the supervisor's end of its own
    pipe.  It is closed first thing: while the child holds it, ``recv``
    never sees EOF, so a supervisor killed with SIGKILL would leave the
    worker running forever.
    """
    parent_end.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if msg is None:
            return
        wire, attempt = msg
        chaos = wire.get("chaos") or {}
        if attempt < int(chaos.get("crash_attempts", 0)):
            os._exit(3)
        sleep_s = float(chaos.get("sleep_s", 0.0))
        if sleep_s:
            time.sleep(sleep_s)
        try:
            conn.send(("ok", _execute_wire(wire)))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


class _WorkerHandle:
    """One supervised worker process plus its request/reply pipe."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._spawn()

    def _spawn(self) -> None:
        parent, child = self._ctx.Pipe()
        self.conn = parent
        self.proc = self._ctx.Process(
            target=_worker_main, args=(child, parent), daemon=True)
        self.proc.start()
        child.close()

    def _respawn(self) -> None:
        self._kill()
        self._spawn()

    def _kill(self) -> None:
        try:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join(timeout=2.0)
        finally:
            self.conn.close()

    def run(self, wire: Mapping[str, Any], attempt: int,
            timeout: float | None) -> ResultText:
        """One task round-trip; respawns the worker on timeout or death."""
        try:
            self.conn.send((dict(wire), attempt))
        except (BrokenPipeError, OSError) as exc:
            self._respawn()
            raise _WorkerDied(str(exc)) from exc
        if not self.conn.poll(timeout):
            self._respawn()
            raise DeadlineExpired(f"no reply within {timeout:.3f}s")
        try:
            status, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            self._respawn()
            raise _WorkerDied(str(exc)) from exc
        if status != "ok":
            raise WorkerTaskError(payload)
        return payload

    def close(self) -> None:
        try:
            self.conn.send(None)
            self.proc.join(timeout=2.0)
        except (BrokenPipeError, OSError):
            pass
        self._kill()


class _InlineHandle:
    """Fallback when processes are unavailable: run in this process.

    The search honours the task's deadline as in a worker; there is no
    kill backstop and chaos injection is ignored — there is no worker to
    kill or stall.
    """

    def run(self, wire: Mapping[str, Any], attempt: int,
            timeout: float | None) -> ResultText:
        try:
            return _execute_wire(wire)
        except Exception as exc:  # noqa: BLE001 - mirror the worker contract
            raise WorkerTaskError(f"{type(exc).__name__}: {exc}") from exc

    def close(self) -> None:
        pass


class WorkerPool:
    """A fixed set of supervised workers with retry/backoff/deadline logic.

    ``counters`` (optional, shared with the server) receives
    ``worker_deaths``, ``worker_respawns``, ``retries`` and
    ``degraded_tasks`` as supervision events happen.
    """

    def __init__(self, workers: int = 1, max_retries: int = 2,
                 backoff_s: float = 0.05,
                 counters: Counters | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.counters = counters if counters is not None else Counters()
        self.inline = False
        self._handles: queue.Queue = queue.Queue()
        self._all: list = []
        self._lock = threading.Lock()
        self._closed = False
        try:
            ctx = multiprocessing.get_context()
            for _ in range(workers):
                handle = _WorkerHandle(ctx)
                self._all.append(handle)
                self._handles.put(handle)
        except (OSError, PermissionError, ImportError, RuntimeError):
            for handle in self._all:
                handle.close()
            self._all = []
            self._handles = queue.Queue()
            self.inline = True
            for _ in range(workers):
                handle = _InlineHandle()
                self._all.append(handle)
                self._handles.put(handle)
        self.workers = workers

    def run(self, wire: Mapping[str, Any],
            deadline: float | None = None) -> tuple[ResultText, dict]:
        """Run one task to completion, surviving worker deaths.

        ``deadline`` is the request's absolute :func:`time.monotonic`
        instant.  Each attempt sends the task with the time left as its
        ``deadline_s``, so the search stops at the deadline by itself; the
        worker is killed only :data:`KILL_GRACE_S` later.  A task with no
        time left is not sent.  Returns ``(result, meta)``: the worker's
        :class:`ResultText`, ``obs`` field and all, and counts of retries
        and deaths; raises :class:`DeadlineExpired` /
        :class:`RetriesExhausted` (callers degrade) or
        :class:`WorkerTaskError` (a genuine task bug).
        """
        meta = {"attempts": 0, "retries": 0, "worker_deaths": 0}
        attempt = 0
        timeout = None
        while True:
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise DeadlineExpired("deadline expired while queued")
                wire = {**wire, "deadline_s": left}
                timeout = left + KILL_GRACE_S
            handle = self._handles.get()
            try:
                meta["attempts"] += 1
                result = handle.run(wire, attempt, timeout)
                return result, meta
            except _WorkerDied as exc:
                meta["worker_deaths"] += 1
                self.counters.bump("worker_deaths")
                self.counters.bump("worker_respawns")
                if attempt >= self.max_retries:
                    raise RetriesExhausted(
                        f"worker died {attempt + 1}x: {exc}") from exc
                backoff = self.backoff_s * (2 ** attempt)
                if deadline is not None:
                    backoff = min(backoff,
                                  max(0.0, deadline - time.monotonic()))
                time.sleep(backoff)
                attempt += 1
                meta["retries"] += 1
                self.counters.bump("retries")
            finally:
                self._handles.put(handle)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._all:
            handle.close()


# -- the degraded fallback -------------------------------------------------


def degraded_result(request: InductionRequest,
                    wall_s: float | None = None) -> InductionResult:
    """The graceful-degradation fallback: a verified greedy schedule.

    Greedy list-scheduling is linear-ish and deterministic, so it answers
    at once when no worker did (the deadline passed before one was free,
    the worker hung past its kill, or workers kept dying); the result is
    flagged ``degraded=True`` and is *verified* like any fresh schedule.

    ``wall_s=None`` (not given) reports the fallback's own build time; an
    explicit value — including an explicit ``0.0`` — is reported verbatim.
    (A previous ``wall_s or res.wall_s`` treated 0.0 as "not given".)
    """
    res = run_induction(
        request.resolved_region(), request.resolved_model(), "greedy",
        request.resolved_config(), vn=request.vn)
    return dataclasses.replace(
        res, degraded=True,
        wall_s=wall_s if wall_s is not None else res.wall_s)
