"""Health-checked cluster membership: up, down, draining.

The router must keep routing while nodes die, hang, and come back.  A
:class:`Membership` tracks one :class:`NodeHealth` per endpoint and drives
it from two signal sources:

- **heartbeat probes** — a background thread (or an explicit
  :meth:`probe_once` call in tests) runs the ``stats`` op against every
  node each ``probe_interval_s``.  A reply proves liveness *and* reports
  queue depth and the node's own draining flag; a failure counts toward
  ``mark_down_after`` consecutive failures, after which the node is DOWN
  and the ring stops routing to it.  One later success marks it UP again.
- **routing feedback** — the router calls :meth:`note_failure` when a
  forwarded request hits a dead socket, so a crashed node leaves the ring
  after ``mark_down_after`` strikes without waiting out probe intervals.

**Draining** is deliberate removal: :meth:`drain` (or the node's own
``draining`` stats gauge, observed by probes) removes the node from
:meth:`routable` immediately — no new work — while the node itself keeps
serving its in-flight tickets; it stays observable until stopped.

Membership changes bump :attr:`version`; the router rebuilds its hash ring
only when the version moves, so the hot routing path never takes the
membership lock for more than a read.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.cluster.config import PEER_TIMEOUT_S
from repro.service.endpoint import Endpoint

__all__ = ["Membership", "NodeHealth", "UP", "DOWN", "DRAINING"]

UP = "up"
DOWN = "down"
DRAINING = "draining"


@dataclass
class NodeHealth:
    """Mutable health record for one node (guarded by Membership's lock)."""

    endpoint: Endpoint
    state: str = UP
    consecutive_failures: int = 0
    probes: int = 0
    failures: int = 0
    last_error: str = ""
    #: Queue depth from the node's last successful stats probe.
    queue_depth: float = 0.0
    #: The node's ``slo_*`` gauges (burn rates, healthy flag) from its
    #: last successful stats probe — how per-node SLO status reaches the
    #: router's ``cluster_status`` without a second wire op.
    slo: dict = field(default_factory=dict)
    last_seen: float = field(default_factory=time.monotonic)

    @property
    def name(self) -> str:
        return str(self.endpoint)

    def snapshot(self) -> dict:
        return {
            "endpoint": self.name,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "probes": self.probes,
            "failures": self.failures,
            "last_error": self.last_error,
            "queue_depth": self.queue_depth,
            "slo": dict(self.slo),
        }


def _default_probe(endpoint: Endpoint, timeout: float) -> Mapping:
    """Probe one node: its ``stats`` snapshot (raises on failure)."""
    from repro.service.client import ServiceClient

    with ServiceClient(endpoint, timeout=timeout) as client:
        return client.stats()


class Membership:
    """The live node table behind a router (see module docstring)."""

    def __init__(self, endpoints: Iterable[Endpoint],
                 probe_interval_s: float = 1.0,
                 mark_down_after: int = 3,
                 probe: Callable[[Endpoint, float], Mapping] | None = None,
                 on_change: Callable[[], None] | None = None) -> None:
        self._nodes: dict[str, NodeHealth] = {}
        for endpoint in endpoints:
            health = NodeHealth(endpoint=Endpoint.parse(endpoint))
            self._nodes[health.name] = health
        if not self._nodes:
            raise ValueError("membership needs at least one endpoint")
        self.probe_interval_s = probe_interval_s
        self.mark_down_after = mark_down_after
        self._probe = probe or _default_probe
        self._on_change = on_change
        self._lock = threading.Lock()
        self.version = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the background heartbeat thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._probe_loop, name="cluster-probe", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001 - probes must never kill the loop
                pass

    # -- probing -----------------------------------------------------------

    def probe_once(self) -> dict[str, str]:
        """Probe every node once; returns ``{name: state}`` afterwards.

        Called by the heartbeat thread, and directly by tests (with an
        injected ``probe``) so mark-down behaviour is deterministic.
        """
        for health in list(self._nodes.values()):
            try:
                stats = self._probe(health.endpoint, PEER_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - any failure is a strike
                self._record_failure(health.name, f"{type(exc).__name__}: {exc}")
                continue
            self._record_success(health.name, stats)
        return self.states()

    def _record_success(self, name: str, stats: Mapping) -> None:
        with self._lock:
            health = self._nodes[name]
            health.probes += 1
            health.consecutive_failures = 0
            health.last_error = ""
            health.last_seen = time.monotonic()
            health.queue_depth = float(stats.get("queue_depth", 0.0) or 0.0)
            slo = {key: float(value) for key, value in stats.items()
                   if key.startswith("slo_")}
            if slo:
                health.slo = slo
            # A node that says it is draining is treated exactly like an
            # explicit drain() call; a node that stopped saying so (e.g. it
            # was restarted) comes back.
            if stats.get("draining"):
                changed = health.state != DRAINING
                health.state = DRAINING
            else:
                changed = health.state != UP
                health.state = UP
            if changed:
                self._bump_locked()
        if changed and self._on_change is not None:
            self._on_change()

    def note_failure(self, name: str, error: str = "") -> None:
        """Routing-path strike: a forward to ``name`` failed."""
        self._record_failure(name, error)

    def note_success(self, name: str) -> None:
        """Routing-path all-clear: a forward to ``name`` completed."""
        with self._lock:
            health = self._nodes.get(name)
            if health is None:
                return
            health.consecutive_failures = 0
            health.last_seen = time.monotonic()
            changed = health.state == DOWN
            if changed:
                health.state = UP
                self._bump_locked()
        if changed and self._on_change is not None:
            self._on_change()

    def _record_failure(self, name: str, error: str) -> None:
        with self._lock:
            health = self._nodes.get(name)
            if health is None:
                return
            health.probes += 1
            health.failures += 1
            health.consecutive_failures += 1
            health.last_error = error
            changed = (health.state != DOWN and
                       health.consecutive_failures >= self.mark_down_after)
            if changed:
                health.state = DOWN
                self._bump_locked()
        if changed and self._on_change is not None:
            self._on_change()

    # -- explicit transitions ----------------------------------------------

    def drain(self, name: str) -> None:
        """Stop routing new work to ``name``; in-flight work finishes."""
        self._set_state(name, DRAINING)

    def mark_down(self, name: str) -> None:
        self._set_state(name, DOWN)

    def mark_up(self, name: str) -> None:
        with self._lock:
            health = self._require(name)
            health.consecutive_failures = 0
        self._set_state(name, UP)

    def _set_state(self, name: str, state: str) -> None:
        with self._lock:
            health = self._require(name)
            changed = health.state != state
            health.state = state
            if changed:
                self._bump_locked()
        if changed and self._on_change is not None:
            self._on_change()

    def _require(self, name: str) -> NodeHealth:
        health = self._nodes.get(str(name))
        if health is None:
            raise LookupError(f"unknown node {name!r}")
        return health

    def _bump_locked(self) -> None:
        self.version += 1

    # -- views -------------------------------------------------------------

    def routable(self) -> list[str]:
        """Names of nodes the ring should route *new* work to (UP only)."""
        with self._lock:
            return [h.name for h in self._nodes.values() if h.state == UP]

    def states(self) -> dict[str, str]:
        with self._lock:
            return {h.name: h.state for h in self._nodes.values()}

    def endpoint_of(self, name: str) -> Endpoint:
        with self._lock:
            return self._require(name).endpoint

    def queue_depths(self) -> dict[str, float]:
        """Latest probed queue depth per node (for load-aware routing)."""
        with self._lock:
            return {h.name: h.queue_depth for h in self._nodes.values()}

    def snapshot(self) -> list[dict]:
        with self._lock:
            return [h.snapshot() for h in self._nodes.values()]
