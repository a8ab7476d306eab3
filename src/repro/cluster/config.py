"""Cluster-level configuration values: seeds, ring, retry policy.

A :class:`ClusterConfig` is to a cluster what an
:class:`~repro.service.endpoint.Endpoint` is to one node: the single typed
value every cluster-facing signature takes, instead of loose
``(addresses, retries, ...)`` argument piles.  It is pure data — building
one opens no sockets — so the CLI, :func:`repro.api.induce(cluster=...)`,
the router and the tests all construct it the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.endpoint import Endpoint

__all__ = ["ClusterConfig", "PEER_COOLDOWN_S", "PEER_TIMEOUT_S", "RetryPolicy"]

#: Socket timeout for peer cache reads, membership probes and drains, kept
#: tight: a dead peer's cache read must degrade to a miss, not stall an
#: induction.
PEER_TIMEOUT_S = 2.0

#: How long a node's remote cache tier leaves a ring owner alone after a
#: call to it raised: a dead owner then costs one failed call per
#: cool-down, not two per miss on its arc.
PEER_COOLDOWN_S = 5.0

#: Ceiling on one retry's backoff.
_BACKOFF_CAP_S = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How the router retries a request when a node fails mid-flight.

    ``attempts`` bounds the total tries (first + retries); each retry
    targets the *next* node in the fingerprint's preference order, with
    exponential backoff starting at ``backoff_s`` and capped at one second.
    A reply with status ``busy`` also advances to the next node
    (shedding is per-node), but without backoff — the next node is idle or
    it isn't.
    """

    attempts: int = 3
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_s}")

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        return min(self.backoff_s * (2 ** attempt), _BACKOFF_CAP_S)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a router or cluster client needs to know about a cluster.
    No field places schedules: each lives on its fingerprint's ring owner."""

    #: Seed endpoints of the induction nodes (``Endpoint`` values or their
    #: URL string forms; strings are parsed on construction).
    endpoints: tuple[Endpoint, ...] = ()
    #: Virtual nodes per physical node on the hash ring.
    vnodes: int = 64
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Heartbeat cadence for health-checked membership.
    probe_interval_s: float = 1.0
    #: Consecutive failed probes before a node is marked down.
    mark_down_after: int = 3
    #: Entries in the forwarder's own memory-only
    #: :class:`~repro.core.cache.ScheduleCache` of routed results: a
    #: repeated request is answered at the front door without touching a
    #: node.  An ``ok`` reply's result is stored when it builds as a
    #: result, under the cache's one store rule (nothing degraded,
    #: nothing cut by a deadline).  0 disables.
    request_cache_size: int = 256

    def __post_init__(self) -> None:
        endpoints = tuple(Endpoint.parse(e) for e in self.endpoints)
        object.__setattr__(self, "endpoints", endpoints)
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("duplicate endpoints in cluster config")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.probe_interval_s <= 0:
            raise ValueError(
                f"probe interval must be positive, got {self.probe_interval_s}")
        if self.mark_down_after < 1:
            raise ValueError(
                f"mark_down_after must be >= 1, got {self.mark_down_after}")
        if self.request_cache_size < 0:
            raise ValueError(
                f"request cache size must be >= 0, "
                f"got {self.request_cache_size}")

    @property
    def node_names(self) -> tuple[str, ...]:
        """Ring node names (``str(endpoint)``, the canonical URL forms)."""
        return tuple(str(e) for e in self.endpoints)

    def endpoint_named(self, name: str) -> Endpoint:
        """The endpoint whose canonical name is ``name``."""
        for endpoint in self.endpoints:
            if str(endpoint) == name:
                return endpoint
        raise LookupError(f"no endpoint named {name!r} in cluster")
