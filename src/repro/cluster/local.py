"""An entire cluster in one process: N nodes + router on unix sockets.

:class:`LocalCluster` is the cluster-shaped sibling of spinning up one
:class:`~repro.service.server.InductionServer` in a test: it boots ``n``
real induction nodes (each with its own worker pool and a
:class:`~repro.cluster.remotecache.RemoteScheduleCache`-wrapped cache) on
unix sockets in a temporary directory, plus a
:class:`~repro.cluster.router.ClusterRouter` front door.  Tests, the fuzz harness's cluster oracle and
``bench_e18_cluster`` all use it; the sockets are real, so everything from
framing to failover is exercised exactly as in a multi-process deployment.

Chaos hooks:

- :meth:`kill_node` stops a node *without* drain — connections start
  failing immediately, which is what a crash looks like to the router;
- :meth:`drain_node` is the graceful path (in-flight finishes, ring
  stops routing new work).

Probes default to off so tests control time: call
``cluster.router.membership.probe_once()`` (or pass ``start_probes=True``)
when heartbeat behaviour itself is under test.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.cluster.config import ClusterConfig, RetryPolicy
from repro.cluster.remotecache import RemoteScheduleCache
from repro.cluster.router import ClusterClient, ClusterRouter
from repro.core.cache import ScheduleCache
from repro.service.client import ServiceClient
from repro.service.endpoint import Endpoint
from repro.service.server import InductionServer, ServerConfig

__all__ = ["LocalCluster"]


class LocalCluster:
    """``n`` induction nodes + a router, all in this process."""

    def __init__(self, nodes: int = 3,
                 cache_capacity: int = 64,
                 workers: int = 1,
                 allow_chaos: bool = True,
                 default_deadline_s: float | None = None,
                 retry: RetryPolicy | None = None,
                 mark_down_after: int = 2,
                 start_probes: bool = False,
                 request_cache_size: int = 256,
                 router_tracer=None) -> None:
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        # Keep paths short: AF_UNIX addresses cap out around 108 bytes.
        self._dir = Path(tempfile.mkdtemp(prefix="repro-clu-"))
        endpoints = [Endpoint.unix(str(self._dir / f"n{i}.sock"))
                     for i in range(nodes)]
        self.config = ClusterConfig(
            endpoints=tuple(endpoints),
            retry=retry or RetryPolicy(),
            mark_down_after=mark_down_after,
            request_cache_size=request_cache_size,
        )
        self.servers: list[InductionServer] = []
        self.caches: list[RemoteScheduleCache] = []
        for endpoint in endpoints:
            cache = RemoteScheduleCache(
                ScheduleCache(capacity=cache_capacity), self.config,
                self_name=str(endpoint))
            server = InductionServer(
                ServerConfig(endpoint=endpoint, workers=workers,
                             allow_chaos=allow_chaos,
                             default_deadline_s=default_deadline_s),
                cache=cache)
            self.caches.append(cache)
            self.servers.append(server)
        # router_tracer lets a test watch routing spans at the router
        # itself; callers usually trace through request.tracer instead.
        self.router = ClusterRouter(
            Endpoint.unix(str(self._dir / "router.sock")),
            self.config, start_probes=start_probes, tracer=router_tracer)
        self._dead: set[int] = set()

    # -- access -------------------------------------------------------------

    @property
    def endpoints(self) -> tuple[Endpoint, ...]:
        return self.config.endpoints

    def client(self, timeout: float | None = 600.0) -> ServiceClient:
        """A plain service client pointed at the *router* front door."""
        return ServiceClient(self.router.endpoint, timeout=timeout)

    def node_client(self, index: int,
                    timeout: float | None = 600.0) -> ServiceClient:
        """A client pointed directly at node ``index`` (bypasses routing)."""
        return ServiceClient(self.endpoints[index], timeout=timeout)

    def cluster_client(self, start_probes: bool = False) -> ClusterClient:
        """An in-process :class:`ClusterClient` over the same nodes."""
        return ClusterClient(self.config, start_probes=start_probes)

    def node_stats(self) -> list[dict]:
        return [server.stats() for server in self.servers]

    # -- chaos --------------------------------------------------------------

    def kill_node(self, index: int) -> None:
        """Crash node ``index``: stop it without drain, mid-whatever."""
        if index in self._dead:
            return
        self._dead.add(index)
        self.servers[index].shutdown(drain=False)

    def drain_node(self, index: int) -> None:
        """Gracefully drain node ``index`` through the router."""
        self.router.drain_node(str(self.endpoints[index]))

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        self.router.shutdown()
        for index, server in enumerate(self.servers):
            if index not in self._dead:
                server.shutdown(drain=True)
        import shutil

        shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
