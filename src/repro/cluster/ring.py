"""Consistent-hash ring: which node owns which request fingerprint.

Schedules are content-addressed (:func:`repro.core.cache.region_fingerprint`),
so placement is free to be a pure function of the fingerprint — any node
can serve any request, and the only thing routing decides is *where the
cache and dedup state for a fingerprint concentrates*.  A consistent-hash
ring makes that function stable under membership change: each node is
hashed onto the ring at ``vnodes`` pseudo-random positions (virtual nodes,
to smooth the load split), a fingerprint is owned by the first node
clockwise from its own hash, and adding or removing one node only remaps
the ~1/N of fingerprints that fall in the arcs it gains or loses — the
rest of the cluster's caches stay hot.

Everything here is derived from SHA-256 of the node name and fingerprint:
no RNG is consulted, so routing is deterministic across processes, runs
and ``REPRO_SEED`` settings by construction.

:meth:`HashRing.pick` adds *bounded-load* fallback (the "consistent
hashing with bounded loads" trick): given the routing-time load per node,
a fingerprint whose owner is already loaded past ``factor`` times the mean
spills to the next node on its preference list instead of queueing behind
a hot shard.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Mapping, Sequence

__all__ = ["HashRing"]


def _position(key: str) -> int:
    """Ring position of a key: the first 8 bytes of its SHA-256."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over a set of node names.

    Nodes are plain strings (the cluster uses ``str(endpoint)``); mutation
    is by :meth:`with_nodes` — the router swaps whole rings atomically when
    membership changes rather than editing one in place under readers.
    """

    def __init__(self, nodes: Iterable[str], vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.nodes: tuple[str, ...] = tuple(sorted(set(str(n) for n in nodes)))
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for replica in range(vnodes):
                points.append((_position(f"{node}#{replica}"), node))
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return str(node) in self.nodes

    def with_nodes(self, nodes: Iterable[str]) -> "HashRing":
        """A new ring over ``nodes`` with the same vnode count."""
        return HashRing(nodes, vnodes=self.vnodes)

    # -- lookup ------------------------------------------------------------

    def node_for(self, fingerprint: str) -> str:
        """The owner of ``fingerprint`` (first node clockwise)."""
        if not self.nodes:
            raise LookupError("empty hash ring")
        index = bisect.bisect_right(self._positions, _position(fingerprint))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, fingerprint: str, count: int | None = None) -> list[str]:
        """Distinct nodes in ring order starting at the owner.

        The first entry is :meth:`node_for`; subsequent entries are the
        failover order — the nodes that inherit the fingerprint's arc if
        earlier ones leave.
        """
        if not self.nodes:
            raise LookupError("empty hash ring")
        want = len(self.nodes) if count is None else min(count, len(self.nodes))
        start = bisect.bisect_right(self._positions, _position(fingerprint))
        seen: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == want:
                    break
        return seen

    def pick(self, fingerprint: str,
             loads: Mapping[str, int] | None = None,
             factor: float = 1.25) -> str:
        """Owner of ``fingerprint``, spilling past overloaded nodes.

        With ``loads`` (requests currently in flight per node), a node
        whose load exceeds ``factor * (1 + mean load)`` is skipped in
        preference order; if every node is past the bound the true owner is
        returned anyway (the queue has to form somewhere, and there it
        keeps the cache locality).
        """
        if not loads:
            return self.node_for(fingerprint)
        order = self.preference(fingerprint)
        mean = sum(loads.get(node, 0) for node in self.nodes) / len(self.nodes)
        bound = factor * (1.0 + mean)
        for node in order:
            if loads.get(node, 0) <= bound:
                return node
        return order[0]

    # -- introspection -----------------------------------------------------

    def share(self, fingerprints: Sequence[str]) -> dict[str, int]:
        """How many of ``fingerprints`` each node owns (balance checks)."""
        counts = {node: 0 for node in self.nodes}
        for fingerprint in fingerprints:
            counts[self.node_for(fingerprint)] += 1
        return counts
