"""Remote cache tier: results induced anywhere hit everywhere.

:class:`RemoteScheduleCache` wraps a node's local
:class:`~repro.core.cache.ScheduleCache` with a third tier of lookup: the
*other nodes' caches*, consulted in the fingerprint's ring preference
order.  Because entries are content-addressed, a peer's entry for a
fingerprint is exactly the entry this node would have computed, and it
costs one framed round-trip instead of an induction.  It crosses a trust
boundary all the same, so it is checked once
(:func:`~repro.core.cache.check_entry`); one that fails — a peer of
another version sends none — is a counted miss.

Placement mirrors routing: :meth:`put` pushes the stored entry to the
fingerprint's first ``replication`` ring owners, the same nodes a router
failover would try next, so the node that inherits a dead owner's arc
usually already holds its entries locally.  A put pushes the text the
local tier stored: a server's miss brings it, encoded no more.

Peer reads use a tight :data:`PEER_TIMEOUT_S` and swallow every transport
error into a miss — a dead peer must degrade a lookup, never stall or
fail an induction.  One client per peer keeps its connections open
across lookups; :meth:`RemoteScheduleCache.close` closes them.  Counters
land in the *local* cache's counter set
(``remote_hits``/``remote_misses``/``remote_errors``/``remote_stores``),
so they surface through the server's existing ``cache_*`` stats without
any new plumbing.

The server takes an entry's text (:meth:`get_text`), as it does from a
plain :class:`~repro.core.cache.ScheduleCache`: local text as stored, and
a peer's entry, once checked, encoded once into the text the local tier
adopts.

The server's peer ops (``cache_get``/``cache_put``) call
:meth:`get_local`/:meth:`put_local`, which never touch the network: peer
traffic terminates at the local tiers, so two nodes missing on the same
fingerprint can't fan out to each other forever.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Mapping

from repro.cluster.config import PEER_TIMEOUT_S, ClusterConfig
from repro.cluster.ring import HashRing
from repro.core.cache import ScheduleCache, check_entry, encode_entry
from repro.service.protocol import ResultText

__all__ = ["RemoteScheduleCache"]


class RemoteScheduleCache:
    """A node's :class:`ScheduleCache` plus the cluster as a third tier.

    Drop-in for ``ScheduleCache`` where the server uses one (``get`` /
    ``get_text`` / ``put`` / ``counters`` / ``hit_rate`` / ``len``);
    ``self_name`` is this node's own ring name (its canonical endpoint
    string) so lookups skip the node that just missed locally.
    """

    def __init__(self, local: ScheduleCache, config: ClusterConfig,
                 self_name: str = "",
                 client_factory: Callable | None = None) -> None:
        self.local = local
        self.config = config
        self.self_name = str(self_name)
        self.ring = HashRing(config.node_names, vnodes=config.vnodes)
        if client_factory is None:
            from repro.service.client import ServiceClient

            client_factory = lambda endpoint: ServiceClient(  # noqa: E731
                endpoint, timeout=PEER_TIMEOUT_S)
        self._client_factory = client_factory
        self._clients: dict[str, object] = {}
        self._clients_lock = threading.Lock()

    # -- ScheduleCache surface --------------------------------------------

    def __len__(self) -> int:
        return len(self.local)

    @property
    def counters(self):
        return self.local.counters

    @property
    def capacity(self) -> int:
        return self.local.capacity

    @property
    def hit_rate(self) -> float:
        return self.local.hit_rate

    def get(self, fingerprint: str) -> dict | None:
        """A private copy of :meth:`get_text`'s entry, or None."""
        text = self.get_text(fingerprint)
        return None if text is None else json.loads(text)

    def get_text(self, fingerprint: str) -> str | None:
        """Local tiers first, then the fingerprint's ring owners."""
        found = self.local.get_text(fingerprint)
        if found is not None:
            return found
        for peer in self._peers_for(fingerprint):
            entry = self._peer_get(peer, fingerprint)
            if entry is None:
                continue
            try:
                check_entry(entry)
            except ValueError:
                self.counters.bump("remote_errors")
                continue
            # Adopt the entry locally so the next lookup is a memory hit.
            text, _own = encode_entry(entry)
            self.local.put(fingerprint, entry, text=text)
            self.counters.bump("remote_hits")
            return text
        self.counters.bump("remote_misses")
        return None

    def put(self, fingerprint: str, payload: Mapping[str, Any],
            text: str | None = None) -> str | None:
        """Store locally and push the stored text to the fingerprint's
        replica owners; nothing the store rule refuses leaves the node."""
        text = self.local.put(fingerprint, payload, text=text)
        if text is None:
            return None
        entry = ResultText(text)
        for peer in self._peers_for(fingerprint):
            try:
                self._client_for(peer).cache_put(fingerprint, entry)
                self.counters.bump("remote_stores")
            except Exception:  # noqa: BLE001 - replication is best-effort
                self.counters.bump("remote_errors")
        return text

    # -- local-only surface (used by the server's peer ops) ----------------

    def get_local(self, fingerprint: str) -> str | None:
        """Local tiers only, as text — peer traffic must not re-enter the
        cluster."""
        return self.local.get_text(fingerprint)

    def put_local(self, fingerprint: str,
                  payload: Mapping[str, Any]) -> str | None:
        return self.local.put(fingerprint, payload)

    def close(self) -> None:
        """Close the peer clients' connections."""
        with self._clients_lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            close = getattr(client, "close", None)
            if close is not None:
                close()

    # -- internals ---------------------------------------------------------

    def _client_for(self, peer: str):
        with self._clients_lock:
            client = self._clients.get(peer)
            if client is None:
                client = self._clients[peer] = self._client_factory(
                    self.config.endpoint_named(peer))
            return client

    def _peers_for(self, fingerprint: str) -> list[str]:
        """The fingerprint's replica owners, excluding this node."""
        order = self.ring.preference(fingerprint, count=self.config.replication)
        return [name for name in order if name != self.self_name]

    def _peer_get(self, peer: str, fingerprint: str) -> dict | None:
        try:
            return self._client_for(peer).cache_get(fingerprint)
        except Exception:  # noqa: BLE001 - dead peer == miss
            self.counters.bump("remote_errors")
            return None
