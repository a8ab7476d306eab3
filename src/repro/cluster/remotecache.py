"""Remote cache tier: results induced anywhere hit everywhere.

:class:`RemoteScheduleCache` wraps a node's local
:class:`~repro.core.cache.ScheduleCache` with a third tier of lookup: the
fingerprint's ring owner (:meth:`~repro.cluster.ring.HashRing.node_for`),
the only peer the tier ever calls.  An owner calls no peer, so a routed
miss crosses no node but its owner.  A node serving a fingerprint it does
not own (a bounded-load spill, a failover, a direct client) reads through
to the owner on a local miss and writes the text its local tier stored
through to the owner on a put.  Entries are content-addressed, so the
owner's entry is exactly what this node would have computed; it crosses
a trust boundary all the same, so it is checked once
(:func:`~repro.core.cache.check_entry`), and one that fails is a counted
miss.  A node that inherits a dead owner's arc recomputes each entry once.

Peer reads use a tight :data:`PEER_TIMEOUT_S` and swallow every transport
error into a miss — a dead peer must degrade a lookup, never stall or
fail an induction.  The ring never learns that a node died, so a call
that raises also leaves that owner alone for :data:`PEER_COOLDOWN_S`: in
the meantime a lookup on its arc is a miss and a push to it is dropped,
both counted as ``remote_skips``, and the first call after the cool-down
tries the owner again.  One client per peer keeps its connections open
across lookups; :meth:`RemoteScheduleCache.close` closes them.  Counters
land in the *local* cache's counter set
(``remote_hits``/``remote_misses``/``remote_errors``/``remote_skips``/
``remote_stores``; a ``remote_misses`` lookup asked the owner), so they
surface through the server's ``cache_*`` stats.

The server takes an entry's text (:meth:`get_text`), as it does from a
plain :class:`~repro.core.cache.ScheduleCache`: local text as stored, and
the owner's entry, once checked, encoded once into the text the local
tier adopts.

The server's peer ops (``cache_get``/``cache_put``) call
:meth:`get_local`/:meth:`put_local`, which never touch the network: peer
traffic terminates at the local tiers, so two nodes missing on the same
fingerprint can't fan out to each other forever.
"""

from __future__ import annotations

import json
import threading
from time import monotonic
from typing import Any, Callable, Mapping

from repro.cluster.config import PEER_COOLDOWN_S, PEER_TIMEOUT_S, ClusterConfig
from repro.cluster.ring import HashRing
from repro.core.cache import ScheduleCache, check_entry, encode_entry
from repro.service.protocol import ResultText

__all__ = ["RemoteScheduleCache"]


class RemoteScheduleCache:
    """A node's :class:`ScheduleCache` plus the cluster as a third tier.

    Drop-in for ``ScheduleCache`` where the server uses one (``get`` /
    ``get_text`` / ``put`` / ``counters`` / ``hit_rate`` / ``len``);
    ``self_name`` is this node's own ring name (its canonical endpoint
    string), so it knows the fingerprints it owns.
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
        #: Peer name -> the monotonic time until which it is not called.
        self._cooling: dict[str, float] = {}
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
        """Local tiers first; then, on a non-owner, the owner's entry."""
        found = self.local.get_text(fingerprint)
        if found is not None:
            return found
        owner = self._owner_peer(fingerprint)
        if owner is None:
            return None
        if self._skip(owner):
            return None
        try:
            entry = self._client_for(owner).cache_get(fingerprint)
        except Exception:  # noqa: BLE001 - a dead owner is a miss
            self._failed(owner)
            entry = None
        if entry is not None:
            try:
                check_entry(entry)
            except ValueError:
                self.counters.bump("remote_errors")
                entry = None
        if entry is None:
            self.counters.bump("remote_misses")
            return None
        # Adopt the entry locally so the next lookup is a memory hit.
        text, _own = encode_entry(entry)
        self.local.put(fingerprint, entry, text=text)
        self.counters.bump("remote_hits")
        return text

    def put(self, fingerprint: str, payload: Mapping[str, Any],
            text: str | None = None) -> str | None:
        """Store locally and, on a non-owner, push the stored text to the
        owner; nothing the store rule refuses leaves the node."""
        text = self.local.put(fingerprint, payload, text=text)
        if text is None:
            return None
        owner = self._owner_peer(fingerprint)
        if owner is not None and not self._skip(owner):
            try:
                self._client_for(owner).cache_put(fingerprint,
                                                  ResultText(text))
                self.counters.bump("remote_stores")
            except Exception:  # noqa: BLE001 - the push is best-effort
                self._failed(owner)
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

    def _skip(self, peer: str) -> bool:
        """True, counted as ``remote_skips``, while ``peer`` cools down."""
        until = self._cooling.get(peer)
        if until is None:
            return False
        if monotonic() < until:
            self.counters.bump("remote_skips")
            return True
        self._cooling.pop(peer, None)
        return False

    def _failed(self, peer: str) -> None:
        """Count a call to ``peer`` that raised and start its cool-down."""
        self.counters.bump("remote_errors")
        self._cooling[peer] = monotonic() + PEER_COOLDOWN_S

    def _owner_peer(self, fingerprint: str) -> str | None:
        """The fingerprint's ring owner, or None when that is this node."""
        owner = self.ring.node_for(fingerprint)
        return None if owner == self.self_name else owner
