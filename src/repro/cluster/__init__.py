"""Sharded multi-node induction: ring, membership, router, remote cache.

The induction service (:mod:`repro.service`) made CSI a long-running
daemon; this package makes it a *cluster* of them.  The pieces, bottom-up:

- :mod:`repro.cluster.ring`        — consistent-hash ring mapping request
  fingerprints to nodes (virtual nodes, bounded-load spill).  Placement is
  a pure function of the content-addressed fingerprint, so it is
  deterministic across runs and ``REPRO_SEED`` settings by construction;
- :mod:`repro.cluster.membership`  — health-checked node table: heartbeat
  probes, mark-down after consecutive failures, explicit draining;
- :mod:`repro.cluster.remotecache` — the fingerprint's ring owner as a
  third cache tier under each node's
  :class:`~repro.core.cache.ScheduleCache`: a non-owner reads through to
  it and writes through to it, so schedules induced anywhere hit
  everywhere;
- :mod:`repro.cluster.router`      — the front door: routes by ring,
  dedups in-flight duplicates cluster-wide, retries with backoff on the
  next node when a node dies.  :class:`ClusterRouter` is the daemon
  form (``repro cluster route``); :class:`ClusterClient` the in-process
  form behind :func:`repro.api.induce(cluster=...)`;
- :mod:`repro.cluster.local`       — a whole cluster in one process over
  unix sockets, for tests, fuzzing and benchmarks;
- :mod:`repro.cluster.config`      — :class:`ClusterConfig` /
  :class:`RetryPolicy`, the typed configuration every cluster-facing
  signature takes (the cluster-level counterpart of
  :class:`~repro.service.endpoint.Endpoint`).
"""

from repro._lazy import reexport

# On access: a node loads no router, and a router no in-process cluster.
__getattr__, __dir__, __all__ = reexport(__name__, {
    "repro.cluster.config": ("ClusterConfig", "RetryPolicy"),
    "repro.cluster.local": ("LocalCluster",),
    "repro.cluster.membership": ("Membership", "NodeHealth"),
    "repro.cluster.remotecache": ("RemoteScheduleCache",),
    "repro.cluster.ring": ("HashRing",),
    "repro.cluster.router": ("ClusterClient", "ClusterForwarder",
                             "ClusterRouter"),
})
