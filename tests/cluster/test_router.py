"""End-to-end router behaviour over a real in-process LocalCluster.

Everything here runs over genuine unix sockets: routing and annotation,
cluster-wide in-flight dedup, failover after a node crash, draining, and
the router's protocol surface (status/metrics/ping ops).
"""

import copy
import threading
import time

import pytest

from repro import api
from repro.api import InductionRequest
from repro.cluster import (ClusterConfig, ClusterForwarder, HashRing,
                           LocalCluster, RetryPolicy)
from repro.core import maspar_cost_model, parse_region, result_to_payload
from repro.service import ServiceError, protocol

REGION = """
thread 0:
    a = ld x
    b = mul a a
    c = add b a
thread 1:
    d = ld x
    e = mul d d
    f = add e d
"""


def request(seed: int = 0) -> InductionRequest:
    region = parse_region(REGION)
    # Vary the budget so distinct seeds give distinct fingerprints.
    return InductionRequest(region=region, model=maspar_cost_model(),
                            budget=5_000 + seed)


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(nodes=3, cache_capacity=16,
                      retry=RetryPolicy(attempts=4, backoff_s=0.01),
                      mark_down_after=2) as clu:
        yield clu


def owners_of(cluster, req, count=2):
    ring = HashRing(cluster.config.node_names, vnodes=cluster.config.vnodes)
    return ring.preference(req.fingerprint(), count=count)


class TestRouting:
    def test_submit_routes_and_annotates(self, cluster):
        req = request(1)
        result = cluster.client().submit(req)
        assert result.cost > 0
        assert result.extras["routed_node"] in cluster.config.node_names
        assert result.extras["route_attempts"] == 1
        # Deterministic placement: the routed node is the ring owner.
        assert result.extras["routed_node"] == owners_of(cluster, req)[0]

    def test_repeat_hits_the_router_request_cache(self, cluster):
        req = request(2)
        first = cluster.client().submit(req)
        owner_index = cluster.config.node_names.index(
            first.extras["routed_node"])
        node_hits_before = cluster.node_stats()[owner_index].get(
            "cache_hits", 0)
        router_hits_before = cluster.router.counters["router_cache_hits"]
        second = cluster.client().submit(req)
        assert second.cost == first.cost
        assert second.extras.get("router_cache") is True
        # Routing facts from the original forward survive in the copy.
        assert second.extras["routed_node"] == first.extras["routed_node"]
        assert cluster.router.counters["router_cache_hits"] == \
            router_hits_before + 1
        # Served at the front door: the owner node saw nothing.
        assert cluster.node_stats()[owner_index].get("cache_hits", 0) == \
            node_hits_before
        # Bypassing the router still exercises the node's own cache tier.
        direct = cluster.node_client(owner_index).submit(req)
        assert direct.cost == first.cost
        assert cluster.node_stats()[owner_index].get("cache_hits", 0) == \
            node_hits_before + 1

    def test_inflight_duplicates_share_one_forward(self, cluster):
        req = request(3)
        dedup_before = cluster.router.counters["route_dedup_hits"]
        client = cluster.cluster_client()
        results = [None] * 4
        errors = []

        def go(i, chaos):
            try:
                results[i] = client.submit(req, chaos=chaos)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        # The leader's chaos sleep holds the fingerprint in flight long
        # enough for the followers to rendezvous on it.
        threads = [threading.Thread(
            target=go, args=(i, {"sleep_s": 0.3} if i == 0 else None))
            for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        client.close()
        assert not errors
        costs = {r.cost for r in results}
        assert len(costs) == 1
        assert client.counters["route_dedup_hits"] >= 1
        assert any(r.extras.get("router_dedup") for r in results)
        # Dedup happened inside the in-process client, not the router.
        assert cluster.router.counters["route_dedup_hits"] == dedup_before


class TestFailover:
    def test_kill_owner_fails_over_to_replica(self):
        # Request cache off: the strike-out below depends on the same
        # fingerprint being *forwarded* repeatedly, not answered cached.
        with LocalCluster(nodes=3, cache_capacity=16,
                          retry=RetryPolicy(attempts=4, backoff_s=0.01),
                          mark_down_after=2, request_cache_size=0) as clu:
            req = request(4)
            owner, replica = owners_of(clu, req)[:2]
            clu.kill_node(clu.config.node_names.index(owner))
            result = clu.client().submit(req)
            assert result.extras["routed_node"] == replica
            assert result.extras["route_attempts"] >= 2
            assert clu.router.counters["route_failovers"] >= 1
            # Two strikes (mark_down_after=2): one more request marks the
            # dead owner down and the ring stops planning through it.
            clu.client().submit(req)
            assert clu.router.membership.states()[owner] == "down"
            clean = clu.client().submit(req)
            assert clean.extras["route_attempts"] == 1

    def test_all_nodes_dead_is_an_error_not_a_hang(self):
        with LocalCluster(nodes=2, cache_capacity=4,
                          retry=RetryPolicy(attempts=2, backoff_s=0.0)) as clu:
            clu.kill_node(0)
            clu.kill_node(1)
            with pytest.raises(ServiceError):
                clu.client().submit(request(5))
            assert clu.router.counters["routed_failed"] >= 1


class TestDeadline:
    """A routed request's deadline is one instant: the router fixes it
    when it admits the request and sends each hop the time left."""

    @staticmethod
    def _route(deadline_s):
        config = ClusterConfig(
            endpoints=tuple(f"unix:///nonexistent/n{i}.sock"
                            for i in range(3)),
            retry=RetryPolicy(attempts=3, backoff_s=0.0),
            request_cache_size=0)
        forwarder = ClusterForwarder(config, start_probes=False)
        payload = result_to_payload(api.induce(request(60)))
        hops = []

        def roundtrip(node, hop):
            hops.append(hop)
            if len(hops) == 1:
                time.sleep(0.2)
                raise OSError("node died mid-request")
            return {"status": "ok", "result": copy.deepcopy(payload)}

        forwarder._roundtrip = roundtrip
        try:
            wire = protocol.request_to_wire(
                request(60).replace(deadline_s=deadline_s))
            return forwarder.submit_wire(wire), hops
        finally:
            forwarder.close()

    def test_failover_hop_carries_the_time_left(self):
        reply, hops = self._route(1.0)
        assert reply["status"] == "ok"
        assert len(hops) == 2
        assert 0 < hops[0]["deadline_s"] <= 1.0
        assert 0 < hops[1]["deadline_s"] <= 0.8

    def test_no_hop_starts_once_no_time_is_left(self):
        started = time.monotonic()
        reply, hops = self._route(0.1)
        assert len(hops) == 1
        assert reply["status"] == "error"
        assert "no node accepted the request" in reply["error"]
        assert time.monotonic() - started < 1.0


class TestDrain:
    def test_drained_node_stops_receiving_new_work(self):
        with LocalCluster(nodes=3, cache_capacity=16) as clu:
            req = request(6)
            owner = owners_of(clu, req)[0]
            clu.drain_node(clu.config.node_names.index(owner))
            assert clu.router.membership.states()[owner] == "draining"
            result = clu.client().submit(req)
            assert result.extras["routed_node"] != owner
            assert clu.router.counters["drains"] == 1


class TestRouterProtocol:
    def test_stats_metrics_ping_ops(self, cluster):
        client = cluster.client()
        stats = client.stats()
        assert stats["cluster_nodes"] == 3
        assert stats["cluster_nodes_up"] >= 1
        assert stats["slo_healthy"] in (0.0, 1.0)
        metrics = client.metrics()
        assert "cluster_route_seconds" in metrics
        assert "routed_ok" in metrics
        assert "repro_slo_latency_burn_60s" in metrics
        assert client.ping() is True

    def test_status_snapshot(self, cluster):
        cluster.client().submit(request(7))
        status = cluster.router.status()
        assert len(status["nodes"]) == 3
        assert set(status["ring_nodes"]) <= set(cluster.config.node_names)
        assert status["vnodes"] == cluster.config.vnodes
        assert any(k.startswith("route_") for k in status["counters"])

    def test_unknown_op_is_a_protocol_error(self, cluster):
        from repro.service import protocol
        with cluster.router.endpoint.connect(timeout=5.0) as sock:
            protocol.send_message(sock, {"op": "frobnicate"})
            reply = protocol.recv_message(sock)
        assert reply["status"] == "error"
        assert "unknown op" in reply["error"]

    @pytest.mark.parametrize("field,value,names", [
        ("region", "thread 3:\n    a = ld x\n", "thread"),
        ("window", 4, "windowed induction was removed"),
    ], ids=["region", "window"])
    def test_malformed_region_text_is_an_error_not_a_crash(
            self, cluster, field, value, names):
        from repro.service import protocol
        wire = protocol.request_to_wire(request(9))
        wire[field] = value
        with cluster.router.endpoint.connect(timeout=5.0) as sock:
            protocol.send_message(sock, wire)
            reply = protocol.recv_message(sock)
            assert reply["status"] == "error"
            assert "bad submit payload" in reply["error"]
            assert names in reply["error"]
            # The same kept-alive connection still answers.
            protocol.send_message(sock, {"op": "ping"})
            assert protocol.recv_message(sock)["status"] == "pong"

    def test_router_shutdown_leaves_nodes_running(self):
        clu = LocalCluster(nodes=2, cache_capacity=4)
        try:
            clu.client().submit(request(8))
            clu.router.shutdown()
            assert clu.router.wait_stopped(timeout=5.0)
            direct = clu.node_client(0).ping()
            assert direct is True
        finally:
            clu.shutdown()


class TestRequestCache:
    def test_lru_evicts_oldest_fingerprint(self):
        with LocalCluster(nodes=2, cache_capacity=16,
                          request_cache_size=2) as clu:
            reqs = [request(10 + i) for i in range(3)]
            for req in reqs:
                clu.client().submit(req)
            # Three distinct fingerprints through a 2-slot cache: the
            # first is evicted and must forward again on repeat.
            hits_before = clu.router.counters["router_cache_hits"]
            evicted = clu.client().submit(reqs[0])
            assert not evicted.extras.get("router_cache")
            assert clu.router.counters["router_cache_hits"] == hits_before
            # The repeat re-cached it; now it hits.
            again = clu.client().submit(reqs[0])
            assert again.extras.get("router_cache") is True
            assert clu.router.counters["router_cache_hits"] == \
                hits_before + 1

    def test_disabled_cache_always_forwards(self):
        with LocalCluster(nodes=2, cache_capacity=16,
                          request_cache_size=0) as clu:
            req = request(20)
            clu.client().submit(req)
            repeat = clu.client().submit(req)
            assert not repeat.extras.get("router_cache")
            assert clu.router.counters["router_cache_hits"] == 0

    def test_only_ok_nondegraded_replies_cached(self, cluster, monkeypatch):
        # One store rule: errors and sheds are transient, a degraded reply
        # depends on wall-clock luck and a search cut on its deadline,
        # none of which the fingerprint holds.
        router = cluster.router
        ok = result_to_payload(api.induce(request(44)))
        replies = [
            ({"status": "error", "error": "boom"}, False),
            ({"status": "busy"}, False),
            ({"status": "ok", "result": {**ok, "degraded": True}}, False),
            ({"status": "ok", "result": {**ok, "deadline_cut": True,
                                         "optimal": False}}, False),
            ({"status": "ok", "result": ok}, True),
        ]
        for seed, (reply, cached) in enumerate(replies, start=40):
            monkeypatch.setattr(router, "_forward",
                                lambda *args, reply=reply: copy.deepcopy(reply))
            wire = protocol.request_to_wire(request(seed))
            router.submit_wire(dict(wire))
            again = protocol.decode_result(
                router.submit_wire(dict(wire)).get("result")) or {}
            assert bool(again.get("router_cache")) is cached, reply

    def test_deadline_cut_is_not_router_cached(self, cluster):
        # deadline_s is not in the fingerprint, so a search its deadline
        # cut must not answer a request with a longer deadline.
        pytest.importorskip("numpy")
        from repro.workloads import RandomRegionSpec, random_region

        region = random_region(
            RandomRegionSpec(num_threads=8, min_len=10, max_len=10,
                             vocab_size=12, overlap=0.4,
                             private_vocab=False), seed=5)
        cut = InductionRequest(region=region, budget=50_000_000,
                               deadline_s=0.2)
        first = cluster.client().submit(cut)
        assert first.deadline_cut and not first.optimal
        assert not first.degraded
        hits = cluster.router.counters["router_cache_hits"]
        second = cluster.client().submit(cut.replace(deadline_s=0.3))
        assert second.deadline_cut
        assert not second.extras.get("router_cache")
        assert second.extras["disposition"] == "miss"
        assert cluster.router.counters["router_cache_hits"] == hits

    def test_cached_reply_is_a_private_copy(self, cluster):
        req = request(21)
        first = cluster.client().submit(req)
        second = cluster.client().submit(req)
        assert second.extras.get("router_cache") is True
        # Mutating one reply's payload must never leak into the next.
        second.extras["routed_node"] = "tampered"
        third = cluster.client().submit(req)
        assert third.extras["routed_node"] == first.extras["routed_node"]
