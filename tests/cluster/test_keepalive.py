"""Kept-alive connections inside a LocalCluster.

The router keeps idle connections to each node and the remote cache tier
keeps one client per peer.  A connection a node closed while idle must
cost a reconnect, never a failover or a membership strike; a node that is
really gone must still fail over with no request lost.
"""

import sys
import threading

from repro.api import InductionRequest
from repro.cluster import LocalCluster, RetryPolicy
from repro.core import (
    ScheduleCache, maspar_cost_model, parse_region, verify_schedule,
)
from repro.service import Endpoint, InductionServer, ServerConfig

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
    return InductionRequest(region=parse_region(REGION),
                            model=maspar_cost_model(), budget=7_000 + seed)


def counting_connects(monkeypatch):
    opened = []
    original = Endpoint.connect

    def counting(self, timeout=None):
        opened.append(self)
        return original(self, timeout)

    monkeypatch.setattr(Endpoint, "connect", counting)
    return opened


def test_idle_socket_to_killed_node_fails_over_losing_nothing():
    with LocalCluster(nodes=3, cache_capacity=16, request_cache_size=0,
                      retry=RetryPolicy(attempts=4, backoff_s=0.01),
                      mark_down_after=2) as clu:
        client = clu.client()
        req = request(1)
        owner = clu.router.plan(req.fingerprint())[0]
        assert client.submit(req).extras["routed_node"] == owner
        clu.kill_node(clu.config.node_names.index(owner))
        results = [client.submit(req) for _ in range(5)]
        assert all(not r.degraded and r.cost > 0 for r in results)
        assert all(r.extras["routed_node"] != owner for r in results)
        label = Endpoint.parse(owner).label
        assert clu.router.counters[f"failover_{label}"] >= 1
        assert clu.router.counters["routed_failed"] == 0


def test_restarted_node_behind_stale_socket_is_no_failover(monkeypatch):
    with LocalCluster(nodes=1, cache_capacity=16,
                      request_cache_size=0) as clu:
        client = clu.client()
        client.submit(request(2))
        opened = counting_connects(monkeypatch)
        client.submit(request(3))
        assert opened == []  # client->router and router->node both kept
        endpoint = clu.endpoints[0]
        clu.servers[0].shutdown()
        clu.servers[0] = InductionServer(
            ServerConfig(endpoint=endpoint, workers=1),
            cache=ScheduleCache(capacity=16))
        result = client.submit(request(4))
        assert result.extras["route_attempts"] == 1
        assert opened == [endpoint]  # the router reopened once
        counters = clu.router.counters
        assert counters[f"failover_{endpoint.label}"] == 0
        assert counters["route_failovers"] == 0
        (node,) = clu.router.membership.snapshot()
        assert node["state"] == "up"


def test_a_non_owners_miss_asks_the_owner_once():
    with LocalCluster(nodes=3, cache_capacity=16) as clu:
        req = request(5)
        names = clu.config.node_names
        # Any non-owner asks only the owner; take the last in failover order.
        owner, *_, last = clu.caches[0].ring.preference(req.fingerprint())
        with clu.node_client(names.index(last)) as client:
            client.submit(req)
        asked = [s.get("peer_cache_requests", 0) for s in clu.node_stats()]
        assert asked == [int(name == owner) for name in names]


def test_concurrent_callers_never_share_a_connection():
    # Each thread sends its own region, so a reply read off a connection
    # another thread is using would fail to verify against the sender's.
    regions = [parse_region(
        "thread 0:\n    a = ld x\n" +
        "".join(f"    a{k} = add a a\n" for k in range(i)) +
        "thread 1:\n    b = ld x\n    c = mul b b\n") for i in range(8)]
    model = maspar_cost_model()
    errors = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with LocalCluster(nodes=2, cache_capacity=64,
                          request_cache_size=0) as clu:
            client = clu.client()

            def work(region):
                try:
                    for budget in range(1_000, 1_006):
                        result = client.submit(InductionRequest(
                            region=region, model=model, budget=budget))
                        verify_schedule(result.schedule, region, model)
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(region,))
                       for region in regions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            idle = [sock for socks in clu.router._idle.values()
                    for sock in socks]
            assert len({id(sock) for sock in idle}) == len(idle)
    finally:
        sys.setswitchinterval(switch)
    assert not errors
