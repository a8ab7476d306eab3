"""A routed ``ok`` result is its entry's text plus the request's own fields.

The router's counterpart of ``tests/service/test_reply_text.py``: a
forward, a router cache hit, a flight joiner and a traced route each
decode, on the client's side, to the dict that composing the result as a
plain dict gives, and a routed hit neither decodes nor re-encodes its
entry.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import InductionRequest
from repro.cluster import LocalCluster
from repro.obs import MemoryTracer, span
from repro.service import protocol

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

#: What a node's reply carries for one request alone, before routing.
NODE_OWN = ("cache_hit", "wall_s", "retries")


def over_the_wire(reply: dict) -> dict:
    """``reply`` as the client receives it: sent, then decoded."""
    a, b = socket.socketpair()
    with a, b:
        protocol.send_message(a, reply)
        return protocol.recv_message(b)


def parent_frame(result: dict) -> dict:
    """What an ``ok`` reply with the plain dict ``result`` decodes to when
    the frame is one ``json.dumps`` of the whole reply."""
    frame = json.dumps({"status": "ok", "result": result},
                       sort_keys=True, separators=(",", ":"))
    return json.loads(frame)["result"]


def wire_for(budget: int, **extra) -> dict:
    wire = protocol.request_to_wire(
        InductionRequest(region=REGION, budget=budget))
    wire.update(extra)
    return wire


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(nodes=2, cache_capacity=16) as clu:
        yield clu


def node_entry(cluster, node: str, fingerprint: str) -> dict:
    index = cluster.config.node_names.index(node)
    return cluster.caches[index].get(fingerprint)


class TestRoutedReplies:
    def test_forward_then_router_hit(self, cluster):
        router = cluster.router
        wire = wire_for(7_001)
        fp = router._memo.fingerprint(dict(wire))
        forward = over_the_wire(router.submit_wire(dict(wire)))["result"]
        node = forward["routed_node"]
        # A forward: the node's reply as it sent it, routing facts added.
        assert forward == parent_frame({
            **node_entry(cluster, node, fp), "cache_hit": False,
            "retries": 0, "deduped": False, "disposition": "miss",
            "routed_node": node, "route_attempts": 1,
            **{k: forward[k] for k in
               ("wall_s", "queue_wait_s", "server_wall_s")}})

        # The router stores all of it but the node's own fields, and a hit
        # sends that with its own.
        stored = router.cache.get(fp)
        assert stored == {k: v for k, v in forward.items()
                          if k not in NODE_OWN}
        hit = over_the_wire(router.submit_wire(dict(wire)))["result"]
        assert hit == parent_frame({**stored, "router_cache": True,
                                    "cache_hit": True, "retries": 0,
                                    "wall_s": hit["wall_s"]})

    def test_joiner_shares_the_text_not_the_fields(self, cluster):
        router = cluster.router
        replies = {}

        def go(name, chaos):
            replies[name] = router.submit_wire(
                wire_for(7_002, **({"chaos": chaos} if chaos else {})))

        leader = threading.Thread(target=go, args=("leader",
                                                   {"sleep_s": 0.5}))
        leader.start()
        deadline = time.monotonic() + 10
        while not len(router._flights) and time.monotonic() < deadline:
            time.sleep(0.005)
        go("joiner", None)
        leader.join(timeout=30)
        lead, join = replies["leader"]["result"], replies["joiner"]["result"]
        assert join.text is lead.text
        assert join.fields is not lead.fields
        led = over_the_wire(replies["leader"])["result"]
        assert "router_dedup" not in led
        assert over_the_wire(replies["joiner"])["result"] == \
            parent_frame({**led, "router_dedup": True})

    def test_traced_route_carries_its_spans(self, cluster):
        router = cluster.router
        for cached in (False, True):
            with span("client.submit", MemoryTracer()):
                wire = wire_for(7_003)
            got = over_the_wire(router.submit_wire(wire))["result"]
            names = {s.get("name") for s in got["obs"]["spans"]}
            assert "cluster.route" in names
            assert ("service.request" in names) is not cached
            assert bool(got.get("router_cache")) is cached
            fp = router._memo.fingerprint(wire)
            assert got == parent_frame({
                **router.cache.get(fp),
                **{k: got[k] for k in ("cache_hit", "wall_s", "retries",
                                       "obs")},
                **({"router_cache": True} if cached else {})})

    def test_cluster_client_decodes_the_routed_result(self, cluster):
        request = InductionRequest(region=REGION, budget=7_004)
        with cluster.cluster_client() as client:
            first = client.submit(request)
            again = client.submit(request)
        assert again.extras["router_cache"] is True
        assert again.cache_hit and not first.cache_hit
        assert (again.cost, again.schedule) == (first.cost, first.schedule)
        assert again.extras["routed_node"] == first.extras["routed_node"]


def test_a_routed_hit_never_decodes_or_encodes_its_entry(cluster,
                                                         monkeypatch):
    router = cluster.router
    wire = wire_for(7_005)
    router.submit_wire(dict(wire))
    calls = []
    loads, dumps = json.loads, json.dumps

    def counted_loads(text, *args, **kwargs):
        calls.append(("loads", '"schedule"' in str(text)))
        return loads(text, *args, **kwargs)

    def counted_dumps(obj, *args, **kwargs):
        out = dumps(obj, *args, **kwargs)
        calls.append(("dumps", '"schedule"' in out))
        return out

    a, b = socket.socketpair()
    with a, b:
        monkeypatch.setattr(json, "loads", counted_loads)
        monkeypatch.setattr(json, "dumps", counted_dumps)
        reply = router.submit_wire(dict(wire))
        protocol.send_message(a, reply)
        monkeypatch.undo()
        got = protocol.recv_message(b)
    assert got["result"]["router_cache"] is True
    assert calls and not any(on_entry for _kind, on_entry in calls)
    assert [kind for kind, _ in calls].count("loads") == 0
