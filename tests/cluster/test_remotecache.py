"""Remote cache tier tests, mostly with stubbed peer clients (no sockets).

The stub client exposes exactly the two peer ops the tier uses
(``cache_get``/``cache_put``, one cache entry each way) backed by plain
dicts, so hit adoption, the owner rule (a non-owner reads and writes
through to the fingerprint's ring owner, an owner calls no peer), the
boundary check and dead-peer degradation are all deterministic.
:class:`TestOwnerRule` checks the same rule on a live 3-node cluster, and
:class:`TestDeadOwnerCooldown` the cool-down after a failed call on
both.
"""

import json

import pytest

from repro import api
from repro.cluster import (
    ClusterConfig, HashRing, LocalCluster, RemoteScheduleCache,
)
from repro.cluster import remotecache
from repro.cluster.config import PEER_COOLDOWN_S
from repro.core import maspar_cost_model, parse_region, result_to_payload
from repro.core.cache import ScheduleCache, encode_entry, region_fingerprint
from repro.core.search import SearchStats
from repro.service import Endpoint, protocol

REGION = """
thread 0:
    a = ld x
    b = add a a
thread 1:
    c = ld x
    d = add c c
"""

ENDPOINTS = tuple(Endpoint.unix(f"/tmp/rc{i}.sock") for i in range(3))


class StubPeer:
    """One fake node's cache plus call accounting."""

    def __init__(self, fail=False):
        self.store = {}
        self.fail = fail
        self.gets = 0
        self.puts = 0

    def cache_get(self, fingerprint):
        self.gets += 1
        if self.fail:
            raise OSError("peer down")
        # What a client receives: pushed text comes back decoded.
        return protocol.decode_result(self.store.get(fingerprint))

    def cache_put(self, fingerprint, entry):
        self.puts += 1
        if self.fail:
            raise OSError("peer down")
        self.store[fingerprint] = entry


@pytest.fixture
def cluster():
    config = ClusterConfig(endpoints=ENDPOINTS)
    peers = {str(e): StubPeer() for e in ENDPOINTS}
    return config, peers


@pytest.fixture
def induced():
    """``(fingerprint, payload)`` of a finished one-shot search."""
    region = parse_region(REGION)
    model = maspar_cost_model()
    result = api.induce(api.InductionRequest(region, model, budget=2_000))
    return region_fingerprint(region, model), result_to_payload(result)


def make_cache(config, peers, self_name, capacity=8):
    return RemoteScheduleCache(
        ScheduleCache(capacity=capacity), config, self_name=self_name,
        client_factory=lambda endpoint: peers[str(endpoint)])


def owner_of(config, fingerprint):
    """The fingerprint's ring owner: the one peer the tier ever calls."""
    return HashRing(config.node_names,
                    vnodes=config.vnodes).node_for(fingerprint)


def non_owner_of(config, fingerprint):
    owner = owner_of(config, fingerprint)
    return next(n for n in config.node_names if n != owner)


def entry_of(payload):
    """The entry ``payload`` is stored as: minus its per-request fields."""
    return json.loads(encode_entry(payload)[0])


def _set(entry, path, value):
    """``entry`` with the value at ``path`` (keys and indices) replaced."""
    *head, last = path
    target = entry
    for key in head:
        target = target[key]
    target[last] = value
    return entry


#: Ways a peer's entry can fail to be a result payload; each must be a
#: counted remote error and miss, never adopted.
MALFORMED = {
    "no-cost": lambda e: {k: v for k, v in e.items() if k != "cost"},
    "slot-without-picks": lambda e: _set(e, ("schedule", 0, 1), []),
    "thread-id-x": lambda e: _set(e, ("schedule", 0, 1, 0, 0), "x"),
    "op-index-null": lambda e: _set(e, ("schedule", 0, 1, 0, 1), None),
    "schedule-object": lambda e: _set(e, ("schedule",),
                                      {"slots": e["schedule"]}),
    "unknown-stats-key": lambda e: _set(e, ("stats", 0, "engine"),
                                        "bitmask"),
    "two-stats-records": lambda e: _set(e, ("stats",), e["stats"] * 2),
    "cost-beyond-float": lambda e: _set(e, ("cost",), 10 ** 400),
}


class TestGet:
    def test_local_miss_then_peer_hit_is_adopted(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced
        peers[owner_of(config, fp)].store[fp] = entry_of(payload)

        cache = make_cache(config, peers, non_owner_of(config, fp))
        found = cache.get(fp)
        assert found == entry_of(payload)
        assert cache.counters["remote_hits"] == 1
        # Adopted into the local tier: the next get never leaves the node.
        gets_before = sum(p.gets for p in peers.values())
        assert cache.get(fp) == entry_of(payload)
        assert sum(p.gets for p in peers.values()) == gets_before

    def test_stats_survive_the_peer_roundtrip(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced
        # One non-owner's put writes through to the owner; the other
        # non-owner's lookup reads it back from there.
        writer, reader = (n for n in config.node_names
                          if n != owner_of(config, fp))
        make_cache(config, peers, writer).put(fp, payload)
        found = make_cache(config, peers, reader).get(fp)
        assert found is not None
        assert [SearchStats(**s) for s in found["stats"]] == \
            [SearchStats(**s) for s in payload["stats"]]
        assert found["serial_cost"] == payload["serial_cost"]

    def test_all_peers_miss_counts_remote_miss(self, cluster):
        config, peers = cluster
        cache = make_cache(config, peers, non_owner_of(config, "0" * 64))
        assert cache.get("0" * 64) is None
        assert cache.counters["remote_misses"] == 1

    def test_an_owners_local_miss_asks_no_peer(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced
        for peer in peers.values():
            peer.store[fp] = entry_of(payload)
        cache = make_cache(config, peers, owner_of(config, fp))
        assert cache.get(fp) is None
        assert sum(p.gets for p in peers.values()) == 0
        assert cache.counters["remote_misses"] == 0

    def test_dead_peer_degrades_to_miss(self, cluster, induced):
        config, peers = cluster
        fp, _ = induced
        for peer in peers.values():
            peer.fail = True
        cache = make_cache(config, peers, non_owner_of(config, fp))
        assert cache.get(fp) is None
        assert cache.counters["remote_errors"] >= 1
        assert cache.counters["remote_misses"] == 1

    def test_garbage_payload_is_an_error_not_a_crash(self, cluster, induced):
        config, peers = cluster
        fp, _ = induced
        peers[owner_of(config, fp)].store[fp] = "not-an-entry"
        cache = make_cache(config, peers, non_owner_of(config, fp))
        assert cache.get(fp) is None
        assert cache.counters["remote_errors"] >= 1

    @pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED)
    def test_entry_without_cost_is_a_counted_miss(self, cluster, induced,
                                                  malform):
        config, peers = cluster
        fp, payload = induced
        peers[owner_of(config, fp)].store[fp] = malform(entry_of(payload))
        cache = make_cache(config, peers, non_owner_of(config, fp))
        assert cache.get(fp) is None
        assert cache.counters["remote_errors"] == 1
        assert cache.counters["remote_misses"] == 1
        assert cache.get_local(fp) is None  # nothing adopted


class TestPut:
    def test_an_owners_put_pushes_nowhere(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced
        cache = make_cache(config, peers, owner_of(config, fp))
        assert cache.put(fp, payload)
        assert cache.get_local(fp) is not None
        assert sum(p.puts for p in peers.values()) == 0
        assert cache.counters["remote_stores"] == 0

    def test_a_non_owners_put_pushes_its_text_to_the_owner_only(
            self, cluster, induced):
        # A server's miss brings the text its worker encoded: the push
        # splices it into the peer frame, and nothing encodes it again.
        config, peers = cluster
        fp, payload = induced
        owner = owner_of(config, fp)
        cache = make_cache(config, peers, non_owner_of(config, fp))
        value = protocol.ResultText.encode(payload)
        assert cache.put(fp, value.flags, text=value.text)
        assert cache.get_local(fp) == value.text
        assert [n for n, p in peers.items() if p.puts] == [owner]
        pushed = peers[owner].store[fp]
        assert isinstance(pushed, protocol.ResultText)
        assert pushed.text == value.text and not pushed.fields
        assert protocol.decode_result(pushed) == entry_of(payload)
        assert cache.counters["remote_stores"] == 1

    def test_pushed_text_lands_in_a_real_peer(self, tmp_path, induced):
        from repro.service import InductionServer, ServerConfig, ServiceClient

        fp, payload = induced
        server = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "p.sock"))),
            cache=ScheduleCache())
        try:
            value = protocol.ResultText.encode(payload)
            with ServiceClient(server.endpoint) as client:
                client.cache_put(fp, value)
            assert server.cache.get_text(fp) == value.text
        finally:
            server.shutdown()

    def test_put_with_dead_owner_still_stores_locally(self, cluster,
                                                      induced):
        config, peers = cluster
        fp, payload = induced
        for peer in peers.values():
            peer.fail = True
        cache = make_cache(config, peers, non_owner_of(config, fp))
        cache.put(fp, payload)
        assert cache.get_local(fp) is not None
        assert cache.counters["remote_errors"] >= 1

    def test_put_refuses_what_the_store_rule_refuses(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced
        cache = make_cache(config, peers, config.node_names[0])
        assert not cache.put(fp, {**payload, "degraded": True})
        assert cache.get_local(fp) is None
        assert sum(p.puts for p in peers.values()) == 0


class TestLocalOnlySurface:
    def test_get_local_never_touches_peers(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced

        def explode(endpoint):
            raise AssertionError("peer traffic from a local-only op")

        cache = RemoteScheduleCache(
            ScheduleCache(capacity=4), config,
            self_name=config.node_names[0], client_factory=explode)
        assert cache.get_local(fp) is None
        cache.put_local(fp, payload)
        # The local text, as the server's peer cache_get op sends it.
        assert json.loads(cache.get_local(fp)) == entry_of(payload)

    def test_delegated_schedulecache_surface(self, cluster, induced):
        config, peers = cluster
        fp, payload = induced
        cache = make_cache(config, peers, config.node_names[0], capacity=4)
        assert len(cache) == 0
        assert cache.capacity == 4
        cache.put_local(fp, payload)
        assert len(cache) == 1
        assert 0.0 <= cache.hit_rate <= 1.0


class TestOwnerRule:
    """A live 3-node cluster: a routed miss lands on its owner, which
    calls no peer, and a direct submit to a non-owner reads through."""

    def test_a_routed_miss_calls_no_peer(self):
        with LocalCluster(nodes=3, cache_capacity=16) as clu:
            clu.client().submit(api.InductionRequest(REGION, budget=2_000))
            stats = clu.node_stats()
            for key in ("peer_cache_requests", "peer_cache_stores"):
                assert [s.get(key, 0) for s in stats] == [0, 0, 0]

    def test_both_non_owners_read_through_to_the_owner(self):
        request = api.InductionRequest(REGION, budget=2_000)
        with LocalCluster(nodes=3, cache_capacity=16) as clu:
            clu.client().submit(request)
            for index in range(3):
                with clu.node_client(index) as client:
                    assert not client.submit(request).degraded
            owner = owner_of(clu.config, request.fingerprint())
            stats = dict(zip(clu.config.node_names, clu.node_stats()))
            assert sum(s.get("cache_remote_hits", 0)
                       for s in stats.values()) == 2
            assert {name: s.get("peer_cache_served", 0)
                    for name, s in stats.items()} == {
                name: 2 if name == owner else 0 for name in stats}


class Clock:
    """A stand-in for the tier's monotonic clock."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestDeadOwnerCooldown:
    """After a call to the owner raises, the tier leaves it alone for
    ``PEER_COOLDOWN_S``: lookups miss and pushes drop, as ``remote_skips``."""

    def test_a_failed_lookup_skips_the_owner_until_the_cooldown_ends(
            self, cluster, induced, monkeypatch):
        clock = Clock()
        monkeypatch.setattr(remotecache, "monotonic", clock)
        config, peers = cluster
        fp, payload = induced
        owner = peers[owner_of(config, fp)]
        owner.fail = True
        cache = make_cache(config, peers, non_owner_of(config, fp))
        assert cache.get(fp) is None
        assert (owner.gets, cache.counters["remote_errors"]) == (1, 1)
        # Cooling down: lookups miss and the push is dropped, uncalled.
        for _ in range(5):
            assert cache.get(fp) is None
        cache.put(fp, payload)
        assert (owner.gets, owner.puts) == (1, 0)
        assert cache.counters["remote_skips"] == 6
        assert cache.counters["remote_errors"] == 1
        assert cache.counters["remote_misses"] == 1
        assert cache.get_local(fp) is not None  # stored locally all the same
        # The owner is back; after the cool-down the tier calls it again.
        owner.fail = False
        clock.now += PEER_COOLDOWN_S
        cache.put(fp, payload)
        assert owner.puts == 1 and cache.counters["remote_stores"] == 1
        assert cache.counters["remote_skips"] == 6

    def test_a_failed_push_cools_the_owner_too(self, cluster, induced,
                                               monkeypatch):
        clock = Clock()
        monkeypatch.setattr(remotecache, "monotonic", clock)
        config, peers = cluster
        fp, payload = induced
        owner = peers[owner_of(config, fp)]
        owner.fail = True
        cache = make_cache(config, peers, non_owner_of(config, fp))
        cache.put(fp, payload)
        cache.put(fp, payload)
        assert owner.puts == 1
        assert cache.counters["remote_errors"] == 1
        assert cache.counters["remote_skips"] == 1
        clock.now += PEER_COOLDOWN_S / 2
        cache.put(fp, payload)
        assert owner.puts == 1 and cache.counters["remote_skips"] == 2
        # Still down after the cool-down: one more failed call, and
        # another cool-down.
        clock.now += PEER_COOLDOWN_S
        cache.put(fp, payload)
        cache.put(fp, payload)
        assert owner.puts == 2 and cache.counters["remote_errors"] == 2
        assert cache.counters["remote_skips"] == 3

    def test_other_owners_are_still_called(self, cluster, induced,
                                           monkeypatch):
        monkeypatch.setattr(remotecache, "monotonic", Clock())
        config, peers = cluster
        fp, payload = induced
        dead = owner_of(config, fp)
        peers[dead].fail = True
        me = non_owner_of(config, fp)
        live = next(n for n in config.node_names if n not in (dead, me))
        other = next(f"{k:064x}" for k in range(10_000)
                     if owner_of(config, f"{k:064x}") == live)
        cache = make_cache(config, peers, me)
        assert cache.get(fp) is None
        assert cache.get(other) is None
        assert peers[live].gets == 1
        assert cache.counters["remote_misses"] == 2

    def test_n_misses_on_a_dead_owners_arc_cost_bounded_errors(
            self, monkeypatch):
        # Request cache off and each request sent to a survivor directly:
        # every one is a local miss on the dead owner's arc.  The nodes
        # run in this process, so a frozen clock keeps the whole run
        # inside one cool-down however slowly the host computes.
        monkeypatch.setattr(remotecache, "monotonic", Clock())
        with LocalCluster(nodes=3, cache_capacity=64,
                          request_cache_size=0) as clu:
            names = clu.config.node_names
            dead, survivor = names[0], names[1]
            requests = [api.InductionRequest(REGION, budget=2_000 + k)
                        for k in range(200)]
            mine = [r for r in requests
                    if owner_of(clu.config, r.fingerprint()) == dead][:8]
            assert len(mine) == 8
            clu.kill_node(0)
            with clu.node_client(1) as client:
                for request in mine:
                    assert not client.submit(request).degraded
            stats = dict(zip(names, clu.node_stats()))[survivor]
            # One failed call starts the cool-down; the other 15 peer
            # calls (8 lookups, 8 pushes) are skipped.
            assert stats.get("cache_remote_errors", 0) == 1
            assert stats.get("cache_remote_skips", 0) == 15
