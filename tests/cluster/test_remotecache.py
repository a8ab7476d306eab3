"""Remote cache tier tests with stubbed peer clients (no sockets).

The stub client exposes exactly the two peer ops the tier uses
(``cache_get``/``cache_put``, one cache entry each way) backed by plain
dicts, so hit adoption, replication pushes, the boundary check and
dead-peer degradation are all deterministic.
"""

import json

import pytest

from repro import api
from repro.cluster import ClusterConfig, RemoteScheduleCache
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
    config = ClusterConfig(endpoints=ENDPOINTS, replication=2)
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


def owners(cache, fingerprint):
    return cache.ring.preference(fingerprint, count=cache.config.replication)


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
        owner = owners(make_cache(config, peers, ""), fp)[0]
        peers[owner].store[fp] = entry_of(payload)

        me = next(n for n in config.node_names if n != owner)
        cache = make_cache(config, peers, me)
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
        owner_cache = make_cache(config, peers, owners(
            make_cache(config, peers, ""), fp)[0])
        owner_cache.put(fp, payload)

        outsider = next(n for n in config.node_names
                        if n not in owners(owner_cache, fp))
        # The outsider is not a replica owner, so its peers DO include the
        # owner that just stored: the lookup crosses the cluster.
        cache = make_cache(config, peers, outsider)
        found = cache.get(fp)
        assert found is not None
        assert [SearchStats(**s) for s in found["stats"]] == \
            [SearchStats(**s) for s in payload["stats"]]
        assert found["serial_cost"] == payload["serial_cost"]

    def test_all_peers_miss_counts_remote_miss(self, cluster):
        config, peers = cluster
        cache = make_cache(config, peers, config.node_names[0])
        assert cache.get("0" * 64) is None
        assert cache.counters["remote_misses"] == 1

    def test_dead_peer_degrades_to_miss(self, cluster, induced):
        config, peers = cluster
        fp, _ = induced
        for peer in peers.values():
            peer.fail = True
        cache = make_cache(config, peers, config.node_names[0])
        assert cache.get(fp) is None
        assert cache.counters["remote_errors"] >= 1
        assert cache.counters["remote_misses"] == 1

    def test_garbage_payload_is_an_error_not_a_crash(self, cluster, induced):
        config, peers = cluster
        fp, _ = induced
        owner = owners(make_cache(config, peers, ""), fp)[0]
        peers[owner].store[fp] = "not-an-entry"
        me = next(n for n in config.node_names if n != owner)
        cache = make_cache(config, peers, me)
        assert cache.get(fp) is None
        assert cache.counters["remote_errors"] >= 1

    @pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED)
    def test_entry_without_cost_is_a_counted_miss(self, cluster, induced,
                                                  malform):
        config, peers = cluster
        fp, payload = induced
        owner = owners(make_cache(config, peers, ""), fp)[0]
        peers[owner].store[fp] = malform(entry_of(payload))
        me = next(n for n in config.node_names if n != owner)
        cache = make_cache(config, peers, me)
        assert cache.get(fp) is None
        assert cache.counters["remote_errors"] == 1
        assert cache.counters["remote_misses"] == 1
        assert cache.get_local(fp) is None  # nothing adopted


class TestPut:
    def test_put_pushes_to_replica_owners_excluding_self(self, cluster,
                                                         induced):
        config, peers = cluster
        fp, payload = induced
        reference = make_cache(config, peers, "")
        replica_owners = owners(reference, fp)
        me = replica_owners[0]
        cache = make_cache(config, peers, me)
        assert cache.put(fp, payload)
        # Local copy plus a push to the OTHER replica owner, nobody else.
        assert cache.get_local(fp) is not None
        pushed = [n for n, p in peers.items() if fp in p.store]
        assert pushed == [replica_owners[1]]
        assert protocol.decode_result(peers[replica_owners[1]].store[fp]) \
            == entry_of(payload)
        assert cache.counters["remote_stores"] == 1

    def test_put_with_text_pushes_that_text(self, cluster, induced):
        # A server's miss brings the text its worker encoded: the push
        # splices it into the peer frame, and nothing encodes it again.
        config, peers = cluster
        fp, payload = induced
        replica_owners = owners(make_cache(config, peers, ""), fp)
        cache = make_cache(config, peers, replica_owners[0])
        value = protocol.ResultText.encode(payload)
        assert cache.put(fp, value.flags, text=value.text)
        assert cache.get_local(fp) == value.text
        pushed = peers[replica_owners[1]].store[fp]
        assert isinstance(pushed, protocol.ResultText)
        assert pushed.text == value.text and not pushed.fields
        assert protocol.decode_result(pushed) == entry_of(payload)

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

    def test_put_with_dead_replica_still_stores_locally(self, cluster,
                                                        induced):
        config, peers = cluster
        fp, payload = induced
        for peer in peers.values():
            peer.fail = True
        cache = make_cache(config, peers, config.node_names[0])
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
