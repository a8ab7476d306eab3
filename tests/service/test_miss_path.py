"""A served miss: the worker's reply is the entry text, its metrics replayed.

The worker encodes a finished result once, as the text the server stores
and splices into its reply (:class:`~repro.service.protocol.ResultText`),
and sends the metric calls its induce made (a
:class:`~repro.obs.metrics.MetricsLog`) instead of a registry snapshot.
So the server's ``metrics`` op counts a miss's induce exactly once and a
hit's not at all, and the server itself makes no JSON encode or decode
of a miss's entry.
"""

import json
import re
import socket

import pytest

from repro import api
from repro.api import InductionRequest
from repro.core import ScheduleCache, result_to_payload
from repro.core import cache as cache_mod
from repro.core.cache import encode_entry
from repro.obs import MemoryTracer
from repro.obs.metrics import MetricsRegistry
from repro.service import Endpoint, InductionServer, ServerConfig, protocol
from repro.service.workers import _execute_wire, absorb_obs

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

OTHER = """
thread 0:
    a = ld x
    b = sub a a
thread 1:
    c = ld y
    d = sub c c
"""

#: What one computed request adds to the server's exposition.
INDUCE_SERIES = (
    "repro_induce_total",
    "repro_induce_wall_seconds_count",
    "repro_search_wall_seconds_count",
    "repro_search_nodes_per_second_count",
)


def wire_of(text: str, **extra) -> dict:
    wire = protocol.request_to_wire(InductionRequest(region=text,
                                                     budget=10_000))
    wire.update(extra)
    return wire


def induce_series(server: InductionServer) -> dict[str, float]:
    """The :data:`INDUCE_SERIES` values the ``metrics`` op reports."""
    text = server._dispatch_op({"op": "metrics"})["metrics"]
    values = {}
    for name in INDUCE_SERIES:
        found = re.search(rf"^{name} (\S+)$", text, re.M)
        values[name] = float(found.group(1)) if found else 0.0
    return values


@pytest.fixture
def server(tmp_path):
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1, allow_chaos=True),
        cache=ScheduleCache(cache_dir=tmp_path / "cache"))
    try:
        yield server
    finally:
        server.shutdown()


class TestMissMetrics:
    def test_a_miss_counts_its_induce_once_and_a_hit_not_at_all(self,
                                                                 server):
        assert induce_series(server) == dict.fromkeys(INDUCE_SERIES, 0.0)
        miss = server._dispatch_op(wire_of(REGION))
        assert miss["result"].fields["disposition"] == "miss"
        once = dict.fromkeys(INDUCE_SERIES, 1.0)
        assert induce_series(server) == once
        hit = server._dispatch_op(wire_of(REGION))
        assert hit["result"].fields["disposition"] == "cache"
        assert induce_series(server) == once

    def test_a_retried_miss_counts_once(self, server):
        reply = server._dispatch_op(
            wire_of(OTHER, chaos={"crash_attempts": 1}))
        assert reply["status"] == "ok"
        assert reply["result"].fields["retries"] == 1
        assert server.stats()["worker_deaths"] == 1
        assert induce_series(server) == dict.fromkeys(INDUCE_SERIES, 1.0)


class TestMissCodec:
    def test_the_server_never_encodes_or_decodes_a_miss_entry(
            self, server, monkeypatch):
        if server.pool.inline:
            pytest.skip("an inline worker encodes in this process")
        calls = []

        def counted(kind, fn):
            def wrapper(obj, *args, **kwargs):
                out = fn(obj, *args, **kwargs)
                text = obj if kind == "loads" else out
                calls.append((kind, '"schedule"' in str(text)))
                return out
            return wrapper

        a, b = socket.socketpair()
        with a, b:
            monkeypatch.setattr(json, "loads", counted("loads", json.loads))
            monkeypatch.setattr(json, "dumps", counted("dumps", json.dumps))
            for module, names in ((protocol, ("_ENCODE", "_ENCODE_SORTED")),
                                  (cache_mod, ("_ENCODE", "_CANONICAL"))):
                for name in names:
                    monkeypatch.setattr(module, name, counted(
                        "encode", getattr(module, name)))
            reply = server._dispatch_op(wire_of(REGION))
            protocol.send_message(a, reply)
            monkeypatch.undo()
            got = protocol.recv_message(b)
        assert got["result"]["disposition"] == "miss"
        # The first sight's fingerprint, the request's own fields and the
        # frame's status were encoded; the entry was not.
        assert calls and not any(on_entry for _kind, on_entry in calls)
        assert [kind for kind, _ in calls].count("loads") == 0
        # What the reply carried is what the cache stores.
        fingerprint = InductionRequest(region=REGION,
                                       budget=10_000).fingerprint()
        assert server.cache.get_text(fingerprint) == reply["result"].text


class TestWorkerReply:
    def test_execute_wire_returns_the_entry_text_and_its_freight(self):
        result = _execute_wire(wire_of(REGION))
        assert isinstance(result, protocol.ResultText)
        assert set(result.fields) == {"obs", "wall_s", "cache_hit"}
        assert result.flags == {"degraded": False, "deadline_cut": False}
        obs = result.fields["obs"]
        assert {e.get("name") for e in obs["spans"]} >= {"worker.execute",
                                                         "induce"}
        # A handful of plain tuples, not a registry snapshot.
        assert [call[:2] for call in obs["metrics"]] == [
            ("inc", "induce_total"), ("observe", "induce_wall_seconds"),
            ("observe", "search_wall_seconds"),
            ("observe", "search_nodes_per_second")]
        assert all(type(call) is tuple for call in obs["metrics"])
        entry = json.loads(result.text)
        assert entry == json.loads(encode_entry(entry)[0])
        assert "obs" not in entry and "wall_s" not in entry

    def test_absorb_obs_replays_and_strips_the_freight(self):
        result = _execute_wire(wire_of(REGION))
        tracer, registry = MemoryTracer(), MetricsRegistry()
        plain = absorb_obs(result, tracer=tracer, registry=registry)
        assert "obs" not in plain.fields and "obs" in result.fields
        assert (plain.text, plain.flags) == (result.text, result.flags)
        assert registry.counters["induce_total"] == 1
        assert registry.histogram("search_wall_seconds").count == 1
        assert any(e.get("name") == "worker.execute" for e in tracer.events)

    def test_store_rule_reads_the_flags(self):
        payload = result_to_payload(
            api.induce(InductionRequest(region=REGION, method="greedy")))
        for extra, stored in (({}, True), ({"degraded": True}, False),
                              ({"deadline_cut": True, "optimal": False},
                               False),
                              ({"deadline_cut": False, "optimal": False},
                               True)):
            value = protocol.ResultText.encode({**payload, **extra})
            cache = ScheduleCache()
            assert cache.put("f" * 64, value.flags, text=value.text) == \
                (value.text if stored else None)
            assert (cache.get_text("f" * 64) == value.text) is stored
