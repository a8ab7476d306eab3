"""A served ``ok`` result is its entry's text plus the request's own fields.

Every reply kind the induction server sends must decode, on the client's
side of the wire, to the dict that composing the result as a plain dict
gives: the cache entry with the request's own fields laid over it, sent
as one sorted JSON object (:func:`parent_frame`).  The per-request key
set of each kind is pinned here, so a field that goes missing, or one
that leaks into the stored text, fails a test.  A hit must not decode or
re-encode its entry at all.
"""

import json
import socket
import threading
import time

import pytest

from repro import api
from repro.api import InductionRequest
from repro.core import ScheduleCache, result_to_payload
from repro.core.cache import encode_entry
from repro.obs import MemoryTracer, span
from repro.service import Endpoint, InductionServer, ServerConfig, protocol
from repro.service.workers import degraded_result

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

#: The fields of a reply that hold timings, copied from the reply itself.
TIMINGS = ("wall_s", "queue_wait_s", "server_wall_s")


def over_the_wire(reply: dict) -> dict:
    """``reply`` as the client receives it: sent, then decoded."""
    a, b = socket.socketpair()
    with a, b:
        protocol.send_message(a, reply)
        return protocol.recv_message(b)


def parent_frame(result: dict) -> dict:
    """What an ``ok`` reply with the plain dict ``result`` decodes to when
    the frame is one ``json.dumps`` of the whole reply."""
    return json.loads(json.dumps({"status": "ok", "result": result},
                                 sort_keys=True, separators=(",", ":")))


def expected(entry: dict, got: dict, **fields) -> dict:
    """The entry, then ``fields``, then ``got``'s own timings, composed as
    a dict and sent as one frame."""
    timings = {key: got[key] for key in TIMINGS if key in got}
    return parent_frame({**entry, **fields, **timings})


def wire_of(request: InductionRequest, **extra) -> dict:
    wire = protocol.request_to_wire(request)
    wire.update(extra)
    return wire


@pytest.fixture
def served(tmp_path):
    """``(server, cache, wire, fingerprint)``; the cache has a disk tier."""
    cache = ScheduleCache(cache_dir=tmp_path / "cache")
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1, allow_chaos=True),
        cache=cache)
    request = InductionRequest(region=REGION, budget=10_000)
    try:
        yield server, cache, wire_of(request), request.fingerprint()
    finally:
        server.shutdown()


class TestResultText:
    def test_fields_go_last_and_win_on_decode(self):
        value = protocol.ResultText('{"a":1,"b":2}', {"b": 3, "c": [4]})
        assert value.splice() == '{"a":1,"b":2,"b":3,"c":[4]}'
        assert json.loads(value.splice()) == {"a": 1, "b": 3, "c": [4]}

    def test_no_fields_is_the_text_itself(self):
        text = '{"a": 1}'
        assert protocol.ResultText(text).splice() is text

    @pytest.mark.parametrize("text", ["{}", " { } ", '{"a":1}\n',
                                      '\t{"a": {"b": {}}} \r\n'])
    def test_any_object_text_takes_fields(self, text):
        spliced = protocol.ResultText(text, {"z": True}).splice()
        assert json.loads(spliced) == {**json.loads(text), "z": True}

    def test_with_fields_shares_the_text_never_the_fields(self):
        first = protocol.ResultText.encode({"cost": 1.0, "wall_s": 0.5,
                                            "cache_hit": False})
        second = first.with_fields(deduped=True)
        assert second.text is first.text
        assert second.fields is not first.fields
        assert first.fields == {"wall_s": 0.5, "cache_hit": False}
        assert second.fields == {**first.fields, "deduped": True}

    def test_encode_keeps_per_request_fields_out_of_the_text(self):
        payload = {"cost": 2.0, "degraded": True, "obs": {"spans": []},
                   "retries": 1, "wall_s": 0.1, "cache_hit": False}
        value = protocol.ResultText.encode(payload, disposition="miss")
        assert json.loads(value.text) == {"cost": 2.0, "degraded": True}
        assert value.fields == {"obs": {"spans": []}, "retries": 1,
                                "wall_s": 0.1, "cache_hit": False,
                                "disposition": "miss"}
        assert value.degraded

    def test_a_frame_can_carry_it_under_any_key(self):
        value = protocol.ResultText('{"x":1}', {"y": 2})
        got = over_the_wire({"status": "cache", "hit": True, "entry": value})
        assert got == {"status": "cache", "hit": True,
                       "entry": {"x": 1, "y": 2}}

    def test_decode_result_is_what_the_client_receives(self):
        value = protocol.ResultText('{"x":1,"k":0}', {"k": 9})
        reply = {"status": "ok", "result": value}
        assert protocol.decode_result(value) == \
            over_the_wire(reply)["result"]
        plain = {"x": 1}
        assert protocol.decode_result(plain) is plain


class TestServerReplies:
    def test_miss_then_memory_hit(self, served):
        server, cache, wire, fp = served
        miss = over_the_wire(server._dispatch_op(dict(wire)))["result"]
        entry = cache.get(fp)
        assert miss == expected(entry, miss, cache_hit=False, retries=0,
                                deduped=False, disposition="miss")["result"]
        # The stored entry is the local result's payload, minus only the
        # fields that belong to one request.
        local = json.loads(encode_entry(result_to_payload(api.induce(
            InductionRequest(region=REGION, budget=10_000))))[0])
        assert set(entry) == set(local)
        assert (entry["cost"], entry["schedule"]) == \
            (local["cost"], json.loads(json.dumps(local["schedule"])))

        memory_hits = cache.counters["memory_hits"]
        hit = over_the_wire(server._dispatch_op(dict(wire)))["result"]
        assert hit == expected(entry, hit, cache_hit=True, retries=0,
                               deduped=False, disposition="cache")["result"]
        assert hit["queue_wait_s"] == 0.0
        assert cache.counters["memory_hits"] == memory_hits + 1

    def test_disk_hit(self, served, tmp_path):
        server, cache, wire, fp = served
        server._dispatch_op(dict(wire))
        entry = cache.get(fp)
        fresh = ScheduleCache(cache_dir=tmp_path / "cache")
        again = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "b.sock")),
                         workers=1),
            cache=fresh)
        try:
            hit = over_the_wire(again._dispatch_op(dict(wire)))["result"]
        finally:
            again.shutdown()
        assert fresh.counters["disk_hits"] == 1
        assert hit == expected(entry, hit, cache_hit=True, retries=0,
                               deduped=False, disposition="cache")["result"]

    def test_degraded(self, served):
        server, cache, _wire, _fp = served
        request = InductionRequest(region=REGION, budget=10_001,
                                   deadline_s=0.2)
        wire = wire_of(request, chaos={"sleep_s": 2.0})
        got = over_the_wire(server._dispatch_op(dict(wire)))["result"]
        assert got["degraded"] and got["disposition"] == "deadline"
        # A degraded payload has no ``retries``: the worker never replied.
        reference = result_to_payload(degraded_result(
            protocol.request_from_wire(wire), wall_s=got["wall_s"]))
        assert "retries" not in reference
        assert got == expected(reference, got, deduped=False,
                               disposition="deadline")["result"]
        assert cache.get(request.fingerprint()) is None

    def test_dedup_joiner_shares_the_text_not_the_fields(self, served):
        server, cache, wire, fp = served
        replies = {}

        def go(name, chaos):
            replies[name] = server._dispatch_op(
                wire_of(InductionRequest(region=REGION, budget=10_000),
                        **({"chaos": chaos} if chaos else {})))

        leader = threading.Thread(target=go, args=("leader",
                                                   {"sleep_s": 0.5}))
        leader.start()
        deadline = time.monotonic() + 10
        while not len(server._flights) and time.monotonic() < deadline:
            time.sleep(0.005)
        go("joiner", None)
        leader.join(timeout=30)
        lead, join = replies["leader"]["result"], replies["joiner"]["result"]
        assert join.text is lead.text
        assert join.fields is not lead.fields
        got = over_the_wire(replies["joiner"])["result"]
        assert got == expected(cache.get(fp), got, cache_hit=False,
                               retries=0, deduped=True,
                               disposition="miss")["result"]
        assert not over_the_wire(replies["leader"])["result"]["deduped"]

    def test_traced_reply_carries_its_spans(self, served):
        server, cache, wire, fp = served
        server._dispatch_op(dict(wire))
        with span("client.submit", MemoryTracer()):
            traced = protocol.request_to_wire(
                InductionRequest(region=REGION, budget=10_000))
        got = over_the_wire(server._dispatch_op(traced))["result"]
        names = [s.get("name") for s in got["obs"]["spans"]]
        assert "service.request" in names
        assert got == expected(cache.get(fp), got, cache_hit=True, retries=0,
                               deduped=False, disposition="cache",
                               obs=got["obs"])["result"]

    def test_peer_cache_get_sends_the_stored_text(self, served):
        server, cache, wire, fp = served
        server._dispatch_op(dict(wire))
        reply = server._dispatch_op({"op": "cache_get", "fingerprint": fp})
        assert reply["entry"].text is cache._memory[fp]
        entry = cache.get(fp)
        assert over_the_wire(reply) == json.loads(json.dumps(
            {"status": "cache", "hit": True, "entry": entry},
            sort_keys=True))

    def test_a_request_field_wins_over_one_planted_in_the_entry(
            self, served, tmp_path):
        server, cache, wire, fp = served
        server._dispatch_op(dict(wire))
        planted = {**cache.get(fp), "cache_hit": False, "wall_s": 99.0,
                   "retries": 7, "disposition": "planted", "deduped": True,
                   "queue_wait_s": 5.0, "server_wall_s": 5.0}
        disk = tmp_path / "planted"
        disk.mkdir()
        (disk / f"{fp}.result.json").write_text(json.dumps(planted))
        again = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "p.sock")),
                         workers=1),
            cache=ScheduleCache(cache_dir=disk))
        try:
            reply = again._dispatch_op(dict(wire))
        finally:
            again.shutdown()
        # The stored text travels as it is, planted keys and all ...
        assert '"disposition": "planted"' in reply["result"].splice()
        got = over_the_wire(reply)["result"]
        # ... and the request's own fields, spliced in last, win.
        assert (got["cache_hit"], got["retries"], got["disposition"],
                got["deduped"], got["queue_wait_s"]) == \
            (True, 0, "cache", False, 0.0)
        assert got["wall_s"] < 99.0 and got["server_wall_s"] < 5.0


class TestHitCodec:
    def test_a_served_hit_never_decodes_or_encodes_its_entry(
            self, served, monkeypatch):
        server, _cache, wire, _fp = served
        server._dispatch_op(dict(wire))
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
            reply = server._dispatch_op(dict(wire))
            protocol.send_message(a, reply)
            monkeypatch.undo()
            got = protocol.recv_message(b)
        assert got["result"]["disposition"] == "cache"
        # Only the request's own fields and the frame's status were encoded.
        assert calls and not any(on_entry for _kind, on_entry in calls)
        assert [kind for kind, _ in calls].count("loads") == 0
