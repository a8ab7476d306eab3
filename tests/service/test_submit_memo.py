"""The submit memo: a repeated submit costs one digest on every served hop.

Each contract test runs against an in-process induction server and an
in-process cluster router (over a one-node :class:`LocalCluster`), since
both daemons fingerprint through their own
:class:`~repro.service.protocol.SubmitMemo`.
"""

import json
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.api import InductionRequest
from repro.cluster import LocalCluster
from repro.core import ScheduleCache, maspar_cost_model, verify_schedule
from repro.core.costmodel import CostModel
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.obs import Counters
from repro.service import (
    Endpoint, InductionServer, ServerConfig, ServiceClient, ServiceError,
    protocol,
)

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

#: Reply fields that describe one hop of one request, not its result.
PER_REQUEST = {"cache_hit", "wall_s", "disposition", "queue_wait_s",
               "server_wall_s", "deduped", "retries", "router_cache"}


@pytest.fixture(params=["server", "router"])
def daemon(request, tmp_path):
    """One in-process daemon under test: its endpoint and its counters."""
    if request.param == "server":
        server = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                         workers=1, allow_chaos=True),
            cache=ScheduleCache())
        live = SimpleNamespace(endpoint=server.endpoint,
                               counters=server.counters,
                               close=server.shutdown)
    else:
        cluster = LocalCluster(nodes=1, cache_capacity=16)
        live = SimpleNamespace(endpoint=cluster.router.endpoint,
                               counters=cluster.router.counters,
                               close=cluster.shutdown)
    try:
        yield live
    finally:
        live.close()


def _submit_raw(endpoint, wire):
    with protocol.connect(endpoint, timeout=30.0) as sock:
        protocol.send_message(sock, wire)
        return protocol.recv_message(sock)


def _result_fields(result):
    return ({k: v for k, v in result.as_dict(True).items()
             if k not in PER_REQUEST},
            {k: v for k, v in result.extras.items() if k not in PER_REQUEST})


def test_repeat_parses_nothing_and_replays_the_first_reply(daemon,
                                                           count_calls):
    request = InductionRequest(region=REGION, budget=10_000)
    with ServiceClient(daemon.endpoint) as client:
        first = client.submit(request)
        counts = count_calls(parse_region)
        again = client.submit(request)
    # Neither the client nor the daemon parsed the repeat's region.
    assert counts == {}
    assert again.cache_hit
    assert _result_fields(again) == _result_fields(first)
    assert daemon.counters["submit_memo_misses"] == 1
    assert daemon.counters["submit_memo_hits"] == 1


def test_textual_variants_share_one_fingerprint(daemon):
    spaced = REGION.replace("    ", "        ") + "\n\n"
    with ServiceClient(daemon.endpoint) as client:
        client.submit(InductionRequest(region=REGION, budget=10_000))
        variant = client.submit(InductionRequest(region=spaced,
                                                 budget=10_000))
    # Each text is parsed once, and both find the one cache entry.
    assert daemon.counters["submit_memo_misses"] == 2
    assert variant.cache_hit


def test_malformed_text_is_refused_every_time_and_never_remembered(daemon):
    bad = InductionRequest(region="thread 3:\n    a = ld x\n", budget=10_000)
    wire = protocol.request_to_wire(bad)
    for _ in range(2):
        reply = _submit_raw(daemon.endpoint, wire)
        assert reply["status"] == "error"
        assert "bad submit payload" in reply["error"]
    with ServiceClient(daemon.endpoint) as client:
        with pytest.raises(ServiceError, match="bad submit payload"):
            client.submit(bad)
    assert daemon.counters["submit_memo_hits"] == 0
    assert daemon.counters["submit_memo_misses"] == 3


def test_a_nan_node_budget_is_refused_every_time(daemon):
    # The frame carries the NaN literal; a budget no node count reaches
    # would let the worker search without bound.
    wire = protocol.request_to_wire(InductionRequest(region=REGION,
                                                     budget=10_000))
    wire["config"]["node_budget"] = float("nan")
    for _ in range(2):
        reply = _submit_raw(daemon.endpoint, wire)
        assert reply["status"] == "error"
        assert "bad submit payload: node budget must be positive" in \
            reply["error"]
    assert daemon.counters["submit_memo_hits"] == 0
    assert daemon.counters["submit_memo_misses"] == 2


@pytest.mark.parametrize("method", ["portfolio", "anneal"])
def test_removed_methods_are_refused_every_time(daemon, method):
    # The race and the annealer are gone: a submit naming either is a
    # bad payload on first sight and on every repeat, never remembered,
    # while the same region's search submit is memoized as usual.
    request = InductionRequest(region=REGION, budget=10_000)
    with ServiceClient(daemon.endpoint) as client:
        client.submit(request)
        wire = protocol.request_to_wire(request)
        wire["method"] = method
        for _ in range(2):
            reply = _submit_raw(daemon.endpoint, dict(wire))
            assert reply["status"] == "error"
            assert f"bad submit payload: unknown method {method!r}" in \
                reply["error"]
        assert daemon.counters["submit_memo_hits"] == 0
        assert client.submit(request).cache_hit
    assert daemon.counters["submit_memo_hits"] == 1
    assert daemon.counters["submit_memo_misses"] == 3


@pytest.mark.parametrize("field,value", [
    ("window", 4), ("deadline_s", 0), ("deadline_s", -1.0),
    ("deadline_s", "soon"), ("deadline_s", float("nan")),
    ("deadline_s", float("inf")), ("deadline_s", True), ("deadline_s", -1),
], ids=["window", "deadline-0", "deadline-negative", "deadline-text",
        "deadline-nan", "deadline-inf", "deadline-true", "deadline-minus-1"])
def test_memo_hit_still_checks_the_unkeyed_fields(daemon, field, value):
    request = InductionRequest(region=REGION, budget=10_000)
    with ServiceClient(daemon.endpoint) as client:
        client.submit(request)
    wire = protocol.request_to_wire(request)
    wire[field] = value
    reply = _submit_raw(daemon.endpoint, wire)
    assert reply["status"] == "error"
    assert "bad submit payload" in reply["error"]
    assert daemon.counters["submit_memo_hits"] == 0


def test_memo_hit_that_degrades_answers_the_verified_greedy_schedule(
        daemon):
    # Every attempt's worker crashes, so retries run out and the reply is
    # degraded, hence never cached: the repeat reaches a worker again and
    # degrades again, from the memo's fingerprint and a lazy parse.
    request = InductionRequest(region=REGION, budget=10_000)
    crash = {"crash_attempts": 5}
    with ServiceClient(daemon.endpoint) as client:
        first = client.submit(request, chaos=crash)
        again = client.submit(request, chaos=crash)
    assert first.degraded and again.degraded
    assert not again.cache_hit
    assert again.extras["disposition"] == "retries"
    assert daemon.counters["submit_memo_hits"] == 1
    verify_schedule(again.schedule, parse_region(REGION), maspar_cost_model())
    assert again.schedule == first.schedule


class TestSubmitMemo:
    """The helper itself, without a daemon."""

    def wire(self, **changes):
        return protocol.request_to_wire(
            InductionRequest(region=REGION, budget=10_000).replace(**changes))

    def test_gives_the_parsed_requests_fingerprint(self):
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        wire = self.wire()
        expected = protocol.request_from_wire(wire).fingerprint()
        assert memo.fingerprint(wire) == memo.fingerprint(wire) == expected
        assert (counters["submit_memo_misses"],
                counters["submit_memo_hits"]) == (1, 1)

    def test_unkeyed_fields_share_the_entry(self):
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        first = memo.fingerprint(self.wire())
        routed = self.wire(deadline_s=5.0, routing={"node": "n0"})
        assert memo.fingerprint(routed) == first
        assert counters["submit_memo_hits"] == 1

    @pytest.mark.parametrize("changes", [
        {"budget": 10_001},
        {"method": "greedy", "budget": None,
         "config": SearchConfig(node_budget=10_000)},
        {"vn": "on"}, {"model": "uniform"},
    ], ids=["config", "method", "vn", "model"])
    def test_every_fingerprint_key_is_in_the_digest(self, changes):
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        memo.fingerprint(self.wire())
        changed = self.wire(**changes)
        assert memo.fingerprint(changed) == \
            protocol.request_from_wire(changed).fingerprint()
        assert counters["submit_memo_misses"] == 2

    @staticmethod
    def decoded(wire):
        """``wire`` as a daemon holds it: decoded from a JSON frame."""
        return json.loads(json.dumps(wire))

    def model_wire(self, **changes):
        """A submit whose custom model's fields are ``changes``."""
        wire = self.wire(model=CostModel(
            class_of={"ld": "mem", "mul": "alu", "add": "alu"},
            class_cost={"mem": 4.0, "alu": 1.0}))
        wire["model"].update(changes)
        return self.decoded(wire)

    @pytest.mark.parametrize("first,second", [
        (1, 1.0), (1, True), (1.0, True), (0.0, -0.0),
    ], ids=["int-float", "int-bool", "float-bool", "zero-signs"])
    def test_the_digest_tells_equal_numbers_of_other_types_apart(
            self, first, second):
        # Each pair parses to one cost model, so a wrong memo hit would
        # hide here; the digest is type-exact instead, and each spelling
        # is parsed once and then remembered.
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        wires = [self.model_wire(mask_overhead=first),
                 self.model_wire(mask_overhead=second)]
        got = [memo.fingerprint(wire) for wire in wires]
        assert got == [protocol.request_from_wire(wire).fingerprint()
                       for wire in wires]
        assert counters["submit_memo_misses"] == 2
        assert [memo.fingerprint(self.decoded(wire)) for wire in wires] == got
        assert counters["submit_memo_hits"] == 2

    def test_a_key_order_swap_is_another_digest_of_one_fingerprint(self):
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        wire = self.model_wire()
        swapped = self.decoded(wire)
        swapped["model"]["class_cost"] = dict(
            reversed(swapped["model"]["class_cost"].items()))
        assert list(swapped["model"]["class_cost"]) != \
            list(wire["model"]["class_cost"])
        assert memo.fingerprint(wire) == memo.fingerprint(swapped)
        assert counters["submit_memo_misses"] == 2
        assert memo.fingerprint(self.decoded(swapped)) == \
            memo.fingerprint(self.decoded(wire))
        assert counters["submit_memo_hits"] == 2

    def test_a_value_no_frame_decodes_to_is_parsed_not_remembered(self):
        class Text(str):
            pass

        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        wire = self.wire()
        odd = dict(wire, region=Text(wire["region"]))
        expected = protocol.request_from_wire(wire).fingerprint()
        assert memo.fingerprint(odd) == memo.fingerprint(odd) == expected
        assert counters["submit_memo_misses"] == 2
        assert counters["submit_memo_hits"] == 0

    def test_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(protocol, "SUBMIT_MEMO_SIZE", 2)
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        wires = [self.wire(budget=1_000 + i) for i in range(3)]
        for wire in wires:
            memo.fingerprint(wire)
        memo.fingerprint(wires[0])  # evicted: parsed again
        assert counters["submit_memo_misses"] == 4
        memo.fingerprint(wires[2])
        assert counters["submit_memo_hits"] == 1

    def test_threads_sharing_one_memo_get_every_fingerprint_right(
            self, monkeypatch):
        # Connection threads share their daemon's memo; a tiny memo makes
        # every thread evict what others are reading.
        monkeypatch.setattr(protocol, "SUBMIT_MEMO_SIZE", 3)
        counters = Counters()
        memo = protocol.SubmitMemo(counters)
        wires = [self.wire(budget=2_000 + i) for i in range(6)]
        expected = [protocol.request_from_wire(w).fingerprint()
                    for w in wires]
        wrong, errors = [], []

        def hammer(offset):
            try:
                for k in range(120):
                    i = (offset + k * (offset + 1)) % len(wires)
                    if memo.fingerprint(wires[i]) != expected[i]:
                        wrong.append(i)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not wrong
        assert counters["submit_memo_hits"] + \
            counters["submit_memo_misses"] == 8 * 120
