"""Tests for the service wire protocol (framing, addresses, payloads)."""

import dataclasses
import json
import socket
import threading

import pytest

from repro.api import InductionRequest
from repro.core.costmodel import CostModel, maspar_cost_model
from repro.core.ops import parse_region
from repro.core.search import SearchConfig
from repro.service import protocol
from repro.service.endpoint import Endpoint

REGION = """
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, pair):
        a, b = pair
        protocol.send_message(a, {"op": "ping", "n": 3})
        assert protocol.recv_message(b) == {"op": "ping", "n": 3}

    def test_multiple_messages_in_order(self, pair):
        a, b = pair
        for i in range(5):
            protocol.send_message(a, {"i": i})
        assert [protocol.recv_message(b)["i"] for _ in range(5)] == list(range(5))

    def test_clean_eof_is_none(self, pair):
        a, b = pair
        a.close()
        assert protocol.recv_message(b) is None

    def test_mid_frame_eof_is_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00\x00\x10partial")
        a.close()
        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            protocol.recv_message(b)

    def test_partial_header_eof_is_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")
        a.close()
        with pytest.raises(protocol.ProtocolError, match="mid-frame"):
            protocol.recv_message(b)

    def test_exchange_reconnects_once_when_the_kept_peer_hung_up(self,
                                                                 pair):
        a, b = pair
        b.close()
        fresh, far = socket.socketpair()

        def answer():
            protocol.recv_message(far)
            protocol.send_message(far, {"status": "pong"})

        server = threading.Thread(target=answer)
        server.start()
        try:
            sock, reply = protocol.exchange(a, {"op": "ping"}, lambda: fresh)
            assert sock is fresh and reply == {"status": "pong"}
        finally:
            server.join(timeout=5)
            fresh.close()
            far.close()

    def test_exchange_does_not_retry_a_fresh_connection(self, pair):
        a, b = pair

        def swallow():
            protocol.recv_message(b)
            b.close()

        server = threading.Thread(target=swallow)
        server.start()
        opened = []
        with pytest.raises(protocol.ProtocolError,
                           match="closed the connection"):
            protocol.exchange(None, {"op": "ping"},
                              lambda: opened.append(a) or a)
        server.join(timeout=5)
        assert opened == [a]

    def test_oversize_header_rejected(self, pair):
        a, b = pair
        a.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.recv_message(b)

    def test_non_object_frame_rejected(self, pair):
        a, b = pair
        body = b"[1,2]"
        a.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(protocol.ProtocolError, match="expected object"):
            protocol.recv_message(b)

    def test_bad_json_rejected(self, pair):
        a, b = pair
        body = b"{nope"
        a.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(protocol.ProtocolError, match="bad frame"):
            protocol.recv_message(b)


class TestAddresses:
    """Bare address forms (CLI flags) map onto what :func:`connect` takes."""

    def test_path_is_unix(self):
        endpoint = Endpoint.parse_lenient("/tmp/x.sock")
        assert (endpoint.scheme, endpoint.path) == ("unix", "/tmp/x.sock")
        assert Endpoint.parse(str(endpoint)) == endpoint

    def test_host_port_is_tcp(self):
        endpoint = Endpoint.parse_lenient("127.0.0.1:9999")
        assert (endpoint.scheme, (endpoint.host, endpoint.port)) == \
            ("tcp", ("127.0.0.1", 9999))
        assert Endpoint.parse(str(endpoint)) == endpoint

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Endpoint.parse_lenient("")
        with pytest.raises(protocol.ProtocolError):
            protocol.connect("")


class TestModelPayload:
    def test_named_model_passes_through(self):
        assert protocol.model_to_payload("uniform") == "uniform"
        assert protocol.model_from_payload("uniform") == "uniform"

    def test_custom_model_round_trips(self):
        model = maspar_cost_model()
        back = protocol.model_from_payload(protocol.model_to_payload(model))
        assert isinstance(back, CostModel)
        assert back.class_of == model.class_of
        assert back.mask_overhead == model.mask_overhead

    def test_bad_payload_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.model_from_payload({"class_of": {}})


class TestRequestWire:
    def test_round_trip_preserves_fingerprint(self):
        request = InductionRequest(region=REGION, budget=5000,
                                   deadline_s=9.0)
        back = protocol.request_from_wire(protocol.request_to_wire(request))
        assert back.fingerprint() == request.fingerprint()
        assert back.deadline_s == 9.0
        assert back.resolved_config().node_budget == 5000

    def test_region_text_travels_as_given(self, count_calls):
        text = REGION + "\n\n"
        counts = count_calls(parse_region)
        wire = protocol.request_to_wire(InductionRequest(region=text))
        assert wire["region"] is text
        assert counts == {}

    def test_parsed_region_is_rendered(self):
        region = parse_region(REGION)
        wire = protocol.request_to_wire(InductionRequest(region=region))
        assert wire["region"] == region.render()

    def test_config_is_its_fields_by_name(self):
        config = SearchConfig(node_budget=123, use_memo=False)
        wire = protocol.request_to_wire(
            InductionRequest(region=REGION, config=config))
        assert wire["config"] == dataclasses.asdict(config)

    def test_region_parsed_and_model_resolved_once(self):
        from repro.core.ops import Region

        back = protocol.request_from_wire(
            protocol.request_to_wire(InductionRequest(region=REGION)))
        assert isinstance(back.region, Region)
        assert isinstance(back.model, CostModel)
        assert back.resolved_region() is back.region
        assert back.resolved_model() is back.model

    @pytest.mark.parametrize("field, value", [
        ("region", "thread 3:\n    a = ld x\n"),
        ("region", "thread 0:\n    = = =\n"),
        ("region", 42),
        ("model", "no-such-model"),
        # There is no engine knob: a config naming a search engine is
        # rejected, not silently ignored.
        ("config", {**dataclasses.asdict(SearchConfig()), "engine": "array"}),
        # Windowed induction is gone: a windowed submit is refused.
        ("window", 4),
    ])
    def test_malformed_submit_is_protocol_error(self, field, value):
        wire = protocol.request_to_wire(InductionRequest(region=REGION))
        wire[field] = value
        with pytest.raises(protocol.ProtocolError, match="bad submit"):
            protocol.request_from_wire(wire)

    def test_chaos_rides_separately(self):
        request = InductionRequest(region=REGION)
        wire = protocol.request_to_wire(request, chaos={"sleep_s": 1.0})
        assert wire["chaos"] == {"sleep_s": 1.0}
        assert "chaos" not in protocol.request_to_wire(request)

    def test_invalid_wire_is_protocol_error(self):
        wire = protocol.request_to_wire(InductionRequest(region=REGION))
        wire["method"] = "magic"
        with pytest.raises(protocol.ProtocolError, match="bad submit"):
            protocol.request_from_wire(wire)

    def test_nan_node_budget_is_protocol_error(self):
        # json.loads reads the NaN literal, so the check is the config's.
        text = protocol.Submit(InductionRequest(region=REGION, budget=7),
                               None).text()
        assert '"node_budget":7,' in text
        wire = json.loads(text.replace('"node_budget":7,',
                                       '"node_budget":NaN,'))
        with pytest.raises(protocol.ProtocolError,
                           match="bad submit payload: node budget must be "
                                 "positive, got nan"):
            protocol.request_from_wire(wire)

    def test_bad_deadline_is_protocol_error(self):
        wire = protocol.request_to_wire(InductionRequest(region=REGION))
        wire["deadline_s"] = -1
        with pytest.raises(protocol.ProtocolError):
            protocol.request_from_wire(wire)

    @pytest.mark.parametrize("deadline", [
        float("nan"), float("inf"), True, 0, -1],
        ids=["nan", "inf", "true", "zero", "minus-1"])
    def test_deadline_follows_the_local_rule(self, deadline):
        # The wire refuses what InductionRequest refuses, JSON true (a
        # bool is an int) and infinity included.
        wire = protocol.request_to_wire(InductionRequest(region=REGION))
        wire["deadline_s"] = deadline
        with pytest.raises(protocol.ProtocolError, match="deadline"):
            protocol.request_from_wire(wire)
        with pytest.raises(ValueError, match="deadline"):
            InductionRequest(region=REGION, deadline_s=deadline)
        wire["deadline_s"] = 0.25
        assert protocol.request_from_wire(wire).deadline_s == 0.25
