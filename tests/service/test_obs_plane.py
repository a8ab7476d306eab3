"""Service-side observability plane: reply-obs stitching, SLO, flightrec.

The trace contract over the wire: a submit whose request carries a live
tracer attaches ``trace_ctx``, and the reply's result payload carries the
server's span records under ``obs`` for the client to absorb — one
stitched trace.  Untraced submits must pay neither cost: no ``trace_ctx``
out, no ``obs`` back.
"""

import pytest

from repro.api import InductionRequest
from repro.obs import (
    FlightConfig, FlightRecorder, MemoryTracer, SLOConfig, SLOTracker,
    build_traces,
)
from repro.service import (
    Endpoint, InductionServer, ServerConfig, ServiceClient, protocol,
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


def make_server(tmp_path, **overrides):
    defaults = dict(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                    workers=1, allow_chaos=True)
    defaults.update(overrides)
    return InductionServer(ServerConfig(**defaults))


@pytest.fixture
def request_():
    return InductionRequest(region=REGION, budget=10_000)


class TestReplyObs:
    def test_traced_submit_returns_one_stitched_trace(self, tmp_path,
                                                      request_):
        server = make_server(tmp_path)
        try:
            tracer = MemoryTracer()
            request_.tracer = tracer
            with ServiceClient(server.endpoint) as client:
                client.submit(request_)
        finally:
            server.shutdown()
        spans = [e for e in tracer.events if e["kind"] == "span"]
        assert len({e["trace"] for e in spans}) == 1
        (tree,) = build_traces(spans)
        assert [r.name for r in tree.roots] == ["client.submit"]
        names = {n.name for n in tree._walk()}
        assert {"client.submit", "service.request", "service.dispatch",
                "worker.execute", "induce"} <= names

    def test_untraced_wire_reply_carries_no_obs(self, tmp_path, request_):
        server = make_server(tmp_path)
        try:
            wire = protocol.request_to_wire(request_)
            assert "trace_ctx" not in wire
            with protocol.connect(server.endpoint, timeout=10.0) as sock:
                protocol.send_message(sock, wire)
                reply = protocol.recv_message(sock)
            assert reply["status"] == "ok"
            assert "obs" not in reply["result"]
        finally:
            server.shutdown()

    def test_traced_wire_reply_carries_span_records(self, tmp_path,
                                                    request_):
        server = make_server(tmp_path)
        try:
            wire = protocol.request_to_wire(request_)
            wire["trace_ctx"] = {"trace": "ab" * 16, "span": "12" * 8}
            with protocol.connect(server.endpoint, timeout=10.0) as sock:
                protocol.send_message(sock, wire)
                reply = protocol.recv_message(sock)
            spans = reply["result"]["obs"]["spans"]
            assert spans
            # Server spans join the caller's trace id.
            assert {e["trace"] for e in spans
                    if e.get("kind") == "span"} == {"ab" * 16}
        finally:
            server.shutdown()


class TestSLOPlane:
    def test_stats_carry_slo_gauges(self, tmp_path, request_):
        server = make_server(tmp_path)
        try:
            with ServiceClient(server.endpoint) as client:
                client.submit(request_)
                stats = client.stats()
        finally:
            server.shutdown()
        assert stats["slo_healthy"] == 1.0
        assert stats["slo_window_requests"] == 1.0
        assert "slo_latency_burn_60s" in stats
        assert "slo_error_burn_600s" in stats

    def test_slo_op_reports_burning_under_tight_threshold(self, tmp_path,
                                                          request_):
        slo = SLOTracker(SLOConfig(latency_threshold_s=1e-6))
        server = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                         workers=1),
            slo=slo)
        try:
            with ServiceClient(server.endpoint) as client:
                client.submit(request_)
                status = client.slo()
        finally:
            server.shutdown()
        assert status["healthy"] is False
        assert status["requests_total"] == 1
        latency = status["objectives"][0]
        assert latency["objective"] == "latency"
        assert latency["windows"][0]["bad"] == 1
        assert latency["windows"][0]["burn_rate"] > 1.0


class TestFlightRecorderPlane:
    def test_fast_ok_requests_are_considered_not_captured(self, tmp_path,
                                                          request_):
        server = make_server(tmp_path)
        try:
            with ServiceClient(server.endpoint) as client:
                client.submit(request_)
                snap = client.flightrec()
        finally:
            server.shutdown()
        assert snap["considered"] == 1
        assert snap["captured"] == 0
        assert snap["digests"] == []

    def test_degraded_request_is_captured_with_spans(self, tmp_path,
                                                     request_):
        server = make_server(tmp_path)
        try:
            with ServiceClient(server.endpoint) as client:
                result = client.submit(request_,
                                       chaos={"crash_attempts": 5})
                assert result.degraded
                snap = client.flightrec()
        finally:
            server.shutdown()
        assert snap["captured"] == 1
        (digest,) = snap["digests"]
        assert digest["degraded"] is True
        assert digest["outcome"] == "ok"       # degraded is still served
        assert digest["fingerprint"]
        names = {e.get("name") for e in digest["spans"]}
        assert "service.request" in names
        assert digest["trace"] in {e.get("trace") for e in digest["spans"]}

    def test_capture_all_server_records_phases(self, tmp_path, request_):
        flightrec = FlightRecorder(FlightConfig(capture_all=True))
        server = InductionServer(
            ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                         workers=1),
            flightrec=flightrec)
        try:
            with ServiceClient(server.endpoint) as client:
                client.submit(request_)
                snap = client.flightrec(last=5)
        finally:
            server.shutdown()
        (digest,) = snap["digests"]
        assert digest["wall_s"] > 0
        assert "server_wall_s" in digest["phases"]

    def test_flightrec_op_rejects_bad_last(self, tmp_path, request_):
        server = make_server(tmp_path)
        try:
            with protocol.connect(server.endpoint, timeout=10.0) as sock:
                protocol.send_message(sock, {"op": "flightrec",
                                             "last": "many"})
                reply = protocol.recv_message(sock)
            assert reply["status"] == "error"
        finally:
            server.shutdown()
