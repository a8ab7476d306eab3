"""Client-side failure paths: the cases a healthy server never exercises.

Everything here runs against either no server at all or a *fake* one — a
bare listening socket the test scripts byte-by-byte — because the point is
the client's behaviour when the far side misbehaves: nothing listening,
connect that times out, a connection dropped before the reply header, a
frame truncated mid-body, garbage bytes, and recovery after the real server
restarts on the same address.  The client keeps one connection per thread
open across calls, so the last group checks when it reconnects.
"""

import socket
import threading

import pytest

from repro import api
from repro.api import InductionRequest
from repro.cluster import (
    ClusterClient, ClusterConfig, ClusterForwarder, RetryPolicy,
)
from repro.core import result_to_payload
from repro.obs import MemoryTracer
from repro.service import (
    Endpoint, InductionServer, ServerConfig, ServiceClient, ServiceError,
    protocol,
)
from repro.service.client import read_reply

REGION = """
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""


@pytest.fixture
def request_():
    return InductionRequest(region=REGION, budget=5_000)


class FakeServer:
    """A listening socket with a scripted per-connection behaviour."""

    def __init__(self, tmp_path, handler):
        self.path = str(tmp_path / "fake.sock")
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(self.path)
        self._sock.listen(4)
        self._handler = handler
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                self._sock.settimeout(0.2)
                conn, _ = self._sock.accept()
            except (socket.timeout, OSError):
                continue
            with conn:
                try:
                    self._handler(conn)
                except OSError:
                    pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2)
        self._sock.close()


class TestConnectFailures:
    def test_nothing_listening(self, tmp_path, request_):
        client = ServiceClient(Endpoint.unix(str(tmp_path / "absent.sock")))
        with pytest.raises(ServiceError, match="unreachable"):
            client.submit(request_)

    def test_ping_false_when_absent(self, tmp_path):
        absent = Endpoint.unix(str(tmp_path / "absent.sock"))
        assert not ServiceClient(absent).ping()

    def test_connect_timeout(self, request_):
        # A listener whose accept backlog is already full drops further
        # SYNs, so the connect itself must hit the client-side timeout.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(0)
        host, port = listener.getsockname()
        filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        filler.settimeout(1.0)
        filler.connect((host, port))  # occupies the single backlog slot
        try:
            client = ServiceClient(Endpoint.tcp(host, port), timeout=0.2)
            with pytest.raises(ServiceError, match="unreachable"):
                client.submit(request_)
        finally:
            filler.close()
            listener.close()


class TestBrokenReplies:
    def test_disconnect_before_reply(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)  # swallow the request, then hang up

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(Endpoint.unix(fake.path), timeout=2.0)
            with pytest.raises(ServiceError, match="closed the connection"):
                client.submit(request_)
        finally:
            fake.close()

    def test_disconnect_mid_frame(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)
            # Header promises 100 bytes; send 3 and hang up.
            conn.sendall((100).to_bytes(4, "big") + b"{\"s")

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(Endpoint.unix(fake.path), timeout=2.0)
            with pytest.raises(ServiceError, match="mid-frame"):
                client.submit(request_)
        finally:
            fake.close()

    def test_garbage_frame(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)
            body = b"\xff\xfenot json"
            conn.sendall(len(body).to_bytes(4, "big") + body)

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(Endpoint.unix(fake.path), timeout=2.0)
            with pytest.raises(ServiceError, match="bad frame"):
                client.submit(request_)
        finally:
            fake.close()

    def test_stalled_reply_hits_timeout(self, tmp_path, request_):
        def handler(conn):
            conn.recv(65536)
            # Send a header and then nothing: the read must time out.
            conn.sendall((50).to_bytes(4, "big"))
            import time
            time.sleep(1.0)

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(Endpoint.unix(fake.path), timeout=0.2)
            with pytest.raises(ServiceError, match="unreachable"):
                client.submit(request_)
        finally:
            fake.close()


def answering(reply):
    """A fake server's handler that answers each message with ``reply``;
    its ``answered`` attribute counts the messages."""
    def handler(conn):
        while protocol.recv_message(conn) is not None:
            handler.answered += 1
            protocol.send_message(conn, reply)
    handler.answered = 0
    return handler


def client_of(route, fake):
    """A service client on ``fake``, or a cluster client whose one node
    it is."""
    endpoint = Endpoint.unix(fake.path)
    if route == "service":
        return ServiceClient(endpoint, timeout=2.0)
    return ClusterClient(ClusterConfig(endpoints=(endpoint,)),
                         start_probes=False)


#: ``ok`` replies whose result does not build.
BAD_OK_REPLIES = {
    "no-result": {"status": "ok"},
    "no-method": {"status": "ok", "result": {"cost": 1}},
    "result-not-an-object": {"status": "ok", "result": [1, 2]},
}


class TestBadOkReplies:
    @pytest.mark.parametrize("route", ["service", "cluster"])
    @pytest.mark.parametrize("reply", BAD_OK_REPLIES.values(),
                             ids=BAD_OK_REPLIES)
    def test_is_a_service_error_naming_the_result(self, tmp_path, request_,
                                                  route, reply):
        fake = FakeServer(tmp_path, answering(reply))
        client = client_of(route, fake)
        try:
            with pytest.raises(ServiceError, match="bad result"):
                client.submit(request_)
        finally:
            client.close()
            fake.close()

    def test_router_cache_stores_no_result_that_does_not_build(
            self, tmp_path, request_):
        # What the disk and peer tiers refuse, the router's request cache
        # never stores: each identical submit reaches the node again.
        handler = answering({"status": "ok", "result": {"cost": 1.0}})
        fake = FakeServer(tmp_path, handler)
        client = client_of("cluster", fake)
        try:
            for _ in range(2):
                with pytest.raises(ServiceError, match="bad result"):
                    client.submit(request_)
        finally:
            client.close()
            fake.close()
        assert handler.answered == 2
        assert client.counters["router_cache_refusals"] == 2
        assert client.counters["router_cache_hits"] == 0
        assert len(client.cache) == 0


#: ``obs`` freights that are not span records.
BAD_OBS = {
    "not-an-object": [1],
    "span-not-an-object": {"spans": [1]},
    "span-key-not-a-string": {"spans": [{1: 2}]},
    "spans-not-a-list": {"spans": "ab"},
}


@pytest.fixture(scope="module")
def payload():
    return result_to_payload(api.induce(
        InductionRequest(region=REGION, budget=5_000)))


class TestBadObsFreight:
    """A freight that is not span records is a ServiceError at a traced
    client and a failed attempt at the router; an untraced client drops
    it unread."""

    @pytest.mark.parametrize("obs", BAD_OBS.values(), ids=BAD_OBS)
    def test_a_traced_client_raises_a_service_error(self, payload, obs):
        reply = {"status": "ok", "result": {**payload, "obs": obs}}
        tracer = MemoryTracer()
        with pytest.raises(ServiceError, match="bad obs freight"):
            read_reply(reply, tracer)
        assert tracer.events == []
        assert read_reply(reply, None).cost == payload["cost"]

    def test_over_the_wire(self, tmp_path, request_, payload):
        fake = FakeServer(tmp_path, answering(
            {"status": "ok", "result": {**payload, "obs": [1]}}))
        try:
            with ServiceClient(Endpoint.unix(fake.path), timeout=2.0) as c:
                assert c.submit(request_).cost == payload["cost"]
                with pytest.raises(ServiceError, match="bad obs freight"):
                    c.submit(request_.replace(tracer=MemoryTracer()))
        finally:
            fake.close()

    @pytest.mark.parametrize("obs", BAD_OBS.values(), ids=BAD_OBS)
    def test_a_node_sending_one_fails_the_attempt(self, request_, payload,
                                                  obs):
        forwarder = ClusterForwarder(ClusterConfig(
            endpoints=("unix:///nonexistent/n0.sock",
                       "unix:///nonexistent/n1.sock"),
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
            request_cache_size=0), start_probes=False)
        nodes = []

        def roundtrip(node, hop):
            nodes.append(node)
            result = {**payload, "obs": obs} if len(nodes) == 1 else payload
            return {"status": "ok", "result": dict(result)}

        forwarder._roundtrip = roundtrip
        try:
            reply = forwarder.submit_wire(protocol.request_to_wire(request_))
        finally:
            forwarder.close()
        assert read_reply(reply, None).cost == payload["cost"]
        assert len(set(nodes)) == 2
        assert forwarder.counters["route_failovers"] == 1
        (struck,) = [n for n in forwarder.membership.snapshot()
                     if n["failures"]]
        assert struck["endpoint"] == nodes[0] and struck["failures"] == 1


class TestReconnect:
    def test_client_survives_server_restart(self, tmp_path, request_):
        endpoint = Endpoint.unix(str(tmp_path / "svc.sock"))
        client = ServiceClient(endpoint, timeout=10.0)

        server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        try:
            first = client.submit(request_)
        finally:
            server.shutdown()

        # Down: the same client object now fails cleanly...
        with pytest.raises(ServiceError):
            client.submit(request_)

        # ...and works again, unchanged, once a new server binds the address.
        server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        try:
            second = client.submit(request_)
        finally:
            server.shutdown()

        assert first.cost == second.cost
        assert not second.degraded


@pytest.fixture
def connects(monkeypatch):
    """Count every client connection opened through :class:`Endpoint`."""
    opened = []
    original = Endpoint.connect

    def counting(self, timeout=None):
        sock = original(self, timeout)
        opened.append(sock)
        return sock

    monkeypatch.setattr(Endpoint, "connect", counting)
    return opened


class TestKeepAlive:
    def test_sequential_calls_connect_once(self, tmp_path, request_,
                                           connects):
        server = InductionServer(ServerConfig(
            endpoint=Endpoint.unix(str(tmp_path / "svc.sock")), workers=1))
        try:
            with ServiceClient(server.endpoint) as client:
                for _ in range(5):
                    client.submit(request_)
                assert client.ping()
                assert client.stats()["requests"] == 5
        finally:
            server.shutdown()
        assert len(connects) == 1

    def test_threads_sharing_a_client_get_their_own(self, tmp_path,
                                                    request_, connects):
        server = InductionServer(ServerConfig(
            endpoint=Endpoint.unix(str(tmp_path / "svc.sock")), workers=1))
        barrier = threading.Barrier(3)
        errors = []

        def work(client):
            try:
                client.ping()
                barrier.wait(timeout=10)
                client.submit(request_)
                client.ping()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        try:
            with ServiceClient(server.endpoint) as client:
                threads = [threading.Thread(target=work, args=(client,))
                           for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        finally:
            server.shutdown()
        assert not errors
        assert len(connects) == 3

    @pytest.mark.parametrize("reply", [
        len(b"\xffgarbage").to_bytes(4, "big") + b"\xffgarbage",
        (100).to_bytes(4, "big") + b'{"s',
    ], ids=["garbage", "truncated"])
    def test_broken_reply_drops_the_socket(self, tmp_path, request_, reply):
        seen = []

        def handler(conn):
            seen.append(conn)
            msg = protocol.recv_message(conn)
            if len(seen) == 1:
                conn.sendall(reply)
                return
            while msg is not None:
                protocol.send_message(conn, {"status": "pong"})
                msg = protocol.recv_message(conn)

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(Endpoint.unix(fake.path), timeout=2.0)
            with pytest.raises(ServiceError):
                client.submit(request_)
            assert client.ping() and client.ping()
            client.close()
        finally:
            fake.close()
        assert len(seen) == 2

    def test_a_submit_that_fails_to_encode_leaves_the_client_usable(
            self, tmp_path, request_):
        # The frame is encoded as it is sent, on the kept connection: the
        # request's own error surfaces, and the next call still works.
        server = InductionServer(ServerConfig(
            endpoint=Endpoint.unix(str(tmp_path / "svc.sock")), workers=1))
        try:
            with ServiceClient(server.endpoint) as client:
                assert client.ping()
                with pytest.raises(ValueError, match="node budget"):
                    client.submit(request_.replace(budget=0))
                assert client.submit(request_).cost > 0
        finally:
            server.shutdown()

    def test_stale_socket_is_reopened_once(self, tmp_path, request_):
        seen = []

        def handler(conn):
            # First connection answers one ping, then hangs up on the
            # next request; every later one hangs up on its first.
            seen.append(conn)
            protocol.recv_message(conn)
            if len(seen) == 1:
                protocol.send_message(conn, {"status": "pong"})
                protocol.recv_message(conn)

        fake = FakeServer(tmp_path, handler)
        try:
            client = ServiceClient(Endpoint.unix(fake.path), timeout=2.0)
            assert client.ping()
            with pytest.raises(ServiceError, match="closed the connection"):
                client.submit(request_)
        finally:
            fake.close()
        assert len(seen) == 2

    def test_restart_between_calls_is_transparent(self, tmp_path, request_,
                                                  connects):
        endpoint = Endpoint.unix(str(tmp_path / "svc.sock"))
        client = ServiceClient(endpoint, timeout=10.0)
        server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        try:
            first = client.submit(request_)
        finally:
            server.shutdown()
        server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        try:
            second = client.submit(request_)
        finally:
            server.shutdown()
            client.close()
        assert second.cost == first.cost
        assert len(connects) == 2

    def test_stopping_server_closes_idle_connections(self, tmp_path):
        endpoint = Endpoint.unix(str(tmp_path / "svc.sock"))
        server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
        with endpoint.connect(timeout=5.0) as sock:
            protocol.send_message(sock, {"op": "ping"})
            assert protocol.recv_message(sock)["status"] == "pong"
            server.shutdown()
            assert protocol.recv_message(sock) is None
