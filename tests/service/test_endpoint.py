"""Tests for typed service addresses.

:class:`Endpoint` is the single connection-config type.  Library
signatures take an :class:`Endpoint` or its URL string and reject the bare
string forms with a :class:`ValueError` naming the URL forms; only the
CLI-facing :meth:`parse_lenient` accepts the bare forms, silently.
"""

import warnings

import pytest

from repro import api
from repro.cluster import ClusterConfig, ClusterRouter
from repro.cluster.membership import Membership
from repro.service import Endpoint, InductionServer, ServerConfig, protocol
from repro.service.client import ServiceClient


class TestParse:
    @pytest.mark.parametrize("url", [
        "unix:///tmp/repro.sock",
        "tcp://127.0.0.1:7777",
        "tcp://[::1]:7777",
    ])
    def test_url_forms_roundtrip_through_str(self, url):
        endpoint = Endpoint.parse(url)
        assert str(endpoint) == url
        assert Endpoint.parse(str(endpoint)) == endpoint

    def test_unix_single_slash_form(self):
        assert Endpoint.parse("unix:/tmp/x.sock") == \
            Endpoint.unix("/tmp/x.sock")

    def test_parse_accepts_endpoint_instances(self):
        endpoint = Endpoint.unix("/tmp/x.sock")
        assert Endpoint.parse(endpoint) is endpoint

    @pytest.mark.parametrize("bad", [
        "/tmp/bare.sock",          # legacy bare forms are parse_lenient-only
        "localhost:7777",
        "tcp://nohost",
        "tcp://host:notaport",
        "ftp://host:1",
        "",
    ])
    def test_parse_rejects_everything_else(self, bad):
        with pytest.raises(ValueError):
            Endpoint.parse(bad)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="socket path"):
            Endpoint(scheme="unix")
        with pytest.raises(ValueError, match="host"):
            Endpoint(scheme="tcp", port=80)
        with pytest.raises(ValueError, match="port"):
            Endpoint(scheme="tcp", host="h", port=99999)
        with pytest.raises(ValueError, match="scheme"):
            Endpoint(scheme="udp", host="h", port=1)


class TestParseLenient:
    def test_bare_path_is_unix(self):
        assert Endpoint.parse_lenient("/tmp/bare.sock") == \
            Endpoint.unix("/tmp/bare.sock")

    def test_bare_host_port_is_tcp(self):
        assert Endpoint.parse_lenient("localhost:7777") == \
            Endpoint.tcp("localhost", 7777)

    def test_url_forms_still_parse(self):
        assert Endpoint.parse_lenient("unix:///tmp/x.sock") == \
            Endpoint.unix("/tmp/x.sock")

    def test_no_warning_is_emitted(self):
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            Endpoint.parse_lenient("/tmp/bare.sock")
        assert not recorded

    def test_empty_is_rejected(self):
        with pytest.raises(ValueError):
            Endpoint.parse_lenient("  ")

    def test_bare_port_defaults_to_loopback(self):
        assert Endpoint.parse_lenient(":0") == Endpoint.tcp("127.0.0.1", 0)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            Endpoint.parse_lenient("host:abc")


class TestBareStringsRejected:
    """Library signatures parse strictly: a bare string is an error."""

    def test_serviceclient_rejects_bare_address(self):
        with pytest.raises(ValueError, match="unix:///path"):
            ServiceClient("/tmp/bare.sock")

    def test_serverconfig_rejects_bare_endpoint(self):
        with pytest.raises(ValueError, match="tcp://host:port"):
            ServerConfig(endpoint="localhost:7777")

    def test_serverconfig_has_no_address(self):
        with pytest.raises(TypeError):
            ServerConfig(address="/tmp/bare.sock")
        config = ServerConfig(endpoint="unix:///tmp/x.sock")
        assert config.endpoint == Endpoint.unix("/tmp/x.sock")
        assert not hasattr(config, "address")

    def test_cluster_and_api_signatures_reject_bare_strings(self):
        with pytest.raises(ValueError, match="unix:///path"):
            ClusterConfig(endpoints=("/tmp/a.sock",))
        with pytest.raises(ValueError, match="unix:///path"):
            Membership(["/tmp/a.sock"])
        with pytest.raises(ValueError, match="unix:///path"):
            ClusterRouter("/tmp/router.sock", ClusterConfig(
                endpoints=(Endpoint.unix("/tmp/a.sock"),)),
                start_probes=False)
        with pytest.raises(ValueError, match="unix:///path"):
            api.induce(api.InductionRequest(region="thread 0:\n a = ld x\n"),
                       client="/tmp/bare.sock")
        with pytest.raises(protocol.ProtocolError, match="unix:///path"):
            protocol.connect("/tmp/bare.sock")

    def test_url_strings_accepted(self):
        assert ServiceClient("unix:///tmp/x.sock").endpoint == \
            Endpoint.unix("/tmp/x.sock")
        assert ClusterConfig(endpoints=("tcp://h:1",)).endpoints == \
            (Endpoint.tcp("h", 1),)

    def test_no_bare_form_accessors(self):
        assert not hasattr(Endpoint, "coerce")
        assert not hasattr(Endpoint.unix("/tmp/x.sock"), "legacy")
        for cls in (ServiceClient, InductionServer, ClusterRouter):
            assert not hasattr(cls, "address"), cls
        assert not hasattr(protocol, "parse_address")


class TestRendering:
    def test_legacy_forms(self):
        # The bare forms the CLI still accepts map onto the URL forms.
        assert str(Endpoint.parse_lenient("/tmp/x.sock")) == \
            "unix:///tmp/x.sock"
        assert str(Endpoint.parse_lenient("h:9")) == "tcp://h:9"

    def test_label_is_metrics_safe(self):
        label = Endpoint.unix("/tmp/x-y.sock").label
        assert label == "tmp_x_y_sock"
        assert Endpoint.parse("unix:///tmp/clu/n0.sock").label == \
            "tmp_clu_n0_sock"
        assert all(c.isalnum() or c == "_" for c in label)
        assert Endpoint.tcp("127.0.0.1", 80).label == "127_0_0_1_80"

    def test_hashable_and_ordered(self):
        a, b = Endpoint.unix("/a"), Endpoint.unix("/b")
        assert len({a, b, Endpoint.unix("/a")}) == 2
        assert sorted([b, a]) == [a, b]


class TestSockets:
    def test_unix_bind_connect_roundtrip(self, tmp_path):
        endpoint = Endpoint.unix(str(tmp_path / "ep.sock"))
        listener = endpoint.bind()
        try:
            with endpoint.connect(timeout=5.0):
                conn, _ = listener.accept()
                conn.close()
        finally:
            listener.close()

    def test_tcp_port_zero_resolves_to_bound_port(self):
        endpoint = Endpoint.tcp("127.0.0.1", 0)
        listener = endpoint.bind()
        try:
            resolved = endpoint.resolved(listener)
            assert resolved.port == listener.getsockname()[1] != 0
        finally:
            listener.close()


def test_server_accepts_typed_endpoint(tmp_path):
    endpoint = Endpoint.unix(str(tmp_path / "typed.sock"))
    server = InductionServer(ServerConfig(endpoint=endpoint, workers=1))
    try:
        assert ServiceClient(server.endpoint).ping() is True
        assert server.endpoint == endpoint
    finally:
        server.shutdown()
