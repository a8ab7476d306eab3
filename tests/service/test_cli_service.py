"""CLI wiring tests for ``repro submit`` and ``repro serve --status/--stop``.

The server runs in-process (the ``serve`` foreground loop itself is
exercised by the CI smoke job); the CLI talks to it over the real socket.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.service import Endpoint, InductionServer, ServerConfig

REGION = """
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""


@pytest.fixture
def region_file(tmp_path):
    path = tmp_path / "region.txt"
    path.write_text(REGION)
    return str(path)


@pytest.fixture
def server(tmp_path):
    server = InductionServer(ServerConfig(
        endpoint=Endpoint.unix(str(tmp_path / "svc.sock")), workers=1))
    yield server
    if not server.wait_stopped(0.0):
        server.shutdown()


def test_submit_repeat_and_summary(server, region_file, capsys):
    assert main(["submit", region_file, "--socket", server.endpoint.path,
                 "--repeat", "3", "--concurrency", "3",
                 "--budget", "10000"]) == 0
    out = capsys.readouterr().out
    assert out.count("cost=") == 3
    assert "3 ok, 0 busy" in out
    assert "disposition=" in out


@pytest.mark.parametrize("flag", ["--window", "--jobs"])
def test_submit_window_flags_are_gone(server, region_file, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["submit", region_file, "--socket", server.endpoint.path,
              flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serve_status_prints_metrics(server, region_file, capsys):
    main(["submit", region_file, "--socket", server.endpoint.path,
          "--budget", "10000"])
    assert main(["serve", "--socket", server.endpoint.path, "--status"]) == 0
    out = capsys.readouterr().out
    assert "requests" in out and "workers" in out


def test_serve_stop_drains(server, capsys):
    assert main(["serve", "--socket", server.endpoint.path, "--stop"]) == 0
    assert "drained and stopped" in capsys.readouterr().out
    assert server.wait_stopped(5.0)


def test_submit_trace_writes_events(server, region_file, tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    assert main(["submit", region_file, "--socket", server.endpoint.path,
                 "--budget", "10000", "--trace", trace]) == 0
    import json
    events = [json.loads(line)
              for line in Path(trace).read_text().splitlines()]
    (summary,) = [e for e in events if e["kind"] == "submit"]
    assert summary["cost"] > 0
    # The tracer rides the request, so the same file carries the stitched
    # client->server span tree alongside the per-reply summary event.
    spans = [e for e in events if e["kind"] == "span"]
    assert {e["name"] for e in spans} >= {"client.submit", "service.request"}
    assert len({e["trace"] for e in spans}) == 1


def test_slo_command_table_and_json(server, region_file, capsys):
    main(["submit", region_file, "--socket", server.endpoint.path,
          "--budget", "5000"])
    capsys.readouterr()
    assert main(["slo", "--socket", server.endpoint.path]) == 0
    out = capsys.readouterr().out
    assert "SLO HEALTHY" in out
    assert "| latency" in out and "| errors" in out
    assert "60s" in out and "600s" in out

    import json
    assert main(["slo", "--json", "--socket", server.endpoint.path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["healthy"] is True
    assert data["requests_total"] == 1


def test_flightrec_command_empty_and_captured(region_file, tmp_path, capsys):
    from repro.obs import FlightConfig, FlightRecorder
    from repro.service import Endpoint, InductionServer, ServerConfig

    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "rec.sock")),
                     workers=1),
        flightrec=FlightRecorder(FlightConfig(capture_all=True)))
    try:
        # Nothing considered yet: empty snapshot exits 1.
        assert main(["flightrec", "--socket", server.endpoint.path]) == 1
        assert "0 matching" in capsys.readouterr().out
        main(["submit", region_file, "--socket", server.endpoint.path,
              "--budget", "5000"])
        capsys.readouterr()
        assert main(["flightrec", "--socket", server.endpoint.path]) == 0
        out = capsys.readouterr().out
        assert "1 captured" in out
        assert "replay of digest #1" in out
        assert "service.request" in out     # replayed span tree
        import json
        assert main(["flightrec", "--json",
                     "--socket", server.endpoint.path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["captured"] == 1
        assert data["digests"][0]["outcome"] == "ok"
    finally:
        server.shutdown()
