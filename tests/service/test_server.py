"""End-to-end tests for the induction service's robustness contract.

Fault injection uses the wire-level ``chaos`` object (honoured because the
test servers set ``allow_chaos=True``): ``sleep_s`` stalls a worker to make
deadlines and queue pressure deterministic, ``crash_attempts`` kills the
worker mid-task to exercise retry-with-backoff.
"""

import threading
import time

import pytest

from repro.api import InductionRequest
from repro.core import maspar_cost_model, parse_region, verify_schedule
from repro.service import (
    Endpoint, InductionServer, ServerConfig, ServiceBusy, ServiceClient,
    ServiceError, protocol,
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
                    workers=1, queue_size=8, allow_chaos=True)
    defaults.update(overrides)
    return InductionServer(ServerConfig(**defaults))


@pytest.fixture
def request_():
    return InductionRequest(region=REGION, budget=10_000)


def test_submit_returns_verified_schedule(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        with ServiceClient(server.endpoint) as client:
            result = client.submit(request_)
        assert not result.degraded
        assert result.cost > 0
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
    finally:
        server.shutdown()


@pytest.mark.parametrize("deadline", [
    float("nan"), float("inf"), True, 0, -1],
    ids=["nan", "inf", "true", "zero", "minus-1"])
def test_default_deadline_follows_the_request_rule(tmp_path, deadline):
    with pytest.raises(ValueError, match="deadline"):
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     default_deadline_s=deadline)


def test_ping_and_stats(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        assert client.ping()
        client.submit(request_)
        stats = client.stats()
        assert stats["requests"] == 1
        assert stats["ok"] == 1
        assert stats["workers"] == 1
    finally:
        server.shutdown()


def test_concurrent_duplicates_are_deduplicated(tmp_path, request_):
    server = make_server(tmp_path, workers=2)
    try:
        client = ServiceClient(server.endpoint)
        results = [None] * 6
        # A stalled first submit holds the group in-flight so the
        # duplicates have something to join.
        def go(i, chaos=None):
            results[i] = client.submit(request_, chaos=chaos)
        threads = [threading.Thread(
            target=go, args=(0, {"sleep_s": 0.3}))]
        threads[0].start()
        time.sleep(0.1)
        threads += [threading.Thread(target=go, args=(i,)) for i in range(1, 6)]
        for t in threads[1:]:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert all(r is not None for r in results)
        assert len({r.cost for r in results}) == 1
        for r in results:
            assert 0 <= r.extras["queue_wait_s"] <= r.extras["server_wall_s"]
        stats = client.stats()
        assert stats["dedup_hits"] + stats.get("cache_hits", 0) >= 1
    finally:
        server.shutdown()


def test_joiner_degrades_at_its_own_deadline(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        box = {}

        def lead():
            box["leader"] = client.submit(request_, chaos={"sleep_s": 1.5})

        leader = threading.Thread(target=lead)
        leader.start()
        time.sleep(0.2)
        start = time.monotonic()
        joiner = client.submit(request_.replace(deadline_s=0.2))
        assert time.monotonic() - start < 1.0
        assert joiner.degraded
        assert joiner.extras["disposition"] == "deadline"
        verify_schedule(joiner.schedule, parse_region(REGION),
                        maspar_cost_model())
        leader.join(timeout=30)
        assert not leader.is_alive()
        assert not box["leader"].degraded
        stats = client.stats()
        assert stats["dedup_hits"] == 1
        assert stats["degraded_deadline"] == 1
    finally:
        server.shutdown()


def test_failing_dispatch_answers_every_waiting_request(tmp_path, request_,
                                                        monkeypatch):
    import repro.service.server as server_mod

    def broken(*_args, **_kwargs):
        raise RuntimeError("absorb failed")

    monkeypatch.setattr(server_mod, "absorb_obs", broken)
    server = make_server(tmp_path)
    client = ServiceClient(server.endpoint, timeout=5)
    errors = []

    def lead():
        try:
            client.submit(request_, chaos={"sleep_s": 0.6})
        except ServiceError as exc:
            errors.append(str(exc))

    # The leader's stall holds its flight open while the joiner arrives.
    leader = threading.Thread(target=lead)
    leader.start()
    time.sleep(0.2)
    try:
        start = time.monotonic()
        with pytest.raises(ServiceError, match="RuntimeError: absorb failed"):
            client.submit(request_)
        assert time.monotonic() - start < 3.0
        leader.join(timeout=5)
        assert not leader.is_alive()
        assert errors == ["RuntimeError: absorb failed"]
        stats = client.stats()
        assert stats["dedup_hits"] == 1
        assert stats["open_tickets"] == 0
    finally:
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()  # draining waits for no one


def test_single_flight_runs_one_leader_per_key_at_a_time():
    import sys

    from repro.service.daemon import SingleFlight

    flights = SingleFlight()
    lock = threading.Lock()
    running = dict.fromkeys("abc", 0)
    overlaps = []
    answers = []

    def lead(key):
        with lock:
            running[key] += 1
            overlaps.append(running[key])
        time.sleep(0.001)
        with lock:
            running[key] -= 1
        return {"status": "ok", "key": key}

    def work(key):
        for _ in range(50):
            answer, _led = flights.share(key, lambda: lead(key))
            answers.append((key, answer["key"]))

    threads = [threading.Thread(target=work, args=("abc"[i % 3],))
               for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(answers) == 600
    assert all(key == got for key, got in answers)
    assert max(overlaps) == 1
    assert len(flights) == 0


def test_killed_worker_is_retried_and_completes(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        result = client.submit(request_, chaos={"crash_attempts": 1})
        assert not result.degraded
        assert result.cost > 0
        assert result.extras.get("retries", 0) >= 1
        stats = client.stats()
        assert stats["worker_deaths"] >= 1
        assert stats["retries"] >= 1
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
    finally:
        server.shutdown()


def test_retries_exhausted_degrades_not_errors(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        result = client.submit(request_, chaos={"crash_attempts": 5})
        assert result.degraded
        assert result.optimal is False
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
        assert client.stats()["degraded_retries"] == 1
    finally:
        server.shutdown()


def test_deadline_expiry_degrades_to_verified_greedy(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        start = time.monotonic()
        result = client.submit(request_.replace(deadline_s=0.2),
                               chaos={"sleep_s": 5.0})
        elapsed = time.monotonic() - start
        assert result.degraded
        assert elapsed < 4.0  # did not wait out the stall
        verify_schedule(result.schedule, parse_region(REGION),
                        maspar_cost_model())
        assert client.stats()["degraded_deadline"] == 1
    finally:
        server.shutdown()


def slow_region():
    """Eight threads, moderate overlap: a 50M-node search on it runs for
    minutes, so only a deadline stops it."""
    pytest.importorskip("numpy")
    from repro.workloads.threads import RandomRegionSpec, random_region

    return random_region(
        RandomRegionSpec(num_threads=8, min_len=10, max_len=10,
                         vocab_size=12, overlap=0.4, private_vocab=False),
        seed=5)


def test_deadline_cut_answers_with_the_search_incumbent(tmp_path):
    from repro.core import ScheduleCache

    region = slow_region()
    cache = ScheduleCache()
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=cache)
    request = InductionRequest(region=region, budget=50_000_000,
                               deadline_s=0.5)
    try:
        with ServiceClient(server.endpoint) as client:
            start = time.monotonic()
            result = client.submit(request)
            elapsed = time.monotonic() - start
            again = client.submit(request.replace(deadline_s=0.2))
            stats = client.stats()
    finally:
        server.shutdown()
    # The worker's search stopped at the deadline; no kill, no greedy.
    assert not result.degraded
    assert result.method == "search"
    assert result.deadline_cut and not result.optimal
    assert result.extras["disposition"] == "miss"
    assert elapsed < 1.5
    verify_schedule(result.schedule, region, maspar_cost_model())
    # Never stored, so a repeat without a deadline cannot hit it.
    assert stats.get("cache_stores", 0) == 0
    assert cache.get_text(request.fingerprint()) is None
    assert not again.cache_hit and again.extras["disposition"] == "miss"
    assert stats.get("degraded_deadline", 0) == 0


def _hold_the_worker(client, request, stall_s):
    """Start a submit that keeps the one worker busy for ``stall_s``."""
    holder = threading.Thread(target=client.submit, args=(request,),
                              kwargs={"chaos": {"sleep_s": stall_s}})
    holder.start()
    time.sleep(0.1)
    return holder


def test_worker_gets_the_time_left_not_the_clients_deadline(tmp_path,
                                                            request_):
    # The submit waits about 0.9 s for the held worker, so its search has
    # about 0.4 s of its 1.3 s left; with the client's 1.3 s restarted in
    # the worker it would answer near 2.2 s.
    region = slow_region()
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        holder = _hold_the_worker(client, request_, 1.0)
        start = time.monotonic()
        result = client.submit(InductionRequest(
            region=region, budget=50_000_000, deadline_s=1.3))
        elapsed = time.monotonic() - start
        holder.join(timeout=30)
    finally:
        server.shutdown()
    assert not result.degraded and result.deadline_cut
    assert result.extras["queue_wait_s"] > 0.5
    assert elapsed < 1.3 + 0.45
    verify_schedule(result.schedule, region, maspar_cost_model())


def test_leaders_wait_for_a_worker_ends_at_its_deadline(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        holder = _hold_the_worker(client, request_, 1.0)
        start = time.monotonic()
        # Another fingerprint, so it leads its own flight.
        result = client.submit(request_.replace(budget=10_001,
                                                deadline_s=0.3))
        elapsed = time.monotonic() - start
        holder.join(timeout=30)
        stats = client.stats()
    finally:
        server.shutdown()
    assert result.degraded
    assert result.extras["disposition"] == "deadline"
    assert elapsed < 0.3 + 0.4  # not when the worker frees, near 0.9 s
    verify_schedule(result.schedule, parse_region(REGION),
                    maspar_cost_model())
    assert stats["degraded_deadline"] == 1
    assert stats.get("dedup_hits", 0) == 0


def test_dispatch_sends_the_time_left_and_nothing_once_it_is_gone(
        tmp_path, request_, monkeypatch):
    from repro.obs import NULL_TRACER
    from repro.service.server import _Ticket
    from repro.service.workers import KILL_GRACE_S

    server = make_server(tmp_path)
    handle_class = type(server.pool._all[0])
    sent = []
    real_run = handle_class.run

    def spy(self, wire, attempt, timeout):
        sent.append((wire.get("deadline_s"), timeout))
        return real_run(self, wire, attempt, timeout)

    monkeypatch.setattr(handle_class, "run", spy)
    wire = protocol.request_to_wire(request_.replace(deadline_s=10.0))
    fingerprint = request_.fingerprint()
    try:
        now = time.monotonic()
        # Admitted 9.8 s ago: 0.2 s of the client's 10 s are left.
        served = server._dispatch(
            _Ticket(wire, fingerprint, now - 9.8, now + 0.2), NULL_TRACER)
        assert served.disposition == "miss" and not served.result.degraded
        [(deadline_s, timeout)] = sent
        assert 0 < deadline_s <= 0.2
        assert timeout == pytest.approx(deadline_s + KILL_GRACE_S)
        # No time left: degraded at once, and never sent.
        start = time.monotonic()
        served = server._dispatch(
            _Ticket(wire, fingerprint, now - 10.5, now - 0.5), NULL_TRACER)
        assert time.monotonic() - start < 1.0
        assert served.disposition == "deadline" and served.result.degraded
        assert len(sent) == 1
        assert server.counters["degraded_deadline"] == 1
    finally:
        server.shutdown()


def test_queue_overflow_sheds_with_busy(tmp_path, request_):
    server = make_server(tmp_path, workers=1, queue_size=1)
    try:
        client = ServiceClient(server.endpoint)
        background = []
        # Occupy the single worker, then the one queue slot — each with a
        # distinct fingerprint so nothing deduplicates.
        def go(budget):
            background.append(client.submit(
                request_.replace(budget=budget), chaos={"sleep_s": 0.6}))
        threads = []
        for budget in (11_111, 22_222):
            t = threading.Thread(target=go, args=(budget,))
            t.start()
            threads.append(t)
            time.sleep(0.15)
        assert client.stats()["queue_depth"] == 1
        with pytest.raises(ServiceBusy, match="queue full"):
            client.submit(request_.replace(budget=44_444))
        assert client.stats()["shed"] == 1
        for t in threads:
            t.join(timeout=30)
        assert len(background) == 2  # the occupants all completed fine
    finally:
        server.shutdown()


def test_shutdown_drains_in_flight(tmp_path, request_):
    server = make_server(tmp_path)
    client = ServiceClient(server.endpoint)
    box = {}

    def go():
        box["result"] = client.submit(request_, chaos={"sleep_s": 0.5})

    t = threading.Thread(target=go)
    t.start()
    time.sleep(0.15)  # let it reach a worker
    server.shutdown(drain=True)
    t.join(timeout=30)
    assert not box["result"].degraded
    assert box["result"].cost > 0
    assert server.wait_stopped(0.0)


def test_shutdown_without_drain_sheds_waiting_requests(tmp_path, request_):
    server = make_server(tmp_path, workers=1)
    client = ServiceClient(server.endpoint)
    box = {}

    def stalled():
        box["stalled"] = client.submit(request_, chaos={"sleep_s": 0.8})

    def waiting():
        try:
            box["waiting"] = client.submit(request_.replace(budget=12_345))
        except ServiceBusy as exc:
            box["waiting"] = exc

    threads = [threading.Thread(target=stalled),
               threading.Thread(target=waiting)]
    for t in threads:
        t.start()
        time.sleep(0.15)
    assert server.stats()["queue_depth"] == 1
    server.shutdown(drain=False)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert isinstance(box["waiting"], ServiceBusy)
    assert "shutdown" in str(box["waiting"])
    assert not box["stalled"].degraded and box["stalled"].cost > 0


def test_requests_after_shutdown_get_busy(tmp_path, request_):
    server = make_server(tmp_path)
    client = ServiceClient(server.endpoint)
    # TCP keeps the port logic exercised too, but unix is the default here:
    # after shutdown the socket file is unlinked, so the client sees
    # "unreachable" rather than busy; test the stopping window instead.
    server._stopping = True
    with pytest.raises(ServiceBusy, match="shutdown"):
        client.submit(request_)
    server.shutdown()


def test_tcp_transport(tmp_path, request_):
    server = make_server(tmp_path, endpoint=Endpoint.tcp("127.0.0.1", 0))
    try:
        assert server.endpoint.scheme == "tcp" and server.endpoint.port
        with ServiceClient(server.endpoint) as client:
            result = client.submit(request_)
        assert result.cost > 0
    finally:
        server.shutdown()


def test_cache_hit_disposition(tmp_path, request_):
    from repro.core import ScheduleCache

    config = ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                          workers=1,
                          allow_chaos=True)
    server = InductionServer(config, cache=ScheduleCache())
    try:
        client = ServiceClient(server.endpoint)
        first = client.submit(request_)
        # A computed request asks the cache once.
        assert client.stats()["cache_misses"] == 1
        second = client.submit(request_)
        assert first.extras["disposition"] == "miss"
        assert second.extras["disposition"] == "cache"
        assert second.cache_hit
        assert second.cost == first.cost
        assert client.stats()["cache_hits"] == 1
    finally:
        server.shutdown()


def test_cache_stores_only_replies_a_hit_can_claim(tmp_path):
    # The search exhausts its budget, so the reply is unproven: greedy's
    # seed is above the root bound and 20 nodes reach no leaf of this
    # 35-slot optimum.  The entry is the reply itself, stats included, so
    # a hit replays it as unproven.
    pytest.importorskip("numpy")
    from repro.core import ScheduleCache
    from repro.workloads.threads import RandomRegionSpec, random_region

    region = random_region(
        RandomRegionSpec(num_threads=4, min_len=12, max_len=12), seed=3)
    request = InductionRequest(region=region, budget=20)
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=ScheduleCache())
    try:
        client = ServiceClient(server.endpoint)
        cold = client.submit(request)
        again = client.submit(request)
    finally:
        server.shutdown()
    assert not cold.optimal
    assert not again.optimal and again.cache_hit
    assert again.search_stats == cold.search_stats


VN_REGION = """
thread 0:
    a = ld x
    b = mul a #2
    c = mul b #4
thread 1:
    d = ld y
    e = shl d #1
    f = shl e #2
"""


#: Reply fields that belong to one request: all a served replay changes.
PER_HOP = {"cache_hit", "wall_s", "disposition", "queue_wait_s",
           "server_wall_s", "deduped", "retries"}


def _cold_and_repeat(tmp_path, request):
    """The cold reply to ``request`` and its served repeat."""
    from repro.core import ScheduleCache

    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=ScheduleCache())
    try:
        with ServiceClient(server.endpoint) as client:
            cold = client.submit(request)
            again = client.submit(request)
    finally:
        server.shutdown()
    assert not cold.cache_hit and again.cache_hit
    assert again.extras["disposition"] == "cache"
    assert again.extras["retries"] == 0
    return cold, again


def _result_fields(result):
    return ({k: v for k, v in result.as_dict(True).items()
             if k not in PER_HOP},
            {k: v for k, v in result.extras.items() if k not in PER_HOP})


@pytest.mark.parametrize("request_kind", ["one-shot", "greedy"])
def test_served_repeat_replays_the_cold_reply(tmp_path, request_kind):
    request = {
        "one-shot": InductionRequest(region=REGION, budget=10_000),
        "greedy": InductionRequest(region=REGION, method="greedy"),
    }[request_kind]
    cold, again = _cold_and_repeat(tmp_path, request)
    assert cold.optimal
    assert _result_fields(again) == _result_fields(cold)


def test_served_hit_rebuilds_nothing(tmp_path, count_calls):
    import repro.core.serial as serial_mod
    import repro.core.vn as vn_mod
    from repro.core import ScheduleCache

    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=ScheduleCache())
    request = InductionRequest(region=VN_REGION, vn="on")
    try:
        with ServiceClient(server.endpoint) as client:
            cold = client.submit(request)
            counts = count_calls(vn_mod.vn_prepass,
                                 serial_mod.serial_schedule,
                                 serial_mod.lockstep_schedule)
            again = client.submit(request)
    finally:
        server.shutdown()
    assert again.extras["disposition"] == "cache"
    assert counts == {}
    assert (again.serial_cost, again.lockstep_cost) == \
        (cold.serial_cost, cold.lockstep_cost)
    assert again.search_stats == cold.search_stats
    assert again.search_stats[0].vn_rewrites > 0


def test_peer_cache_ops_carry_checked_entries(tmp_path, request_):
    from repro.core import ScheduleCache

    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=ScheduleCache())
    fingerprint = request_.fingerprint()
    try:
        with ServiceClient(server.endpoint) as client:
            assert client.cache_get(fingerprint) is None
            client.submit(request_)
            entry = client.cache_get(fingerprint)
            assert entry["cost"] > 0 and "cache_hit" not in entry
            client.cache_put("f" * 64, entry)
            assert client.cache_get("f" * 64) == entry
            bad = {k: v for k, v in entry.items() if k != "cost"}
            reply = client._roundtrip({"op": "cache_put",
                                       "fingerprint": "e" * 64,
                                       "entry": bad})
            assert reply["status"] == "error"
            assert "bad cache_put payload" in reply["error"]
            assert client.cache_get("e" * 64) is None
            assert client.ping()  # the connection stays usable
    finally:
        server.shutdown()


def test_peer_cache_put_refuses_a_deadline_cut_entry(tmp_path, request_):
    from repro.core import ScheduleCache

    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=ScheduleCache())
    try:
        with ServiceClient(server.endpoint) as client:
            client.submit(request_)
            entry = client.cache_get(request_.fingerprint())
            cut = {**entry, "deadline_cut": True, "optimal": False,
                   "stats": [{**entry["stats"][0], "deadline_cut": True,
                              "optimal": False, "budget_exhausted": True}]}
            reply = client._roundtrip({"op": "cache_put",
                                       "fingerprint": "c" * 64,
                                       "entry": cut})
            assert reply["status"] == "error"
            assert "bad cache_put payload" in reply["error"]
            assert "deadline" in reply["error"]
            assert client.cache_get("c" * 64) is None
    finally:
        server.shutdown()


def test_malformed_region_is_an_error_not_a_crash(tmp_path, request_):
    from repro.service import protocol

    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        wire = protocol.request_to_wire(request_)
        wire["method"] = "magic"
        with protocol.connect(server.endpoint, timeout=10.0) as sock:
            protocol.send_message(sock, wire)
            reply = protocol.recv_message(sock)
        assert reply["status"] == "error"
        # The server survives and still answers.
        assert client.ping()
    finally:
        server.shutdown()


@pytest.mark.parametrize("field,value,names", [
    ("region", "thread 3:\n    a = ld x\n", "thread"),
    ("window", 4, "windowed induction was removed"),
], ids=["region", "window"])
def test_malformed_region_text_is_an_error_not_a_crash(tmp_path, request_,
                                                       field, value, names):
    from repro.service import protocol

    server = make_server(tmp_path)
    try:
        wire = protocol.request_to_wire(request_)
        wire[field] = value
        with protocol.connect(server.endpoint, timeout=10.0) as sock:
            protocol.send_message(sock, wire)
            reply = protocol.recv_message(sock)
            assert reply["status"] == "error"
            assert "bad submit payload" in reply["error"]
            assert names in reply["error"]
            # The same kept-alive connection still answers.
            protocol.send_message(sock, {"op": "ping"})
            assert protocol.recv_message(sock)["status"] == "pong"
    finally:
        server.shutdown()


def _series(text, name):
    for line in text.splitlines():
        parts = line.split(" # ")[0].split()
        if len(parts) == 2 and parts[0] == name:
            return float(parts[1])
    return 0.0


def test_cached_submit_is_answered_without_queueing(tmp_path, request_):
    from repro.core import ScheduleCache
    from repro.obs import FlightConfig, FlightRecorder, MemoryTracer

    tracer = MemoryTracer()
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        cache=ScheduleCache(), tracer=tracer,
        flightrec=FlightRecorder(FlightConfig(capture_all=True)))
    try:
        with ServiceClient(server.endpoint) as client:
            assert client.submit(request_).extras["disposition"] == "miss"
            before = client.stats()
            seconds = _series(client.metrics(),
                              "repro_service_request_seconds_count")
            searches = _series(client.metrics(),
                               "repro_service_worker_seconds_count")
            slo = server.slo.status()["requests_total"]
            digests = server.flightrec.counts()["considered"]
            spans_before = len(tracer.events)
            hit = client.submit(request_)
            after = client.stats()
            metrics = client.metrics()
            assert _series(metrics, "repro_service_request_seconds_count") \
                == seconds + 1
            assert _series(metrics, "repro_service_worker_seconds_count") \
                == searches == 1
    finally:
        server.shutdown()
    assert hit.extras["disposition"] == "cache"
    assert hit.extras["queue_wait_s"] == 0.0
    assert hit.cache_hit and not hit.degraded
    for key in ("requests", "ok", "cache_hits"):
        assert after[key] == before.get(key, 0) + 1, key
    assert after["cache_misses"] == before["cache_misses"]
    assert server.slo.status()["requests_total"] == slo + 1
    assert server.flightrec.counts()["considered"] == digests + 1
    # A cached request's trace is one lone service.request span.
    spans = [e for e in tracer.events[spans_before:] if e["kind"] == "span"]
    assert [e["name"] for e in spans] == ["service.request"]
    assert spans[0]["disposition"] == "cache"


def test_cache_hit_does_not_wait_behind_busy_workers(tmp_path, request_):
    from repro.core import ScheduleCache

    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1,
                     allow_chaos=True), cache=ScheduleCache())
    try:
        client = ServiceClient(server.endpoint)
        client.submit(request_)
        # Occupy the only worker with a slow, distinct request.
        slow = threading.Thread(target=client.submit, args=(
            request_.replace(budget=12_345),), kwargs={
            "chaos": {"sleep_s": 1.5}})
        slow.start()
        time.sleep(0.2)
        start = time.monotonic()
        hit = client.submit(request_)
        assert time.monotonic() - start < 1.0
        assert hit.extras["disposition"] == "cache"
        slow.join(timeout=30)
    finally:
        server.shutdown()


def test_stats_gauges_and_percentiles(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        client.submit(request_)
        stats = client.stats()
        assert stats["uptime_s"] > 0
        assert stats["open_tickets"] == 0
        assert stats["trace_events"] == 0          # no tracer configured
        assert stats["service_request_seconds_p99"] > 0
        assert stats["service_queue_wait_seconds_p50"] >= 0
    finally:
        server.shutdown()


def test_metrics_op_returns_prometheus_text(tmp_path, request_):
    server = make_server(tmp_path)
    try:
        client = ServiceClient(server.endpoint)
        client.submit(request_)
        client.submit(request_)
        text = client.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 2" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert 'repro_service_request_seconds_bucket{le="+Inf"} 2' in text
        p99 = [line for line in text.splitlines()
               if line.startswith("repro_service_request_seconds_p99 ")]
        assert p99 and float(p99[0].split()[1]) > 0
        # Every line is "# ..." or "name value", optionally followed by an
        # OpenMetrics exemplar — the scrapable contract.
        for line in text.strip().splitlines():
            sample = line.split(" # ")[0]
            assert line.startswith("# ") or len(sample.split()) == 2
        # Bucket-max observations carry their trace id as an exemplar.
        exemplars = [line for line in text.splitlines()
                     if ' # {trace_id="' in line]
        assert exemplars, "expected at least one histogram exemplar"
        trace_id = exemplars[0].split('trace_id="')[1].split('"')[0]
        assert len(trace_id) == 32 and set(trace_id) <= set("0123456789abcdef")
    finally:
        server.shutdown()


def test_service_round_trip_is_one_stitched_trace(tmp_path, request_):
    from repro.obs import MemoryTracer, build_traces

    tracer = MemoryTracer()
    server = InductionServer(
        ServerConfig(endpoint=Endpoint.unix(str(tmp_path / "svc.sock")),
                     workers=1),
        tracer=tracer)
    try:
        with ServiceClient(server.endpoint) as client:
            assert not client.submit(request_).degraded
    finally:
        server.shutdown()

    spans = [e for e in tracer.events if e["kind"] == "span"]
    assert len({e["trace"] for e in spans}) == 1
    (tree,) = build_traces(spans)
    assert [r.name for r in tree.roots] == ["service.request"]
    (dispatch,) = tree.roots[0].children
    assert dispatch.name == "service.dispatch"
    names = {n.name for n in tree._walk()}
    # Worker-process spans made it back with links intact (unless the
    # environment forced the inline pool, where they are still present).
    assert {"service.request", "service.dispatch",
            "worker.execute", "induce"} <= names
