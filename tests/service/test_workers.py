"""Tests for the supervised worker pool and the deadline routes."""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.core import maspar_cost_model, verify_schedule
from repro.service import protocol
from repro.service.workers import (
    DeadlineExpired, RetriesExhausted, WorkerPool, WorkerTaskError,
    _execute_wire, degraded_result,
)
from repro.workloads.threads import RandomRegionSpec, random_region

REGION = """
thread 0:
    a = ld x
    b = mul a a
thread 1:
    c = ld x
    d = mul c c
"""

#: Empirically slow search (budget-exhausting at 400k nodes, >10s): enough
#: threads and only moderate overlap, so branch-and-bound has no easy cuts.
SLOW_SPEC = RandomRegionSpec(num_threads=8, min_len=10, max_len=10,
                             vocab_size=12, overlap=0.4, private_vocab=False)


def wire_for(region=REGION, chaos=None, **kwargs):
    request = api.InductionRequest(region=region, **kwargs)
    return protocol.request_to_wire(request, chaos=chaos)


class TestWorkerPool:
    def test_runs_a_task(self):
        pool = WorkerPool(workers=1)
        try:
            result, meta = pool.run(wire_for(budget=10_000))
            assert protocol.decode_result(result)["cost"] > 0
            assert meta["worker_deaths"] == 0
        finally:
            pool.close()

    def test_retries_after_crash_with_backoff(self):
        pool = WorkerPool(workers=1, max_retries=2, backoff_s=0.01)
        try:
            result, meta = pool.run(
                wire_for(budget=10_000, chaos={"crash_attempts": 2}))
            assert protocol.decode_result(result)["cost"] > 0
            assert meta["retries"] == 2
            assert meta["worker_deaths"] == 2
            assert pool.counters.snapshot()["worker_respawns"] == 2
        finally:
            pool.close()

    def test_retries_exhausted(self):
        pool = WorkerPool(workers=1, max_retries=1, backoff_s=0.01)
        try:
            with pytest.raises(RetriesExhausted):
                pool.run(wire_for(budget=10_000, chaos={"crash_attempts": 99}))
        finally:
            pool.close()

    def test_deadline_kills_stalled_worker(self):
        pool = WorkerPool(workers=1)
        try:
            start = time.monotonic()
            with pytest.raises(DeadlineExpired):
                pool.run(wire_for(budget=10_000, chaos={"sleep_s": 10.0}),
                         deadline=time.monotonic() + 0.2)
            assert time.monotonic() - start < 5.0
            # The respawned worker is healthy afterwards.
            result, _ = pool.run(wire_for(budget=10_000))
            assert protocol.decode_result(result)["cost"] > 0
        finally:
            pool.close()

    def test_task_error_is_not_retried(self):
        pool = WorkerPool(workers=1, max_retries=3)
        try:
            wire = wire_for(budget=10_000)
            wire["region"] = "this is not a region"
            with pytest.raises(WorkerTaskError):
                pool.run(wire)
        finally:
            pool.close()

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(max_retries=-1)


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # "pid (comm) state ppid ...": comm may itself hold spaces or parens.
    return text.rsplit(")", 1)[1].split()


def _children(pid: int) -> set[int]:
    kids = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None and int(fields[1]) == pid:
                kids.add(int(entry))
    return kids


def _running(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to find worker processes")
def test_workers_exit_when_the_server_is_sigkilled(tmp_path):
    """A SIGKILLed ``repro serve`` must not leave its workers running: each
    worker closes its inherited copy of the supervisor's pipe end, so the
    supervisor's death is EOF on every worker's pipe."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "2",
         "--socket", f"unix://{tmp_path / 'svc.sock'}"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        assert "listening" in server.stdout.readline()
        deadline = time.monotonic() + 10.0
        workers = _children(server.pid)
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(server.pid)
        assert len(workers) >= 2, workers
    finally:
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=10)
        server.stdout.close()
    deadline = time.monotonic() + 5.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = sorted(pid for pid in workers if _running(pid))
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors, f"workers outlived their SIGKILLed server: {survivors}"


class TestDegradedResult:
    def test_is_verified_greedy_and_flagged(self):
        request = api.InductionRequest(region=REGION)
        result = degraded_result(request, wall_s=1.23)
        assert result.degraded
        assert result.method == "greedy"
        assert result.optimal is False
        assert result.wall_s == 1.23
        verify_schedule(result.schedule, request.resolved_region(),
                        maspar_cost_model())

    def test_explicit_zero_wall_is_reported_verbatim(self):
        # Regression: ``wall_s or res.wall_s`` treated an explicit 0.0 as
        # "not given" and silently substituted the fallback's build time.
        request = api.InductionRequest(region=REGION)
        result = degraded_result(request, wall_s=0.0)
        assert result.wall_s == 0.0

    def test_omitted_wall_uses_fallback_build_time(self):
        request = api.InductionRequest(region=REGION)
        result = degraded_result(request)
        assert result.wall_s > 0.0


class TestLocalDeadlineRoute:
    """A local request with a deadline runs in process, like any other."""

    def test_fast_search_beats_deadline(self):
        from repro.obs import MemoryTracer

        tracer = MemoryTracer()
        request = api.InductionRequest(region=REGION, budget=10_000,
                                       deadline_s=60.0, tracer=tracer)
        result = api.induce(request)
        assert not result.degraded and not result.deadline_cut
        assert result.optimal and result.cost > 0
        # The run's own record, with no worker in between.
        assert [e["kind"] for e in tracer.events].count("induce") == 1
        assert not any(e.get("name") == "worker.execute"
                       for e in tracer.events)

    def test_malformed_text_is_a_local_value_error(self):
        # Only the served client sends text unparsed; a local call still
        # refuses malformed text itself.
        request = api.InductionRequest(region="thread 3:\n    a = ld x\n",
                                       deadline_s=60.0)
        with pytest.raises(ValueError, match="thread"):
            api.induce(request)

    def test_slow_search_is_cut_at_its_deadline(self):
        from repro.core import ScheduleCache

        region = random_region(SLOW_SPEC, seed=5)
        cache = ScheduleCache()
        request = api.InductionRequest(region=region, budget=50_000_000,
                                       deadline_s=0.5, cache=cache)
        start = time.monotonic()
        result = api.induce(request)
        elapsed = time.monotonic() - start
        # The search's checked incumbent, not the degraded greedy one.
        assert not result.degraded
        assert result.method == "search"
        assert result.deadline_cut and not result.optimal
        assert result.stats.nodes_expanded > 0
        assert elapsed < 1.5  # cut at the deadline, not 50M nodes later
        verify_schedule(result.schedule, region, request.resolved_model())
        # Never stored, so a repeat without a deadline cannot hit it.
        assert len(cache) == 0 and cache.get(request.fingerprint()) is None
        again = api.induce(request.replace(deadline_s=0.1))
        assert not again.cache_hit and again.deadline_cut

    def test_cache_hit_answers_before_the_search(self, tmp_path):
        from repro.core import ScheduleCache

        cache = ScheduleCache(cache_dir=str(tmp_path / "cache"))
        request = api.InductionRequest(region=REGION, budget=10_000,
                                       deadline_s=60.0, cache=cache)
        first = api.induce(request)
        second = api.induce(request)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.cost == first.cost
        assert second.serial_cost == first.serial_cost

    def test_cache_skips_a_reply_a_hit_would_overclaim(self):
        # The search exhausts its budget, so the reply is unproven:
        # greedy's seed is above the root bound and 20 nodes reach no leaf
        # of this 35-slot optimum.  The entry is the reply itself, so a
        # hit replays it as unproven.
        from repro.core import ScheduleCache

        region = random_region(
            RandomRegionSpec(num_threads=4, min_len=12, max_len=12), seed=3)
        request = api.InductionRequest(region=region, budget=20,
                                       deadline_s=60.0, cache=ScheduleCache())
        cold = api.induce(request)
        again = api.induce(request)
        assert not cold.optimal
        assert not again.optimal and again.cache_hit
        assert again.search_stats == cold.search_stats


class TestDeadlineWire:
    def test_execute_wire_keeps_the_deadline(self):
        region = random_region(SLOW_SPEC, seed=5)
        wire = wire_for(region=region, budget=50_000_000, deadline_s=0.3)
        start = time.monotonic()
        payload = protocol.decode_result(_execute_wire(wire))
        assert time.monotonic() - start < 1.5
        assert not payload["degraded"]
        assert payload["deadline_cut"] and not payload["optimal"]
