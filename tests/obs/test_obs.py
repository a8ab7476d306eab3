"""Tests for the observability package (timers, counters, tracers, summary)."""

import json
import time

import pytest

from repro.obs import (
    Counters,
    JsonlTracer,
    MemoryTracer,
    NULL_TRACER,
    StopWatch,
    render_trace_summary,
    summarize_trace,
    timed,
)


class TestStopWatch:
    def test_accumulates_and_is_monotonic(self):
        watch = StopWatch().start()
        time.sleep(0.01)
        first = watch.elapsed
        assert first > 0
        total = watch.stop()
        assert total >= first
        assert watch.elapsed == total          # frozen once stopped

    def test_restart_accumulates(self):
        watch = StopWatch()
        watch.start(); watch.stop()
        before = watch.elapsed
        watch.start()
        total = watch.stop()
        assert total >= before

    def test_double_start_and_stop_rejected(self):
        watch = StopWatch().start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()
        with pytest.raises(RuntimeError):
            watch.stop()

    def test_reset(self):
        watch = StopWatch().start()
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0 and not watch.running

    def test_timed_context_manager(self):
        with timed() as watch:
            time.sleep(0.005)
        assert watch.elapsed >= 0.004
        assert not watch.running


class TestCounters:
    def test_bump_and_default_zero(self):
        counters = Counters()
        assert counters["anything"] == 0
        assert counters.bump("hits") == 1
        assert counters.bump("hits", 2) == 3
        assert counters["hits"] == 3

    def test_snapshot_sorted_and_detached(self):
        counters = Counters()
        counters.bump("z"); counters.bump("a")
        snap = counters.snapshot()
        assert list(snap) == ["a", "z"]
        snap["a"] = 99
        assert counters["a"] == 1


class TestTracers:
    def test_null_tracer_is_disabled_noop(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit("anything", x=1)  # must not raise
        NULL_TRACER.close()

    def test_memory_tracer_collects_and_filters(self):
        tracer = MemoryTracer()
        tracer.emit("a", x=1)
        tracer.emit("b", y=2)
        tracer.emit("a", x=3)
        assert [e["x"] for e in tracer.of_kind("a")] == [1, 3]
        assert tracer.events[0]["ts"] <= tracer.events[-1]["ts"]

    def test_jsonl_tracer_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("induce", cost=3.5, optimal=True, method="search")
            tracer.emit("span", name="induce", wall_s=0.5)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "induce" and first["cost"] == 3.5
        assert first["optimal"] is True and "ts" in first
        assert tracer.events_written == 2

    def test_jsonl_tracer_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("a")
        with JsonlTracer(path) as tracer:
            tracer.emit("b")
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds == ["a", "b"]

    def test_emit_after_close_rejected(self, tmp_path):
        tracer = JsonlTracer(tmp_path / "t.jsonl")
        tracer.close()
        with pytest.raises(ValueError):
            tracer.emit("late")

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("a")
        assert path.exists()


class TestSummary:
    def make_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit("induce", method="search", nodes=100, wall_s=0.25,
                        cache="miss", budget_exhausted=True, cost=10.0)
            tracer.emit("induce", method="search", nodes=0, wall_s=0.001,
                        cache="hit", budget_exhausted=False, cost=10.0)
            # The first request's span repeats its cache label and wall time.
            tracer.emit("span", trace="t1", span="s1", parent=None,
                        name="induce", start_s=0.0, wall_s=0.25,
                        method="search", cache="miss", cost=10.0)
        return path

    def test_aggregates_by_kind(self, tmp_path):
        summary = summarize_trace(self.make_trace(tmp_path))
        assert summary.events == 3
        assert set(summary.kinds) == {"induce", "span"}
        induce = summary.kind("induce")
        assert induce.count == 2
        assert induce.sums["nodes"] == 100
        assert induce.mean("cost") == pytest.approx(10.0)
        assert induce.labels["cache"] == {"miss": 1, "hit": 1}

    def test_headline_metrics_exclude_spans(self, tmp_path):
        summary = summarize_trace(self.make_trace(tmp_path))
        assert summary.total_nodes == 100
        assert summary.total_wall_s == pytest.approx(0.251)  # not 0.501
        assert summary.budget_exhaustions == 1
        assert summary.cache_hits == 1 and summary.cache_misses == 1
        assert summary.cache_hit_rate == pytest.approx(0.5)

    def test_cache_hits_add_no_search_counters(self, tmp_path):
        # A hit's event carries the stored entry's counters, but no search
        # ran: a cold run then a warm one expanded the cold run's nodes.
        path = tmp_path / "pair.jsonl"
        with JsonlTracer(path) as tracer:
            for cache in ("miss", "hit"):
                tracer.emit("induce", method="search", nodes=7,
                            budget_exhausted=True, cache=cache, wall_s=0.1)
        summary = summarize_trace(path)
        assert summary.total_nodes == 7
        assert summary.budget_exhaustions == 1
        assert summary.kind("induce").sums["nodes"] == 14

    def test_malformed_lines_tolerated(self, tmp_path):
        path = self.make_trace(tmp_path)
        with open(path, "a") as fh:
            fh.write("{ not json\n\n[1, 2]\n")
        summary = summarize_trace(path)
        assert summary.events == 3
        assert summary.malformed_lines == 2       # blank line is skipped silently

    def test_render_mentions_key_metrics(self, tmp_path):
        summary = summarize_trace(self.make_trace(tmp_path))
        text = render_trace_summary(summary)
        assert "trace summary" in text
        assert "cache hit rate" in text and "50.0%" in text
        assert "induce: 2 events" in text
        assert "nodes" in text

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_trace(path)
        assert summary.events == 0
        assert summary.cache_hit_rate == 0.0
        assert "events" in render_trace_summary(summary)
