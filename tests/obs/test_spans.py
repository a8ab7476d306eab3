"""Tests for hierarchical spans: nesting, propagation, cross-process stitching."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs import (
    MemoryTracer,
    NULL_TRACER,
    attach_context,
    build_traces,
    current_context,
    replay_events,
    span,
)

class TestSpanBasics:
    def test_nested_spans_share_trace_and_link_parent(self):
        tracer = MemoryTracer()
        with span("outer", tracer) as outer:
            with span("inner", tracer) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        inner_ev, outer_ev = tracer.events  # inner closes (emits) first
        assert inner_ev["name"] == "inner" and outer_ev["name"] == "outer"
        assert inner_ev["parent"] == outer_ev["span"]
        assert outer_ev["parent"] is None
        assert outer_ev["wall_s"] >= inner_ev["wall_s"]

    def test_ids_propagate_without_tracer(self):
        with span("quiet") as outer:
            ctx = current_context()
            assert ctx == {"trace": outer.trace_id, "span": outer.span_id}
        assert current_context() is None

    def test_disabled_tracer_emits_nothing(self):
        with span("quiet", NULL_TRACER):
            pass  # must not raise; NULL_TRACER counts nothing

    def test_attrs_via_kwargs_and_set(self):
        tracer = MemoryTracer()
        with span("work", tracer, method="search") as live:
            live.set(cost=3.0)
        (event,) = tracer.events
        assert event["method"] == "search" and event["cost"] == 3.0

    def test_span_emitted_even_when_body_raises(self):
        tracer = MemoryTracer()
        with pytest.raises(RuntimeError):
            with span("doomed", tracer):
                raise RuntimeError("boom")
        assert [e["name"] for e in tracer.events] == ["doomed"]
        assert current_context() is None


class TestContextPropagation:
    def test_attach_context_adopts_remote_parent(self):
        tracer = MemoryTracer()
        remote = {"trace": "t" * 32, "span": "s" * 16}
        with attach_context(remote):
            with span("child", tracer):
                pass
        (event,) = tracer.events
        assert event["trace"] == remote["trace"]
        assert event["parent"] == remote["span"]

    @pytest.mark.parametrize("bad", [None, {}, {"trace": "only"}])
    def test_malformed_context_is_noop(self, bad):
        tracer = MemoryTracer()
        with attach_context(bad):
            with span("root", tracer):
                pass
        (event,) = tracer.events
        assert event["parent"] is None

    def test_replay_events_preserves_ids(self):
        recorder = MemoryTracer()
        with span("worker.phase", recorder, pid=123):
            pass
        sink = MemoryTracer()
        assert replay_events(recorder.events, sink) == 1
        assert sink.events[0]["span"] == recorder.events[0]["span"]
        assert sink.events[0]["pid"] == 123

    def test_replay_into_disabled_tracer_skips(self):
        recorder = MemoryTracer()
        with span("x", recorder):
            pass
        assert replay_events(recorder.events, NULL_TRACER) == 0


def _child_span_events(ctx):
    """Top-level so ProcessPoolExecutor can pickle it."""
    recorder = MemoryTracer()
    with attach_context(ctx):
        with span("child.work", recorder):
            pass
    return recorder.events


class TestCrossProcess:
    def test_context_survives_a_process_pool(self):
        tracer = MemoryTracer()
        with span("parent", tracer) as parent:
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    events = pool.submit(_child_span_events,
                                         current_context()).result()
            except (OSError, PermissionError, RuntimeError):
                pytest.skip("process pools unavailable in this environment")
            replay_events(events, tracer)
        spans = tracer.events
        assert {e["trace"] for e in spans} == {parent.trace_id}
        child = next(e for e in spans if e["name"] == "child.work")
        assert child["parent"] == parent.span_id


class TestTraceTrees:
    def test_orphan_spans_become_roots(self):
        events = [
            {"kind": "span", "trace": "t1", "span": "a", "parent": None,
             "name": "root", "start_s": 0.0, "wall_s": 1.0},
            {"kind": "span", "trace": "t1", "span": "b", "parent": "missing",
             "name": "orphan", "start_s": 0.5, "wall_s": 0.1},
        ]
        (tree,) = build_traces(events)
        assert sorted(r.name for r in tree.roots) == ["orphan", "root"]

    def test_self_time_excludes_children_and_clamps(self):
        events = [
            {"kind": "span", "trace": "t", "span": "a", "parent": None,
             "name": "root", "start_s": 0.0, "wall_s": 1.0},
            {"kind": "span", "trace": "t", "span": "b", "parent": "a",
             "name": "kid", "start_s": 0.1, "wall_s": 0.7},
            {"kind": "span", "trace": "t", "span": "c", "parent": "b",
             "name": "grandkid", "start_s": 0.1, "wall_s": 0.9},
        ]
        (tree,) = build_traces(events)
        (root,) = tree.roots
        assert root.self_s == pytest.approx(0.3)
        (kid,) = root.children
        assert kid.self_s == 0.0  # child reports longer than parent: clamped


class TestTeeTracer:
    def test_fans_out_to_every_enabled_sink(self):
        from repro.obs import TeeTracer

        a, b = MemoryTracer(), MemoryTracer()
        tee = TeeTracer(a, b)
        assert tee.enabled
        with span("work", tee):
            pass
        assert len(a.events) == len(b.events) == 1
        assert a.events[0]["trace"] == b.events[0]["trace"]
        assert tee.events_written == 2

    def test_disabled_and_none_sinks_are_skipped(self):
        from repro.obs import TeeTracer

        live = MemoryTracer()
        tee = TeeTracer(NULL_TRACER, None, live)
        assert tee.enabled   # one live sink is enough
        with span("work", tee):
            pass
        assert len(live.events) == 1

    def test_all_dead_sinks_disable_the_tee(self):
        from repro.obs import TeeTracer

        tee = TeeTracer(NULL_TRACER)
        assert not tee.enabled
        with span("work", tee) as s:
            assert s.trace_id   # ids still flow for propagation
