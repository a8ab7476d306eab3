"""Tests for the metrics registry: histograms, replay, Prometheus text."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsLog,
    MetricsRegistry,
    get_registry,
    render_prometheus,
    use_registry,
)


class TestHistogramPercentiles:
    def test_empty_histogram_reports_zero(self):
        h = Histogram((1.0, 2.0, 4.0))
        assert h.percentile(0.50) == 0.0
        assert h.percentile(0.99) == 0.0
        summary = h.summary()
        assert summary["count"] == 0 and summary["sum"] == 0.0
        assert summary["min"] == 0.0 and summary["max"] == 0.0

    def test_single_sample_is_every_percentile(self):
        h = Histogram((1.0, 2.0, 4.0))
        h.observe(1.7)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == pytest.approx(1.7)

    def test_sample_above_largest_bucket_reports_true_max(self):
        h = Histogram((1.0, 2.0, 4.0, 8.0))
        h.observe(3.0)
        h.observe(100.0)  # lands in the +Inf overflow bucket
        assert h.percentile(0.99) == pytest.approx(100.0)
        assert h.summary()["max"] == pytest.approx(100.0)

    def test_percentiles_clamped_to_observed_range(self):
        h = Histogram((10.0, 20.0))
        h.observe(12.0)
        h.observe(13.0)
        # Interpolation inside (10, 20] would undershoot/overshoot the
        # observed range without the min/max clamp.
        assert 12.0 <= h.percentile(0.01) <= 13.0
        assert 12.0 <= h.percentile(0.99) <= 13.0

    def test_interpolated_median_orders_samples(self):
        h = Histogram((0.001, 0.01, 0.1, 1.0))
        for v in (0.002, 0.003, 0.2, 0.3, 0.4):
            h.observe(v)
        assert h.percentile(0.10) < h.percentile(0.90)
        assert h.percentile(1.0) == pytest.approx(0.4)

    def test_rejects_bad_quantile_and_empty_buckets(self):
        with pytest.raises(ValueError):
            Histogram(())
        h = Histogram((1.0,))
        with pytest.raises(ValueError):
            h.percentile(1.5)


class TestHistogramMerge:
    """A worker's observations fold into the serving process's histogram
    by replay (:meth:`MetricsRegistry.replay`)."""

    def test_replay_accumulates(self):
        parent = MetricsRegistry()
        parent.observe("lat", 0.5, buckets=(1.0, 2.0))
        worker = MetricsLog()
        worker.observe("lat", 1.5, buckets=(1.0, 2.0))
        worker.observe("lat", 9.0, buckets=(1.0, 2.0))
        parent.replay(worker.calls)
        hist = parent.histogram("lat")
        assert hist.bounds == (1.0, 2.0)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.summary()["max"] == pytest.approx(9.0)
        assert hist.summary()["min"] == pytest.approx(0.5)
        assert hist.summary()["sum"] == pytest.approx(11.0)

    def test_snapshot_is_jsonable_and_detached(self):
        import json
        h = Histogram((1.0,))
        h.observe(0.5)
        snap = h.snapshot()
        json.dumps(snap)  # must not raise
        snap["counts"][0] = 99
        assert h.counts[0] == 1


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("requests")
        reg.inc("requests", 2)
        reg.set_gauge("queue_depth", 7)
        reg.observe("latency_seconds", 0.02)
        assert reg.counters["requests"] == 3
        assert reg.gauges["queue_depth"] == 7
        assert reg.histogram("latency_seconds").count == 1

    def test_time_context_manager_observes(self):
        reg = MetricsRegistry()
        with reg.time("phase_seconds"):
            pass
        assert reg.histogram("phase_seconds").count == 1

    def test_percentiles_skips_empty_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("never_observed")
        reg.observe("seen", 0.5)
        keys = reg.percentiles()
        assert "seen_p99" in keys and "never_observed_p99" not in keys

    def test_log_replay_round_trip(self):
        worker = MetricsLog()
        with use_registry(worker):
            get_registry().inc("searches", 2)
            get_registry().observe("search_seconds", 0.1)
            get_registry().set_gauge("depth", 4)
        # Plain tuples: they cross a process pipe as they are.
        assert all(type(call) is tuple for call in worker.calls)
        parent = MetricsRegistry()
        parent.inc("searches", 1)
        parent.replay(worker.calls)
        assert parent.counters["searches"] == 3
        assert parent.gauges["depth"] == 4
        assert parent.histogram("search_seconds").count == 1

    def test_replay_accumulates_counters(self):
        parent = MetricsRegistry()
        parent.inc("hits", 2)
        worker = MetricsLog()
        worker.inc("hits")
        worker.inc("misses", 4)
        parent.replay(worker.calls)
        assert parent.counters.snapshot() == {"hits": 3, "misses": 4}
        parent.replay([("inc", "hits", 1)])
        assert parent.counters["hits"] == 4

    def test_replay_applies_only_recording_calls(self):
        parent = MetricsRegistry()
        with pytest.raises(KeyError):
            parent.replay([("time", "phase_seconds")])

    def test_use_registry_scopes_get_registry(self):
        scoped = MetricsRegistry()
        default = get_registry()
        with use_registry(scoped):
            assert get_registry() is scoped
            get_registry().inc("inside")
        assert get_registry() is default
        assert scoped.counters["inside"] == 1

    def test_use_registry_is_thread_local(self):
        scoped = MetricsRegistry()
        seen = []

        def other_thread():
            seen.append(get_registry() is scoped)

        with use_registry(scoped):
            t = threading.Thread(target=other_thread)
            t.start()
            t.join()
        assert seen == [False]  # contextvars do not leak across threads


class TestRenderPrometheus:
    def test_counter_gauge_histogram_series(self):
        reg = MetricsRegistry()
        reg.inc("requests", 3)
        reg.set_gauge("queue_depth", 2)
        reg.observe("batch_size", 3, buckets=DEFAULT_SIZE_BUCKETS)
        text = render_prometheus(reg)
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_batch_size histogram" in text
        assert 'repro_batch_size_bucket{le="4"} 1' in text
        assert 'repro_batch_size_bucket{le="+Inf"} 1' in text
        assert "repro_batch_size_sum 3" in text
        assert "repro_batch_size_count 1" in text
        assert "repro_batch_size_p99" in text

    def test_bucket_counts_are_cumulative(self):
        reg = MetricsRegistry()
        for v in (1, 2, 4, 200):
            reg.observe("sizes", v, buckets=DEFAULT_SIZE_BUCKETS)
        text = render_prometheus(reg)
        assert 'repro_sizes_bucket{le="2"} 2' in text
        assert 'repro_sizes_bucket{le="128"} 3' in text
        assert 'repro_sizes_bucket{le="+Inf"} 4' in text

    def test_extras_fold_in_with_type_split(self):
        reg = MetricsRegistry()
        text = render_prometheus(reg, extra_counters={"hits": 5},
                                 extra_gauges={"uptime_s": 1.25})
        assert "repro_hits_total 5" in text
        assert "repro_uptime_s 1.25" in text
        assert "# TYPE repro_uptime_s gauge" in text

    def test_names_sanitized(self):
        reg = MetricsRegistry()
        reg.inc("cache.hit-rate")
        text = render_prometheus(reg)
        assert "repro_cache_hit_rate_total 1" in text


class TestExemplars:
    def test_bucket_max_observation_is_retained(self):
        h = Histogram((1.0, 2.0))
        h.observe(0.5, trace_id="aa" * 16)
        h.observe(0.8, trace_id="bb" * 16)   # same bucket, larger value
        h.observe(0.6, trace_id="cc" * 16)   # same bucket, smaller: kept out
        assert h.exemplars[0] == ("bb" * 16, 0.8)

    def test_observe_without_trace_id_records_no_exemplar(self):
        h = Histogram((1.0,))
        h.observe(0.5)
        assert h.exemplars == {}

    def test_exemplars_survive_replay(self):
        worker = MetricsLog()
        worker.observe("lat", 1.5, buckets=(1.0, 2.0), trace_id="ww" * 16)
        worker.observe("lat", 1.1, buckets=(1.0, 2.0), trace_id="vv" * 16)
        parent = MetricsRegistry()
        parent.observe("lat", 1.2, buckets=(1.0, 2.0), trace_id="pp" * 16)
        parent.replay(worker.calls)
        # Max wins per bucket across the replay.
        assert parent.histogram("lat").exemplars[1] == ("ww" * 16, 1.5)
        parent.replay(MetricsLog().calls)  # an empty replay keeps it
        parent.replay([("observe", "lat", 1.3, None, None)])  # untraced
        assert parent.histogram("lat").exemplars[1] == ("ww" * 16, 1.5)

    def test_overflow_bucket_exemplar(self):
        h = Histogram((1.0,))
        h.observe(50.0, trace_id="ff" * 16)
        assert h.exemplars[1] == ("ff" * 16, 50.0)  # index len(bounds) = +Inf

    def test_rendered_as_openmetrics_suffix(self):
        reg = MetricsRegistry()
        reg.observe("latency_seconds", 0.5, trace_id="ab" * 16)
        text = render_prometheus(reg)
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_latency_seconds_bucket")]
        exemplar_lines = [l for l in lines if ' # {trace_id="' in l]
        assert len(exemplar_lines) == 1
        assert f'trace_id="{"ab" * 16}"' in exemplar_lines[0]
        # The sample before the exemplar marker still parses as name value.
        assert len(exemplar_lines[0].split(" # ")[0].split()) == 2

    def test_registry_observe_forwards_trace_id(self):
        reg = MetricsRegistry()
        reg.observe("x_seconds", 0.1, trace_id="dd" * 16)
        assert reg.histogram("x_seconds").exemplars


class TestSplitStats:
    def test_percentiles_and_named_gauges_split_off(self):
        from repro.obs.metrics import split_stats

        counters, gauges = split_stats(
            {"requests": 8.0, "uptime_s": 3.0, "lat_p99": 0.5,
             "lat_p50": 0.1, "slo_healthy": 1.0, "slo_latency_burn_60s": 0.2},
            gauge_names={"uptime_s"})
        assert counters == {"requests": 8.0}
        assert gauges == {"uptime_s": 3.0, "slo_healthy": 1.0,
                          "slo_latency_burn_60s": 0.2}
