"""Metrics primitives: labeled counters, gauges, histograms, the registry."""

import pytest

from repro.metrics.stats import percentiles
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_label_sets_accumulate_independently(self):
        counter = Counter("bytes_moved")
        counter.inc(100, link="node-0")
        counter.inc(50, link="node-0")
        counter.inc(7, link="node-1")
        assert counter.value(link="node-0") == 150
        assert counter.value(link="node-1") == 7
        assert counter.value(link="node-9") == 0.0
        assert sum(counter.snapshot().values()) == 157

    def test_rejects_negative_increments(self):
        counter = Counter("evictions")
        with pytest.raises(ValueError, match="non-negative"):
            counter.inc(-1)

    def test_snapshot_renders_label_strings(self):
        counter = Counter("requests")
        counter.inc(3, path="kv")
        counter.inc()
        assert counter.snapshot() == {"": 1.0, "path=kv": 3.0}


class TestGauge:
    def test_tracks_last_min_max_and_samples(self):
        gauge = Gauge("queue_depth")
        for depth in (2, 5, 1):
            gauge.set(depth, gpu="gpu")
        assert gauge.snapshot()["gpu=gpu"]["last"] == 1
        assert gauge.max(gpu="gpu") == 5
        entry = gauge.snapshot()["gpu=gpu"]
        assert entry["min"] == 1 and entry["samples"] == 3

    def test_max_keeps_the_peak_after_the_level_falls(self):
        gauge = Gauge("queue_depth")
        gauge.set(7)
        gauge.set(-2)
        assert gauge.max() == 7
        assert gauge.snapshot()[""] == {"last": -2.0, "min": -2.0, "max": 7.0, "samples": 2}

    def test_unset_label_reads_zero(self):
        gauge = Gauge("queue_depth")
        assert gauge.max(gpu="other") == 0.0


class TestHistogram:
    def test_summary_uses_the_shared_percentile_helper(self):
        histogram = Histogram("ttft_s", qs=(50.0, 99.0))
        samples = [0.1, 0.5, 0.9, 0.2, 0.4]
        for value in samples:
            histogram.observe(value)
        summary = histogram.summary()
        p50, p99 = percentiles(samples, (50.0, 99.0))
        assert summary["p50"] == p50
        assert summary["p99"] == p99
        assert summary["count"] == 5
        assert summary["max"] == 0.9

    def test_label_sets_summarize_independently(self):
        histogram = Histogram("ttft_s")
        for value in (1.0, 3.0):
            histogram.observe(value, path="kv")
        histogram.observe(10.0, path="text")
        assert histogram.summary(path="kv")["mean"] == 2.0
        assert histogram.summary(path="text")["count"] == 1
        assert list(histogram.snapshot()) == ["path=kv", "path=text"]

    def test_empty_summary_is_all_zero(self):
        """Idle resources must snapshot cleanly, mirroring summarize_latencies."""
        summary = Histogram("ttft_s").summary()
        assert summary == {"count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestHistogramReservoir:
    def test_count_mean_max_stay_exact_when_sampling(self):
        histogram = Histogram("ttft_s", max_samples=100)
        for i in range(10_000):
            histogram.observe(float(i))
        assert len(histogram._samples[()]) == 100
        summary = histogram.summary()
        assert summary["count"] == 10_000
        assert summary["mean"] == pytest.approx(4999.5)
        assert summary["max"] == 9999.0

    def test_reservoir_is_deterministic_per_metric_name(self):
        def build(name):
            histogram = Histogram(name, max_samples=16)
            for i in range(1000):
                histogram.observe(float(i))
            return histogram._samples[()]

        assert build("ttft_s") == build("ttft_s")
        assert build("ttft_s") != build("decode_s")

    def test_below_capacity_keeps_every_sample(self):
        histogram = Histogram("ttft_s", max_samples=100)
        for i in range(10):
            histogram.observe(float(i))
        assert histogram._samples[()] == [float(i) for i in range(10)]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="max_samples"):
            Histogram("ttft_s", max_samples=0)

    def test_registry_passes_capacity_through(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("ttft_s", max_samples=8)
        assert registry.histogram("ttft_s") is histogram
        for i in range(100):
            histogram.observe(float(i))
        assert len(histogram._samples[()]) == 8
        registry.counter("requests")
        with pytest.raises(TypeError, match="counter"):
            registry.histogram("requests")


class TestMetricsRegistry:
    def test_snapshot_is_deterministic_across_insertion_order(self):
        forward = MetricsRegistry()
        forward.counter("a").inc(1, x="1")
        forward.counter("b").inc(2)
        backward = MetricsRegistry()
        backward.counter("b").inc(2)
        backward.counter("a").inc(1, x="1")
        assert forward.snapshot() == backward.snapshot()
        assert list(forward.snapshot()) == list(backward.snapshot())

    def test_get_or_create_returns_the_same_metric(self):
        registry = MetricsRegistry()
        assert registry.counter("requests") is registry.counter("requests")

    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("requests")
        with pytest.raises(TypeError, match="counter"):
            registry.gauge("requests")

    def test_snapshot_shape_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("requests", help="served requests").inc(2, path="kv")
        registry.gauge("depth").set(3, gpu="gpu")
        registry.histogram("ttft_s").observe(0.25)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["requests"]["type"] == "counter"
        assert snapshot["requests"]["help"] == "served requests"
        assert snapshot["requests"]["values"] == {"path=kv": 2.0}
        assert snapshot["ttft_s"]["values"][""]["count"] == 1
        assert sorted(snapshot) == ["depth", "requests", "ttft_s"]
