"""The metrics registry: instruments, percentiles, collectors."""

import pytest

from repro import obs
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, percentile


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 95) == 7.0

    def test_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 50) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.to_dict() == {"type": "counter", "value": 5}

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.add(0.5)
        assert gauge.value == 3.0

    def test_histogram_summary(self):
        histogram = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        summary = histogram.to_dict()
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.5

    def test_histogram_reports_p99_from_the_window(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.to_dict()
        assert summary["p99"] == 99.01  # linear interpolation, as p50/p95
        assert summary["p95"] < summary["p99"] < summary["max"]

    def test_histogram_window_bounds_percentiles_not_totals(self):
        histogram = Histogram("h", window=2)
        for value in (100.0, 1.0, 2.0):
            histogram.observe(value)
        summary = histogram.to_dict()
        assert summary["count"] == 3  # exact
        assert summary["max"] == 100.0  # exact
        assert summary["p95"] <= 2.0  # windowed: the 100.0 rolled out


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_merges_collectors(self):
        registry = MetricsRegistry()
        registry.counter("own").inc()
        registry.register_collector(
            "ext", lambda: {"ext.value": 42}
        )
        snapshot = registry.snapshot()
        assert snapshot["own"] == {"type": "counter", "value": 1}
        assert snapshot["ext.value"] == {"type": "collected", "value": 42}

    def test_broken_collector_is_reported_not_raised(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("nope")

        registry.register_collector("bad", broken)
        snapshot = registry.snapshot()
        assert "collector.bad.error" in snapshot

    def test_reset_keeps_collectors(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.register_collector("ext", lambda: {"ext.v": 1})
        registry.reset()
        snapshot = registry.snapshot()
        assert "x" not in snapshot
        assert snapshot["ext.v"]["value"] == 1


class TestModuleMetrics:
    def test_count_gauge_observe_roundtrip(self):
        obs.enable()
        obs.count("runs", 2)
        obs.gauge("depth", 7)
        obs.observe("latency_ms", 12.5)
        metrics = obs.metrics()
        assert metrics["runs"]["value"] == 2
        assert metrics["depth"]["value"] == 7.0
        assert metrics["latency_ms"]["count"] == 1

    def test_perf_cache_counters_absorbed(self):
        """The PR 2 cache stats surface as perf.cache.* metrics."""
        obs.enable()
        metrics = obs.metrics()
        hit_keys = [k for k in metrics if k.startswith("perf.cache.")]
        assert any(k.endswith(".hits") for k in hit_keys)
        assert any(k.endswith(".hit_rate") for k in hit_keys)

    def test_noop_when_disabled(self):
        obs.enable()
        obs.disable()
        obs.count("ignored")
        assert "ignored" not in obs.metrics()
