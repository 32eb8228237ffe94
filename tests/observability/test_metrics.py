"""Unit tests for counters, gauges, histograms, and the registry."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profiling import PhaseProfiler


class TestCounter:
    def test_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ObservabilityError, match="monotone"):
            Counter("c").inc(-1)

    def test_reset_is_explicit(self):
        counter = Counter("c", 10)
        counter.reset(3)
        assert counter.value == 3


class TestGauge:
    def test_none_until_set_then_last_write_wins(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(1.0)
        gauge.set(2.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_cumulative_stats_survive_window_eviction(self):
        hist = Histogram("h", window_size=4)
        for value in range(100):
            hist.observe(value)
        assert hist.count == 100
        assert hist.total == sum(range(100))
        assert hist.minimum == 0
        assert hist.maximum == 99
        assert hist.window == [96, 97, 98, 99]

    def test_quantiles_nearest_rank(self):
        hist = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 4.0
        assert hist.quantile(0.99) == 4.0

    def test_quantile_empty_is_none(self):
        assert Histogram("h").quantile(0.5) is None

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ObservabilityError, match="outside"):
            Histogram("h").quantile(1.5)

    def test_bad_window_rejected(self):
        with pytest.raises(ObservabilityError, match="window_size"):
            Histogram("h", window_size=0)

    def test_snapshot_shape(self):
        hist = Histogram("h")
        hist.observe(2.0)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["mean"] == 2.0
        assert snap["p50"] == snap["p90"] == snap["p99"] == 2.0

    def test_empty_snapshot_has_nulls(self):
        snap = Histogram("h").snapshot()
        assert snap["min"] is None and snap["max"] is None and snap["mean"] is None


class TestRegistry:
    def test_created_on_first_touch_and_shared(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.counters() == {"a": 2}

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(0.5)
        registry.gauge("unset")
        for value in [1.0, 2.0, 3.0]:
            registry.histogram("h").observe(value)
        doc = registry.to_json()
        back = MetricsRegistry.from_json(doc)
        assert back.to_json() == doc

    def test_from_json_rejects_wrong_schema(self):
        with pytest.raises(ObservabilityError, match="unsupported version"):
            MetricsRegistry.from_json({"schema": 99})

    def test_merge_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(2)
        b.counter("x").inc(3)
        b.counter("y").inc()
        merged = a.merge(b)
        assert merged.counters() == {"x": 5, "y": 1}

    def test_merge_gauges_last_write_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g")  # never set: must NOT clobber a's value
        merged = a.merge(b)
        assert merged.gauges()["g"] == 1.0
        b.gauge("g").set(2.0)
        assert a.merge(b).gauges()["g"] == 2.0

    def test_merge_histograms_equal_concat(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in [1.0, 5.0]:
            a.histogram("h").observe(value)
        for value in [3.0]:
            b.histogram("h").observe(value)
        replayed = MetricsRegistry()
        for value in [1.0, 5.0, 3.0]:
            replayed.histogram("h").observe(value)
        assert a.merge(b).to_json() == replayed.to_json()


class TestPhaseProfiler:
    def test_report_aggregates_calls(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("learn"):
                math.sqrt(2.0)
        report = profiler.report()
        assert report["learn"]["calls"] == 3
        assert report["learn"]["total_s"] >= 0.0
        assert report["learn"]["max_s"] >= report["learn"]["mean_s"]

    def test_timing_counts_even_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(ValueError):
            with profiler.phase("boom"):
                raise ValueError("x")
        assert profiler.report()["boom"]["calls"] == 1
