"""Counters, gauges and the metrics registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("events")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError):
            Counter("events").inc(-1.0)


class TestGauge:
    def test_holds_latest_value(self):
        gauge = Gauge("throughput")
        gauge.set(10.0)
        gauge.set(3.0)
        assert gauge.value == 3.0


class TestNullMetrics:
    def test_null_counter_discards(self):
        NULL_COUNTER.inc(100.0)
        assert NULL_COUNTER.value == 0.0

    def test_null_gauge_discards(self):
        NULL_GAUGE.set(42.0)
        assert NULL_GAUGE.value == 0.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b
        a.inc()
        assert registry.value("x") == 1.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_snapshot_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2.0)
        registry.gauge("a").set(1.0)
        assert registry.snapshot() == {"a": 1.0, "b": 2.0}

    def test_value_default_for_missing(self):
        assert MetricsRegistry().value("missing", default=-1.0) == -1.0

    def test_contains_len_get(self):
        registry = MetricsRegistry()
        registry.counter("x")
        assert "x" in registry
        assert "y" not in registry
        assert len(registry) == 1
        assert registry.get("x").name == "x"
        assert registry.get("y") is None

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert len(registry) == 0

    def test_table_renders_all_metrics(self):
        registry = MetricsRegistry()
        registry.counter("events", "things that happened").inc(7.0)
        registry.gauge("depth").set(2.0)
        rendered = registry.table().render()
        assert "events" in rendered
        assert "things that happened" in rendered
        assert "depth" in rendered


class TestHistogram:
    def test_observes_and_summarises(self):
        from repro.obs import Histogram

        hist = Histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 55.5
        assert hist.min == 0.5
        assert hist.max == 50.0
        assert hist.mean == 18.5
        assert hist.bucket_counts == [1, 1, 1]

    def test_value_is_observation_count(self):
        from repro.obs import Histogram

        hist = Histogram("lat")
        hist.observe(3.0)
        hist.observe(4.0)
        # snapshot value must be deterministic across machines, so it is
        # the count, never a wall-clock-dependent statistic
        assert hist.value == 2.0
        assert hist.kind == "histogram"

    def test_empty_payload_has_null_extremes(self):
        from repro.obs import Histogram

        payload = Histogram("lat").payload()
        assert payload["count"] == 0
        assert payload["min"] is None
        assert payload["max"] is None


class TestDerivedGauge:
    def test_reads_ratio_of_operands(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(3.0)
        registry.counter("cache.misses").inc(1.0)
        ratio = registry.derived_gauge(
            "cache.hit_rate", "hit fraction", "cache.hits",
            ("cache.hits", "cache.misses"),
        )
        assert ratio.value == 0.75
        registry.counter("cache.misses").inc(2.0)
        assert ratio.value == 0.5

    def test_zero_denominator_reads_zero(self):
        registry = MetricsRegistry()
        ratio = registry.derived_gauge(
            "cache.hit_rate", "", "cache.hits", ("cache.hits", "cache.misses")
        )
        assert ratio.value == 0.0

    def test_conflicting_redefinition_raises(self):
        registry = MetricsRegistry()
        registry.derived_gauge("r", "", "a", ("a", "b"))
        with pytest.raises(ConfigurationError):
            registry.derived_gauge("r", "", "a", ("a", "c"))

