"""Tests for the metrics registry and the snapshot-delta protocol."""

import pytest

from repro.observability.metrics import (
    BoundMetrics,
    CounterGroup,
    MetricHandles,
    MetricsRegistry,
    MetricsSnapshot,
)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("jobs").inc(-1.0)

    def test_gauge_tracks_high_water(self):
        gauge = MetricsRegistry().gauge("in_flight")
        gauge.add(3)
        gauge.add(-2)
        gauge.add(4)
        assert gauge.value == 5.0
        assert gauge.high_water == 5.0
        gauge.set(1.0)
        assert gauge.high_water == 5.0

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        for value in (4.0, 1.0, 3.0, 2.0):
            registry.histogram("wait").observe(value)
        snap = registry.snapshot().histogram("wait")
        assert snap.count == 4
        assert snap.total == 10.0
        assert snap.percentile(100) == 4.0
        assert snap.percentile(0) == 1.0
        assert snap.percentile(100) == 4.0
        assert snap.percentile(50) == 3.0  # nearest-rank on [1,2,3,4]

    def test_create_on_first_use_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")


class TestHandles:
    def test_handles_bind_once_per_key(self):
        registry = MetricsRegistry()
        names = []

        def bind(kind):
            names.append(kind)
            return registry.counter(f"enactor.invocations.{kind}")

        handles = MetricHandles(bind)
        handles["cached"].inc()
        handles["cached"].inc()
        assert names == ["cached"]
        assert registry.snapshot().counters == {"enactor.invocations.cached": 2.0}

    def test_bound_metrics_create_nothing_before_first_use(self):
        registry = MetricsRegistry()
        bound = BoundMetrics(registry)
        assert registry.snapshot() == MetricsSnapshot()
        bound.counter["a"].inc(2)
        bound.gauge["g"].set(3)
        bound.histogram["h"].observe(4)
        assert bound.counter["a"] is registry.counter("a")
        snap = registry.snapshot()
        assert (snap.counter("a"), snap.gauge("g"), snap.histogram("h").values) == (
            2.0, 3.0, (4.0,),
        )

    def test_counter_group_moves_every_member(self):
        registry = MetricsRegistry()
        group = BoundMetrics(registry).group["bytes.total", "bytes.stage_in"]
        group.inc(5)
        group.inc(2.5)
        assert registry.snapshot().counters == {"bytes.total": 7.5, "bytes.stage_in": 7.5}
        with pytest.raises(ValueError):
            group.inc(-1)

    def test_counter_group_needs_one_lock(self):
        with pytest.raises(ValueError):
            CounterGroup((MetricsRegistry().counter("a"), MetricsRegistry().counter("b")))
        with pytest.raises(ValueError):
            CounterGroup(())


class TestSnapshotDelta:
    def test_since_subtracts_counters(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(5)
        baseline = registry.snapshot()
        registry.counter("jobs").inc(3)
        delta = registry.snapshot().since(baseline)
        assert delta.counter("jobs") == 3.0

    def test_since_drops_untouched_counters(self):
        registry = MetricsRegistry()
        registry.counter("cold").inc(5)
        baseline = registry.snapshot()
        registry.counter("warm").inc(1)
        delta = registry.snapshot().since(baseline)
        assert "cold" not in delta.counters
        assert delta.counter("warm") == 1.0

    def test_since_slices_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("wait").observe(100.0)
        baseline = registry.snapshot()
        registry.histogram("wait").observe(2.0)
        registry.histogram("wait").observe(4.0)
        delta = registry.snapshot().since(baseline)
        hist = delta.histogram("wait")
        assert hist.count == 2
        assert hist.total == 6.0
        assert hist.percentile(100) == 4.0

    def test_snapshot_is_frozen_in_time(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        snap = registry.snapshot()
        registry.counter("jobs").inc()
        assert snap.counter("jobs") == 1.0

    def test_missing_names_default(self):
        snap = MetricsRegistry().snapshot()
        assert snap.counter("nope") == 0.0
        assert snap.histogram("nope").count == 0
        assert snap.names() == ()
