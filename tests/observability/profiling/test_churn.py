"""Tests for the optional tracemalloc tracker."""

from repro.observability.profiling import MemoryTracker


class TestMemoryTracker:
    def test_disabled_reports_none(self):
        tracker = MemoryTracker(enabled=False)
        tracker.start()
        tracker.stop()
        assert tracker.report() is None

    def test_enabled_reports_alloc_and_peak(self):
        tracker = MemoryTracker(enabled=True)
        tracker.start()
        sink = [list(range(1000)) for _ in range(50)]
        tracker.stop()
        report = tracker.report()
        assert report is not None
        assert report["peak_bytes"] > 0
        assert report["allocated_bytes"] >= 0
        del sink

    def test_stop_is_idempotent(self):
        tracker = MemoryTracker(enabled=True)
        tracker.start()
        tracker.stop()
        first = tracker.report()
        tracker.stop()
        assert tracker.report() == first
