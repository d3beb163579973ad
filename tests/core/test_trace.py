"""Tests for execution traces."""

import pytest

from repro.core.trace import ExecutionTrace, TraceEvent


def make_trace(events):
    trace = ExecutionTrace()
    for processor, label, start, end in events:
        trace.add(TraceEvent(processor=processor, label=label, start=start, end=end))
    return trace


class TestTraceEvent:
    def test_duration(self):
        event = TraceEvent("P1", "D0", 10.0, 25.0)
        assert event.duration == 15.0

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent("P1", "D0", 10.0, 5.0)

    def test_overlaps(self):
        event = TraceEvent("P1", "D0", 10.0, 20.0)
        assert event.overlaps(15.0, 25.0)
        assert event.overlaps(5.0, 11.0)
        assert not event.overlaps(20.0, 30.0)  # half-open
        assert not event.overlaps(0.0, 10.0)

    def test_overlaps_zero_duration(self):
        event = TraceEvent("P1", "D0", 10.0, 10.0)  # e.g. a cache hit
        assert event.overlaps(5.0, 15.0)
        assert event.overlaps(10.0, 11.0)  # sits on the window start
        assert not event.overlaps(10.0, 10.0)  # empty window
        assert not event.overlaps(0.0, 10.0)  # half-open window end
        assert not event.overlaps(11.0, 20.0)


class TestExecutionTrace:
    def test_makespan(self):
        trace = make_trace([("P1", "D0", 5.0, 10.0), ("P2", "D0", 10.0, 22.0)])
        assert trace.end_time - trace.start_time == 17.0
        assert trace.start_time == 5.0
        assert trace.end_time == 22.0

    def test_empty_trace(self):
        trace = ExecutionTrace()
        assert trace.start_time is None
        assert trace.end_time is None
        assert len(trace) == 0

    def test_processors_first_appearance_order(self):
        trace = make_trace([("B", "D0", 0, 1), ("A", "D0", 0, 1), ("B", "D1", 1, 2)])
        assert trace.processors() == ["B", "A"]

    def test_for_processor_sorted_by_start(self):
        trace = make_trace([("P", "D1", 5, 6), ("P", "D0", 0, 1), ("Q", "D0", 0, 1)])
        labels = [e.label for e in trace.for_processor("P")]
        assert labels == ["D0", "D1"]

    def test_max_concurrency(self):
        trace = make_trace(
            [("P", "D0", 0, 10), ("P", "D1", 2, 8), ("P", "D2", 3, 5), ("Q", "D0", 0, 100)]
        )
        assert trace.max_concurrency("P") == 3
        assert trace.max_concurrency() == 4
        assert trace.max_concurrency("Q") == 1

    def test_concurrency_profile_zero_duration_burst(self):
        # An instantaneous event (cached invocation) must show up as a
        # momentary +1 on top of the invocation it lands inside.
        trace = make_trace([("P", "D0", 0, 10), ("P", "D1", 5, 5)])
        assert trace.max_concurrency("P") == 2

    def test_concurrency_profile_only_zero_duration(self):
        trace = make_trace([("P", "D0", 3, 3)])
        assert trace.max_concurrency("P") == 1

    def test_events_copy(self):
        trace = make_trace([("P", "D0", 0, 1)])
        trace.events.append("tampered")
        assert len(trace) == 1

