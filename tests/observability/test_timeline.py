"""Tests for resource timelines and the ASCII Gantt renderer."""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.observability import InstrumentationBus
from repro.observability.spans import Span
from repro.observability.timeline import (
    busy_seconds,
    peak,
    render_gantt,
    step_function,
    time_average,
    utilization_table,
)


def job_span(name, ce, job_id, start, end):
    return Span(
        name=name, category="grid", span_id=f"{name}:{job_id}", trace_id="t",
        start=start, end=end, attributes={"ce": ce, "job_id": job_id},
    )


class TestStepFunctions:
    def test_step_function_counts_overlaps(self):
        profile = dict(step_function([(0.0, 10.0), (5.0, 15.0)]))
        assert profile[0.0] == 1
        assert profile[5.0] == 2
        assert profile[10.0] == 1
        assert profile[15.0] == 0

    def test_zero_duration_burst_is_visible(self):
        profile = step_function([(5.0, 5.0)])
        assert (5.0, 1) in profile
        assert profile[-1] == (5.0, 0)  # settles back to idle
        assert peak(profile) == 1

    def test_peak_empty(self):
        assert peak([]) == 0

    def test_time_average(self):
        profile = step_function([(0.0, 10.0), (5.0, 15.0)])
        # 1 for [0,5), 2 for [5,10), 1 for [10,15): mean 4/3 over [0,15]
        assert time_average(profile, 0.0, 15.0) == pytest.approx(4.0 / 3.0)
        assert time_average(profile, 0.0, 0.0) == 0.0

    def test_busy_seconds_merges_overlaps(self):
        assert busy_seconds([(20.0, 25.0), (0.0, 10.0), (5.0, 15.0)]) == 20.0
        assert busy_seconds([]) == 0.0


class TestPerCE:
    SPANS = [
        job_span("job.run", "ce-a", 1, 0.0, 10.0),
        job_span("job.run", "ce-a", 2, 5.0, 15.0),
        job_span("job.run", "ce-b", 3, 0.0, 4.0),
        job_span("job.queue", "ce-a", 2, 0.0, 5.0),
    ]

    def test_utilization_table_rows(self):
        rows = {row["ce"]: row for row in utilization_table(self.SPANS)}
        assert rows["ce-a"]["jobs"] == 2
        assert rows["ce-a"]["peak_running"] == 2
        assert rows["ce-a"]["peak_queued"] == 1
        assert rows["ce-b"]["peak_queued"] == 0
        # without a run span the window is the stream envelope [0, 15]
        assert rows["ce-a"]["busy_fraction"] == pytest.approx(1.0)
        assert rows["ce-b"]["busy_fraction"] == pytest.approx(4.0 / 15.0)


class TestGantt:
    def test_render_empty(self):
        assert "no finished spans" in render_gantt([])

    def test_render_hand_built_lanes(self):
        text = render_gantt(self.run_spans(), width=20)
        assert "running jobs per CE" in text
        assert "queued jobs per CE" in text
        assert "ce-a" in text and "P1" in text

    def test_no_queue_lanes_when_disabled(self):
        text = render_gantt(self.run_spans(), width=20, include_queue=False)
        assert "queued jobs per CE" not in text

    @staticmethod
    def run_spans():
        run = Span(
            name="run", category="enactor", span_id="r", trace_id="t",
            start=0.0, end=20.0,
        )
        invocation = Span(
            name="invocation", category="enactor", span_id="i", trace_id="t",
            start=0.0, end=10.0, attributes={"processor": "P1", "label": "D0"},
        )
        return [run, invocation] + TestPerCE.SPANS

    def test_every_ce_of_a_real_run_gets_a_lane(self, engine, egee_grid, streams):
        app = BronzeStandardApplication(engine, egee_grid, streams)
        bus = InstrumentationBus()
        collector = bus.collector()
        app.enact(OptimizationConfig.sp_dp(), n_pairs=2, instrumentation=bus)
        spans = collector.spans
        text = render_gantt(spans, width=60)
        used = {
            str(s.attributes["ce"])
            for s in spans
            if s.name == "job.run" and "ce" in s.attributes
        }
        assert used  # the run did submit grid jobs
        for ce in used:
            assert ce in text
        for processor in ("crestLines", "crestMatch", "MultiTransfoTest"):
            assert processor in text
