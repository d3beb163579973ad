"""Integration: an instrumented Bronze Standard run, end to end.

This is the acceptance test of the observability layer: one enactment
under a caching configuration must produce a span stream from which the
per-job phase durations (submit -> schedule -> queue -> run, plus fault
time for retried jobs) reconstruct each job record's makespan exactly,
round-trip through JSONL, and export as loadable Chrome trace JSON.
"""

import io
import json
from types import SimpleNamespace

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.cache import ResultCache
from repro.core import OptimizationConfig
from repro.observability.bus import (
    ChromeTraceExporter,
    InstrumentationBus,
    JsonlExporter,
)
from repro.observability.drift import drift_report
from repro.observability.spans import spans_from_jsonl

#: the phase spans that tile a job's SUBMITTED -> DONE interval
PHASES = ("job.submit", "job.schedule", "job.queue", "job.run", "job.fault")

CRITICAL_PATH = ("crestLines", "crestMatch", "PFMatchICP", "PFRegister")

TIMINGS = {
    "crestLines": 10.0,
    "crestMatch": 10.0,
    "Baladin": 10.0,
    "Yasmina": 10.0,
    "PFMatchICP": 10.0,
    "PFRegister": 10.0,
}


@pytest.fixture
def instrumented_run(engine, ideal_grid, streams):
    app = BronzeStandardApplication(
        engine, ideal_grid, streams, timings=TIMINGS, mtt_time=5.0
    )
    bus = InstrumentationBus()
    collector = bus.collector()
    buffer = io.StringIO()
    bus.subscribe(JsonlExporter(buffer))
    chrome = bus.subscribe(ChromeTraceExporter())
    cache = ResultCache()
    dataset = app.build_dataset(2)
    result = app.enact(
        OptimizationConfig.sp_dp(),
        dataset=dataset,
        cache=cache,
        instrumentation=bus,
    )
    return SimpleNamespace(
        app=app, bus=bus, collector=collector, buffer=buffer,
        chrome=chrome, cache=cache, result=result, dataset=dataset,
    )


class TestPhaseTiling:
    def test_phase_spans_sum_to_job_makespans(self, instrumented_run, ideal_grid):
        collector = instrumented_run.collector
        records = ideal_grid.completed_records()
        assert records, "run submitted no jobs"
        for record in records:
            phases = [
                s for s in collector.spans
                if s.name in PHASES and s.attributes.get("job_id") == record.job_id
            ]
            assert phases, f"no phase spans for job {record.job_id}"
            total = sum(s.duration for s in phases)
            assert total == pytest.approx(record.makespan, abs=1e-9)

    def test_every_job_has_one_grid_span(self, instrumented_run, ideal_grid):
        collector = instrumented_run.collector
        job_spans = collector.named("grid.job")
        assert len(job_spans) == len(ideal_grid.completed_records())
        run_span = collector.named("run")[0]
        assert all(s.parent_id == run_span.span_id for s in job_spans)

    def test_run_span_covers_the_enactment(self, instrumented_run):
        result = instrumented_run.result
        run_span = instrumented_run.collector.named("run")[0]
        assert run_span.start == result.started_at
        assert run_span.end == result.finished_at
        assert run_span.duration == pytest.approx(result.makespan)

    def test_invocation_span_ids_encode_lineage(self, instrumented_run):
        collector = instrumented_run.collector
        spans = collector.named("invocation")
        assert spans
        run_span = collector.named("run")[0]
        for span in spans:
            # run-N:workflow:processor:label — comparable across runs
            assert span.span_id.startswith(f"{run_span.trace_id}:")
            assert span.attributes["processor"] in span.span_id


class TestExports:
    def test_jsonl_round_trip_preserves_the_tiling(
        self, instrumented_run, ideal_grid
    ):
        collector = instrumented_run.collector
        buffer = instrumented_run.buffer
        spans = spans_from_jsonl(buffer.getvalue())
        assert len(spans) == len(collector.spans)
        by_job = {}
        for span in spans:
            if span.name in PHASES:
                job_id = span.attributes["job_id"]
                by_job[job_id] = by_job.get(job_id, 0.0) + span.duration
        for record in ideal_grid.completed_records():
            assert by_job[record.job_id] == pytest.approx(record.makespan, abs=1e-9)

    def test_chrome_trace_loads(self, instrumented_run):
        chrome = instrumented_run.chrome
        document = json.loads(chrome.to_json())
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        # every collected span surfaces either as a complete slice or,
        # when zero-duration (cache lookups), as an instant marker
        assert len(complete) + len(instants) == len(instrumented_run.collector.spans)
        zero = [s for s in instrumented_run.collector.spans if s.duration == 0.0]
        assert len(instants) == len(zero)
        assert all(e["s"] == "t" and "dur" not in e for e in instants)
        assert all(e["dur"] > 0 for e in complete)
        lanes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(TIMINGS) <= lanes  # one lane per processor


class TestMetricsAndDrift:
    def test_metrics_snapshot_matches_the_run(self, instrumented_run, ideal_grid):
        result = instrumented_run.result
        metrics = result.metrics
        assert metrics is not None
        n_jobs = len(ideal_grid.completed_records())
        assert metrics.counter("grid.jobs.submitted") == n_jobs
        assert metrics.counter("grid.jobs.completed") == n_jobs
        assert metrics.counter("enactor.invocations") == result.invocation_count
        assert metrics.counter("cache.lookups.miss") == result.invocation_count
        assert metrics.gauge_peaks["enactor.in_flight"] >= 2  # DP overlapped
        assert metrics.histogram("grid.job.makespan").count == n_jobs

    def test_drift_is_zero_on_the_ideal_testbed(self, instrumented_run, ideal_grid):
        result = instrumented_run.result
        report = drift_report(
            result, records=ideal_grid.completed_records(), processors=CRITICAL_PATH
        )
        assert report.relative_error <= 1e-9
        assert report.predicted_makespan > 0

    def test_warm_rerun_hits_the_cache_and_submits_nothing(
        self, instrumented_run, ideal_grid
    ):
        run = instrumented_run
        app, bus, collector, cache, cold = run.app, run.bus, run.collector, run.cache, run.result
        jobs_before = len(ideal_grid.completed_records())
        warm = app.enact(
            OptimizationConfig.sp_dp(),
            dataset=run.dataset,
            cache=cache,
            instrumentation=bus,
        )
        assert len(ideal_grid.completed_records()) == jobs_before
        assert warm.metrics.counter("cache.lookups.hit") == cold.invocation_count
        assert "grid.jobs.submitted" not in warm.metrics.counters
        # the two runs are distinct traces in the same span stream
        runs = collector.named("run")
        assert len(runs) == 2
        assert runs[0].trace_id != runs[1].trace_id
        hits = [s for s in collector.named("cache.lookup") if s.status == "hit"]
        assert len(hits) == cold.invocation_count
