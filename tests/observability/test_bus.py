"""Tests for the instrumentation bus, subscribers and exporters."""

import io
import json

from repro.observability.bus import (
    ChromeTraceExporter,
    InstrumentationBus,
    JsonlExporter,
    chrome_trace_json,
)
from repro.observability.logbridge import cli_logger
from repro.observability.spans import spans_from_jsonl


class TestBus:
    def test_begin_end_notifies_subscribers(self):
        bus = InstrumentationBus()
        collector = bus.collector()
        span = bus.begin("run", "enactor", 0.0, trace_id="run-1:wf")
        assert len(collector) == 0  # only finished spans are collected
        bus.end(span, 10.0)
        assert collector.spans == [span]

    def test_record_emits_finished_span(self):
        bus = InstrumentationBus()
        collector = bus.collector()
        span = bus.record("job.queue", "grid", 2.0, 5.0, job_id=7)
        assert not span.open
        assert span.duration == 3.0
        assert collector.spans == [span]

    def test_ids_are_deterministic(self):
        assert [InstrumentationBus().next_span_id() for _ in range(1)] == ["s1"]
        bus = InstrumentationBus()
        assert [bus.next_span_id(), bus.next_span_id()] == ["s1", "s2"]
        assert bus.next_trace_id("wf") == "run-1:wf"
        assert bus.next_trace_id("wf") == "run-2:wf"

    def test_parent_propagates_trace_id(self):
        bus = InstrumentationBus()
        parent = bus.begin("run", "enactor", 0.0, trace_id="run-1:wf")
        child = bus.begin("grid.job", "grid", 1.0, parent=parent)
        assert child.parent_id == parent.span_id
        assert child.trace_id == "run-1:wf"


class TestInMemoryCollector:
    def _populate(self):
        bus = InstrumentationBus()
        collector = bus.collector()
        run = bus.begin("run", "enactor", 0.0, trace_id="run-1:wf")
        job = bus.record("grid.job", "grid", 1.0, 9.0, parent=run, job_id=1)
        bus.record("job.queue", "grid", 2.0, 4.0, parent=job, job_id=1)
        bus.record("invocation", "enactor", 1.0, 9.0, parent=run, job_ids=[1])
        bus.end(run, 10.0)
        return collector, run, job

    def test_named_and_category(self):
        collector, run, job = self._populate()
        assert [s.name for s in collector.named("grid.job")] == ["grid.job"]
        assert {s.name for s in collector.category("grid")} == {"grid.job", "job.queue"}

    def test_clear(self):
        collector, _, _ = self._populate()
        collector.clear()
        assert len(collector) == 0


class TestJsonlExporter:
    def test_streams_to_file_like(self):
        buffer = io.StringIO()
        bus = InstrumentationBus(subscribers=[JsonlExporter(buffer)])
        bus.record("job.run", "grid", 0.0, 5.0, job_id=3)
        bus.record("job.run", "grid", 5.0, 9.0, job_id=4)
        spans = spans_from_jsonl(buffer.getvalue())
        assert [s.attributes["job_id"] for s in spans] == [3, 4]

    def test_writes_path_and_counts_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        exporter = JsonlExporter(path)
        bus = InstrumentationBus(subscribers=[exporter])
        bus.record("job.run", "grid", 0.0, 5.0)
        exporter.close()
        assert exporter.lines_written == 1
        assert len(spans_from_jsonl(path.read_text())) == 1

    def test_every_line_flushed_mid_run(self, tmp_path):
        # the trace on disk must be a readable JSONL prefix while the
        # run is still going (tail -f, live monitor replay) — not an
        # empty OS buffer that only materializes at close()
        path = tmp_path / "run.jsonl"
        exporter = JsonlExporter(path)
        bus = InstrumentationBus(subscribers=[exporter])
        bus.record("job.run", "grid", 0.0, 5.0, job_id=1)
        mid_run = spans_from_jsonl(path.read_text())
        assert [s.attributes["job_id"] for s in mid_run] == [1]
        bus.record("job.run", "grid", 5.0, 9.0, job_id=2)
        assert len(spans_from_jsonl(path.read_text())) == 2
        exporter.close()

    def test_context_manager_closes_owned_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlExporter(path) as exporter:
            bus = InstrumentationBus(subscribers=[exporter])
            bus.record("job.run", "grid", 0.0, 5.0)
        assert exporter._file is None  # owned handle released
        assert len(spans_from_jsonl(path.read_text())) == 1

    def test_context_manager_leaves_borrowed_handle_open(self):
        buffer = io.StringIO()
        with JsonlExporter(buffer) as exporter:
            bus = InstrumentationBus(subscribers=[exporter])
            bus.record("job.run", "grid", 0.0, 5.0)
        assert not buffer.closed
        assert len(spans_from_jsonl(buffer.getvalue())) == 1


class TestChromeTraceExporter:
    def _spans(self, bus):
        run = bus.begin("run", "enactor", 0.0, trace_id="run-1:wf")
        bus.record("invocation", "enactor", 0.0, 4.0, parent=run, processor="P1")
        bus.record("job.queue", "grid", 1.0, 2.0, parent=run, job_id=1)
        bus.end(run, 4.0)

    def test_document_structure(self):
        exporter = ChromeTraceExporter()
        bus = InstrumentationBus(subscribers=[exporter])
        self._spans(bus)
        document = json.loads(exporter.to_json())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        lanes = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 3
        # one lane per processor / grid category / enactor category
        assert {m["args"]["name"] for m in lanes} == {"P1", "grid jobs", "enactor"}
        invocation = next(e for e in complete if e["name"] == "invocation")
        assert invocation["ts"] == 0.0
        assert invocation["dur"] == 4.0 * 1e6  # microseconds
        assert invocation["args"]["processor"] == "P1"

    def test_write_and_one_shot_helper(self, tmp_path):
        exporter = ChromeTraceExporter()
        bus = InstrumentationBus(subscribers=[exporter])
        collector = bus.collector()
        self._spans(bus)
        path = tmp_path / "run.trace.json"
        exporter.write(path)
        assert json.loads(path.read_text())["traceEvents"]
        # the one-shot helper over collected spans produces the same events
        one_shot = json.loads(chrome_trace_json(collector.spans))
        assert len(one_shot["traceEvents"]) == len(
            json.loads(exporter.to_json())["traceEvents"]
        )


class TestLogBridge:
    def test_cli_logger_writes_bare_messages_to_stdout(self, capsys):
        cli_logger().info("jobs: %d", 18)
        assert capsys.readouterr().out == "jobs: 18\n"

    def test_cli_logger_is_idempotent(self):
        logger = cli_logger()
        assert cli_logger() is logger
        assert len(logger.handlers) == 1
