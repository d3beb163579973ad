"""The instrumentation bus: span producers on one side, subscribers on the other.

Instrumented code (enactor, middleware, computing elements) talks to an
:class:`InstrumentationBus`; what happens to the spans is decided by
the attached :class:`Subscriber` s:

* :class:`InMemoryCollector` — keeps every finished span for in-process
  assertions and reports,
* :class:`JsonlExporter` — one JSON object per finished span, the
  on-disk run-trace format (``python -m repro.experiments report-trace``
  reads it back),
* :class:`ChromeTraceExporter` — the Chrome trace-event JSON that
  ``chrome://tracing`` and Perfetto load directly.

The bus also owns the run's :class:`~repro.observability.metrics.MetricsRegistry`
so a single object wires a whole stack, and it allocates span ids from
a deterministic sequence — simulated systems must stay replayable.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Dict, Iterable, List, Optional, TypeVar, Union

from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Span, span_sort_key

_Self = TypeVar("_Self")

__all__ = [
    "Subscriber",
    "InstrumentationBus",
    "InMemoryCollector",
    "JsonlLineWriter",
    "JsonlExporter",
    "ChromeTraceExporter",
    "chrome_trace_json",
]


class Subscriber:
    """Receives span lifecycle notifications; override what you need."""

    def on_start(self, span: Span) -> None:
        """Called when a span opens (default: ignore)."""

    def on_end(self, span: Span) -> None:
        """Called when a span closes (default: ignore)."""

    def replay(self: _Self, spans: Iterable[Span]) -> _Self:
        """Feed a recorded stream of closed spans through this subscriber.

        The stream must be in completion order (exactly what
        :class:`JsonlExporter` wrote).  Each span is announced
        (``on_start``) and immediately closed (``on_end``), so a
        subscriber whose state advances only on close — the online
        invariant the monitor and the rollups keep — ends in the same
        state as it did live.  Returns self for chaining.
        """
        for span in spans:
            self.on_start(span)
            self.on_end(span)
        return self


class InstrumentationBus:
    """Fan-out point for spans plus the shared metrics registry.

    One bus instruments one simulation stack (engine + grid + enactor).
    Sharing it across several sequential runs is fine — that is how the
    warm-re-execution studies compare cold and warm traces — and the
    per-run metrics protocol (:meth:`MetricsRegistry.snapshot` +
    ``since``) keeps the numbers separable.
    """

    def __init__(self, subscribers: Optional[List[Subscriber]] = None) -> None:
        self.subscribers: List[Subscriber] = list(subscribers or [])
        self.metrics = MetricsRegistry()
        #: the currently running enactment's root span, if any; the
        #: grid parents its job spans here (correct whenever a single
        #: enactment drives the grid, which is the harness protocol).
        self.run_span: Optional[Span] = None
        self._sequence = 0
        self._run_sequence = 0

    # -- wiring ----------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach *subscriber*; returns it for chaining."""
        self.subscribers.append(subscriber)
        return subscriber

    def collector(self) -> "InMemoryCollector":
        """Attach and return a fresh in-memory collector."""
        return self.subscribe(InMemoryCollector())  # type: ignore[return-value]

    # -- span lifecycle --------------------------------------------------
    def next_span_id(self, hint: str = "s") -> str:
        """Allocate a deterministic span id (``s1``, ``s2``, ...)."""
        self._sequence += 1
        return f"{hint}{self._sequence}"

    def next_trace_id(self, name: str) -> str:
        """Allocate a run-level correlation id."""
        self._run_sequence += 1
        return f"run-{self._run_sequence}:{name}"

    def begin(
        self,
        name: str,
        category: str,
        start: float,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Open a span and notify subscribers."""
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else ""
        span = Span(
            name=name,
            category=category,
            span_id=span_id if span_id is not None else self.next_span_id(),
            trace_id=trace_id,
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            status=status,
            attributes=dict(attributes),
        )
        for subscriber in self.subscribers:
            subscriber.on_start(span)
        return span

    def end(self, span: Span, end: float, status: Optional[str] = None, **attributes: Any) -> Span:
        """Close *span* and notify subscribers."""
        span.close(end, status=status, **attributes)
        for subscriber in self.subscribers:
            subscriber.on_end(span)
        return span

    def record(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        span_id: Optional[str] = None,
        status: str = "ok",
        **attributes: Any,
    ) -> Span:
        """Emit an already-finished span (phase spans, instant events)."""
        span = self.begin(
            name,
            category,
            start,
            parent=parent,
            trace_id=trace_id,
            span_id=span_id,
            status=status,
            **attributes,
        )
        return self.end(span, end)


class InMemoryCollector(Subscriber):
    """Keeps every finished span in memory, with query helpers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def on_end(self, span: Span) -> None:
        self.spans.append(span)

    def __len__(self) -> int:
        return len(self.spans)

    def named(self, name: str) -> List[Span]:
        """Finished spans called *name*, start order."""
        return sorted((s for s in self.spans if s.name == name), key=span_sort_key)

    def category(self, category: str) -> List[Span]:
        """Finished spans of one *category*, start order."""
        return sorted((s for s in self.spans if s.category == category), key=span_sort_key)

    def clear(self) -> None:
        """Forget everything collected so far."""
        self.spans.clear()


class JsonlLineWriter:
    """One sorted-key JSON object per line: the span trace's and the
    alert log's shared file discipline.

    Accepts a path (opened lazily, closed by :meth:`close`) or any
    file-like object (left open; the caller owns it).  Every line is
    flushed as it is written: the file on disk is always a valid JSONL
    prefix of the stream, so ``tail -f`` (or the live monitor's replay
    tests) can read it *mid-run* instead of finding an empty buffer.
    Usable as a context manager.
    """

    def __init__(self, destination: Union[str, os.PathLike, io.TextIOBase]) -> None:
        self._path: Optional[str] = None
        self._file: Optional[Any] = None
        self._owns_file = False
        if hasattr(destination, "write"):
            self._file = destination
        else:
            self._path = os.fspath(destination)
        self.lines_written = 0

    def _handle(self):
        if self._file is None:
            self._file = open(self._path, "w", encoding="utf-8")
            self._owns_file = True
        return self._file

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line and flush it."""
        handle = self._handle()
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")
        handle.flush()
        self.lines_written += 1

    def close(self) -> None:
        """Flush and close the output (no-op for caller-owned files)."""
        if self._file is not None:
            self._file.flush()
            if self._owns_file:
                self._file.close()
                self._file = None

    def __enter__(self: _Self) -> _Self:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class JsonlExporter(JsonlLineWriter, Subscriber):
    """Writes one JSON line per finished span.

    Lines appear in span *completion* order — a stream, not a sorted
    report; readers sort by start time::

        with JsonlExporter("run.jsonl") as exporter:
            bus.subscribe(exporter)
            ...
    """

    def on_end(self, span: Span) -> None:
        self.write_record(span.to_dict())


class ChromeTraceExporter(Subscriber):
    """Accumulates Chrome trace-event JSON (``chrome://tracing``, Perfetto).

    Every finished span becomes a complete ("X") event with microsecond
    timestamps; zero-duration spans (cache hits, instantaneous phases)
    become thread-scoped instant ("i") events, which Perfetto draws as
    markers instead of silently dropping 0-width slices.  Lanes (tids)
    are assigned per processor / computing element / category so the
    rendered view reads like the paper's execution diagrams: one row
    per service, grid activity below.
    """

    PID = 1

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._lanes: Dict[str, int] = {}

    def _lane(self, span: Span) -> int:
        attrs = span.attributes
        label = (
            attrs.get("processor")
            or attrs.get("ce")
            or ("grid jobs" if span.category == "grid" else span.category)
        )
        lane = self._lanes.get(label)
        if lane is None:
            lane = self._lanes[label] = len(self._lanes) + 1
            self.events.append(
                {
                    "ph": "M",
                    "pid": self.PID,
                    "tid": lane,
                    "name": "thread_name",
                    "args": {"name": str(label)},
                }
            )
        return lane

    def on_end(self, span: Span) -> None:
        args = {k: v for k, v in span.attributes.items()}
        args["status"] = span.status
        args["span_id"] = span.span_id
        if span.trace_id:
            args["trace_id"] = span.trace_id
        event: Dict[str, Any] = {
            "pid": self.PID,
            "tid": self._lane(span),
            "name": span.name,
            "cat": span.category,
            "ts": span.start * 1e6,
            "args": args,
        }
        if span.duration > 0.0:
            event["ph"] = "X"
            event["dur"] = span.duration * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread scope: marker drawn on the span's lane
        self.events.append(event)

    def to_json(self) -> str:
        """The accumulated trace as a Chrome trace-event JSON document."""
        return json.dumps(
            {"traceEvents": self.events, "displayTimeUnit": "ms"}, default=str
        )

    def write(self, path: Union[str, os.PathLike]) -> None:
        """Write :meth:`to_json` to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())


def chrome_trace_json(spans: List[Span]) -> str:
    """One-shot conversion: a span list to Chrome trace-event JSON."""
    return ChromeTraceExporter().replay(sorted(spans, key=span_sort_key)).to_json()
