"""Execution traces: everything the enactor did, with timestamps.

The trace is the raw material for the paper-style execution diagrams
(Figures 4-6, rendered by :mod:`repro.core.diagrams`) and for the
per-configuration statistics the experiment harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.observability.timeline import peak, step_function

__all__ = ["TraceEvent", "ExecutionTrace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One service invocation as observed by the enactor."""

    processor: str
    label: str  # paper-style item label, e.g. "D0"
    start: float
    end: float
    #: "invocation" | "grouped" | "synchronization" | "cached" |
    #: "replayed" (journal resume) | "failed" (contained failure) |
    #: "poisoned" (skipped: input lineage died upstream)
    kind: str = "invocation"
    job_ids: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event ends before it starts: {self}")

    @classmethod
    def from_span(cls, span) -> "TraceEvent":
        """The event a finished ``invocation`` span records (live or read
        back from a JSONL trace): the enactor's own fields, by name."""
        attributes = span.attributes
        return cls(
            processor=str(attributes.get("processor", "?")),
            label=str(attributes.get("label", "?")),
            start=span.start,
            end=span.end,
            kind=str(attributes.get("kind", "invocation")),
            job_ids=tuple(attributes.get("job_ids") or ()),
        )

    @property
    def duration(self) -> float:
        """Wall-clock seconds of the invocation."""
        return self.end - self.start

    def overlaps(self, t0: float, t1: float) -> bool:
        """True when the event intersects the half-open interval [t0, t1).

        Zero-duration events (``start == end`` — cache hits advance the
        dataflow instantaneously) are treated as instants: they overlap
        the interval that *contains* their timestamp.  Without this
        special case an instant sitting exactly on ``t0`` would
        intersect nothing and vanish from interval queries.
        """
        if self.start == self.end:
            return t0 <= self.start < t1
        return self.start < t1 and self.end > t0


class ExecutionTrace:
    """Ordered collection of trace events plus derived statistics.

    Derived statistics (time bounds, per-processor views) are
    memoized and invalidated on :meth:`add`, so reading them inside a
    loop costs O(1) after the first read instead of re-scanning — and
    re-copying — the whole event list every time.  Code that only needs
    to walk the events should iterate the trace directly
    (``for event in trace``): unlike the :attr:`events` property it
    allocates nothing.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        self._bounds: Optional[Tuple[Optional[float], Optional[float]]] = None
        self._by_processor: Optional[Dict[str, List[TraceEvent]]] = None
        self._kind_counts: Optional[Dict[str, int]] = None

    def add(self, event: TraceEvent) -> None:
        """Record one event (invalidates memoized statistics)."""
        self._events.append(event)
        self._bounds = None
        self._by_processor = None
        self._kind_counts = None

    @property
    def events(self) -> List[TraceEvent]:
        """All events, recording order (a defensive copy — prefer
        iterating the trace itself in hot paths)."""
        return list(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- derived statistics ------------------------------------------------
    def _time_bounds(self) -> Tuple[Optional[float], Optional[float]]:
        if self._bounds is None:
            if self._events:
                self._bounds = (
                    min(e.start for e in self._events),
                    max(e.end for e in self._events),
                )
            else:
                self._bounds = (None, None)
        return self._bounds

    @property
    def start_time(self) -> Optional[float]:
        """Earliest invocation start."""
        return self._time_bounds()[0]

    @property
    def end_time(self) -> Optional[float]:
        """Latest invocation end."""
        return self._time_bounds()[1]

    def _processor_index(self) -> Dict[str, List[TraceEvent]]:
        if self._by_processor is None:
            index: Dict[str, List[TraceEvent]] = {}
            for event in self._events:
                index.setdefault(event.processor, []).append(event)
            for events in index.values():
                events.sort(key=lambda e: (e.start, e.label))
            self._by_processor = index
        return self._by_processor

    def processors(self) -> List[str]:
        """Distinct processor names in first-appearance order."""
        return list(self._processor_index())

    def for_processor(self, processor: str) -> List[TraceEvent]:
        """Events of one processor, sorted by start time."""
        return list(self._processor_index().get(processor, []))

    def count_by_kind(self) -> Dict[str, int]:
        """Event counts per kind (``cached`` is how warm runs show up)."""
        if self._kind_counts is None:
            counts: Dict[str, int] = {}
            for event in self._events:
                counts[event.kind] = counts.get(event.kind, 0) + 1
            self._kind_counts = counts
        return dict(self._kind_counts)

    def max_concurrency(self, processor: Optional[str] = None) -> int:
        """Peak simultaneous invocations (optionally for one processor):
        DP-off must serialize a service, DP-on overlap; a zero-duration
        event (cache hit) is a momentary burst.  The interval sweep lives
        in repro.observability.timeline, shared with the CE timelines."""
        events = self._events if processor is None else self._processor_index().get(processor, [])
        return peak(step_function((e.start, e.end) for e in events))
