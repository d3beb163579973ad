"""The span model: one timed, correlated unit of work in simulated time.

A :class:`Span` is the observability subsystem's atom.  Every layer of
the stack emits them — the enactor (one ``run`` span per enactment, one
``invocation`` span per service firing, one ``cache.lookup`` per cache
consultation), the middleware (one ``grid.job`` span per submission,
one ``job.attempt`` per try, plus the lifecycle *phase* spans
``job.submit`` / ``job.schedule`` / ``job.queue`` / ``job.run``), and
the computing elements (``job.stage_in`` / ``job.stage_out``).

Correlation works two ways:

* **parent/child ids** — every span carries a ``trace_id`` (the
  enactment run it belongs to) and a ``parent_id`` pointing at its
  enclosing span, exactly like a distributed-tracing span context;
* **token lineage** — invocation spans derive their ``span_id`` from
  the provenance history label (``run-3:crestMatch:D7``), so two runs
  over the same data set produce comparable ids, and grid-job spans
  carry the submitting invocation's ``job_ids`` so a collector can join
  the two layers even across export boundaries.

All timestamps are simulated seconds (the engine clock), never wall
clock — determinism is what makes the drift reporter's comparisons
against the Section 3.5 model meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "ITEM_KINDS",
    "Span",
    "SpanError",
    "span_sort_key",
    "spans_to_jsonl",
    "spans_from_jsonl",
]

#: ``invocation``-span kinds that count as one processed item (a
#: journal-replayed invocation is resumed work, so it counts too;
#: ``synchronization``, ``failed`` and ``poisoned`` do not)
ITEM_KINDS = ("invocation", "grouped", "cached", "replayed")


class SpanError(ValueError):
    """Raised for malformed span operations (double end, bad times...)."""


@dataclass
class Span:
    """One timed unit of work, with trace/parent correlation ids.

    ``end`` is ``None`` while the span is open; :meth:`close` sets it.
    ``status`` is ``"ok"`` on the happy path; instrumented code uses
    ``"error"`` for failures and domain statuses such as ``"hit"`` /
    ``"miss"`` / ``"coalesced"`` for cache lookups.
    """

    name: str
    category: str
    span_id: str
    trace_id: str
    start: float
    parent_id: Optional[str] = None
    end: Optional[float] = None
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        """True while the span has not ended."""
        return self.end is None

    @property
    def duration(self) -> float:
        """Simulated seconds covered; 0.0 while still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def close(self, end: float, status: Optional[str] = None, **attributes: Any) -> "Span":
        """End the span at *end*, optionally updating status/attributes."""
        if self.end is not None:
            raise SpanError(f"span {self.span_id!r} already ended")
        if end < self.start:
            raise SpanError(
                f"span {self.span_id!r} ends at {end} before it starts at {self.start}"
            )
        self.end = end
        if status is not None:
            self.status = status
        if attributes:
            self.attributes.update(attributes)
        return self

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL line schema)."""
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` form.

        Strict: every field :meth:`to_dict` writes must be present, so
        a truncated or foreign record is an error rather than a span
        with invented defaults.
        """
        missing = [key for key in _FIELDS if key not in payload]
        if missing:
            raise SpanError(f"span record lacks {', '.join(missing)}")
        try:
            return cls(
                name=str(payload["name"]),
                category=str(payload["category"]),
                span_id=str(payload["span_id"]),
                trace_id=str(payload["trace_id"]),
                parent_id=payload["parent_id"],
                start=float(payload["start"]),
                end=None if payload["end"] is None else float(payload["end"]),
                status=str(payload["status"]),
                attributes=dict(payload["attributes"]),
            )
        except (TypeError, ValueError) as exc:
            raise SpanError(f"malformed span record: {exc}") from None

    def __repr__(self) -> str:
        when = f"[{self.start:.3f}..{'open' if self.end is None else f'{self.end:.3f}'}]"
        return f"<Span {self.name!r} {self.span_id!r} {when} {self.status}>"


#: the keys :meth:`Span.to_dict` writes, all required on the way back
_FIELDS = tuple(Span("", "", "", "", 0.0).to_dict())


def span_sort_key(span: Span) -> tuple:
    """Stable ordering for reports: by start time, then id."""
    return (span.start, span.end if span.end is not None else float("inf"), span.span_id)


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Serialize *spans* as one JSON object per line."""
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True) for span in spans)


def spans_from_jsonl(text) -> List[Span]:
    """Parse a JSONL span stream (blank lines ignored).

    Accepts either one string of newline-separated records or any
    iterable of lines (an open file works directly).
    """
    lines = text.splitlines() if isinstance(text, str) else text
    spans: List[Span] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpanError(f"line {lineno} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise SpanError(f"line {lineno} is not a span record: {line[:80]!r}")
        try:
            spans.append(Span.from_dict(payload))
        except SpanError as exc:
            raise SpanError(f"line {lineno} is not a span record: {exc}") from None
    return spans
