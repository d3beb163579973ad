"""Tests for the span model and its JSONL serialization."""

import pytest

from repro.observability.spans import (
    Span,
    SpanError,
    span_sort_key,
    spans_from_jsonl,
    spans_to_jsonl,
)


def make_span(**overrides):
    payload = dict(
        name="invocation",
        category="enactor",
        span_id="s1",
        trace_id="run-1:wf",
        start=10.0,
    )
    payload.update(overrides)
    return Span(**payload)


class TestSpan:
    def test_open_until_closed(self):
        span = make_span()
        assert span.open
        assert span.duration == 0.0
        span.close(25.0)
        assert not span.open
        assert span.duration == 15.0

    def test_close_updates_status_and_attributes(self):
        span = make_span()
        span.close(12.0, status="error", reason="boom")
        assert span.status == "error"
        assert span.attributes["reason"] == "boom"

    def test_double_close_rejected(self):
        span = make_span()
        span.close(11.0)
        with pytest.raises(SpanError):
            span.close(12.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(SpanError):
            make_span().close(9.0)

    def test_zero_duration_allowed(self):
        span = make_span().close(10.0)
        assert span.duration == 0.0

    def test_dict_round_trip(self):
        span = make_span(parent_id="s0", attributes={"job_id": 3})
        span.close(20.0, status="hit")
        clone = Span.from_dict(span.to_dict())
        assert clone == span

    def test_from_dict_rejects_reduced_schema(self):
        # nothing writes a reduced record; reading one must not invent
        # an enactor invocation out of two timestamps
        with pytest.raises(SpanError, match="lacks name, category"):
            Span.from_dict({"start": 1.0, "end": 2.0})

    def test_from_dict_rejects_malformed_values(self):
        payload = make_span().close(11.0).to_dict()
        payload["start"] = "soon"
        with pytest.raises(SpanError, match="malformed"):
            Span.from_dict(payload)


class TestJsonl:
    def test_round_trip(self):
        spans = [
            make_span(span_id="a").close(11.0),
            make_span(span_id="b", start=11.0, parent_id="a").close(13.0, status="miss"),
        ]
        assert spans_from_jsonl(spans_to_jsonl(spans)) == spans

    def test_blank_lines_ignored(self):
        text = spans_to_jsonl([make_span().close(11.0)])
        assert len(spans_from_jsonl("\n" + text + "\n\n")) == 1

    def test_accepts_iterable_of_lines(self):
        spans = [make_span().close(11.0)]
        lines = spans_to_jsonl(spans).splitlines()
        assert spans_from_jsonl(iter(lines)) == spans

    def test_invalid_json_rejected(self):
        with pytest.raises(SpanError, match="line 1"):
            spans_from_jsonl("{not json")

    def test_non_span_record_rejected(self):
        with pytest.raises(SpanError, match="not a span record"):
            spans_from_jsonl('{"foo": 1}')

    def test_reduced_record_rejected_with_its_line_number(self):
        text = spans_to_jsonl([make_span().close(11.0)]) + '\n{"start": 1, "end": 2}'
        with pytest.raises(SpanError, match="line 2 .*lacks name"):
            spans_from_jsonl(text)


def test_sort_key_orders_by_start_then_end():
    late = make_span(span_id="late", start=5.0).close(6.0)
    early = make_span(span_id="early", start=1.0).close(9.0)
    still_open = make_span(span_id="open", start=5.0)
    ordered = sorted([still_open, late, early], key=span_sort_key)
    assert [s.span_id for s in ordered] == ["early", "late", "open"]
