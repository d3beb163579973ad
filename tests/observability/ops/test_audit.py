"""Tests for the audit event model, ordering and rendering."""

import pytest

from repro.observability.ops.audit import (
    AUDIT_KINDS,
    AuditError,
    AuditEvent,
    audit_events_from_jsonl,
    audit_events_to_jsonl,
    audit_sort_key,
    explain_run,
)


def make_event(**overrides):
    base = dict(
        kind="submit",
        time=10.0,
        run_id="svc-0001",
        tenant="alice",
        message="bronze x1 (SP+DP)",
        sequence=1,
        attributes={"n_items": 1, "config_label": "SP+DP", "seed": 1},
    )
    base.update(overrides)
    return AuditEvent(**base)


class TestModel:
    def test_every_declared_kind_constructs(self):
        for kind in AUDIT_KINDS:
            assert make_event(kind=kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(AuditError):
            make_event(kind="promoted")

    def test_sort_key_orders_by_time_then_sequence(self):
        events = [
            make_event(time=5.0, sequence=9),
            make_event(time=5.0, sequence=2),
            make_event(time=1.0, sequence=30),
        ]
        ordered = sorted(events, key=audit_sort_key)
        assert [(e.time, e.sequence) for e in ordered] == [
            (1.0, 30),
            (5.0, 2),
            (5.0, 9),
        ]

    def test_dict_round_trip(self):
        event = make_event(kind="finish", attributes={"state": "done", "makespan": 42.5})
        assert AuditEvent.from_dict(event.to_dict()) == event

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(AuditError):
            AuditEvent.from_dict({"kind": "submit"})  # missing time/run_id


class TestJsonl:
    def test_round_trip_preserves_events_and_order(self):
        events = [
            make_event(time=3.0, sequence=2, kind="admit"),
            make_event(time=1.0, sequence=1),
            make_event(time=3.0, sequence=3, kind="finish"),
        ]
        text = audit_events_to_jsonl(events)
        parsed = audit_events_from_jsonl(text)
        assert parsed == sorted(events, key=audit_sort_key)

    def test_serialization_is_deterministic(self):
        events = [make_event(sequence=i, time=float(i)) for i in range(5)]
        assert audit_events_to_jsonl(events) == audit_events_to_jsonl(
            list(reversed(events))
        )

    def test_blank_lines_ignored_bad_json_rejected(self):
        text = audit_events_to_jsonl([make_event()])
        assert audit_events_from_jsonl(text + "\n\n") == audit_events_from_jsonl(text)
        with pytest.raises(AuditError):
            audit_events_from_jsonl("not json")
        with pytest.raises(AuditError):
            audit_events_from_jsonl('{"no": "kind"}')

    def test_malformed_record_names_its_line(self):
        text = audit_events_to_jsonl([make_event()]) + '\n{"kind": "submit"}'
        with pytest.raises(AuditError, match="line 2 is not an audit record: .*'time'"):
            audit_events_from_jsonl(text)


class TestExplainRun:
    def trail(self):
        return [
            make_event(time=0.0, sequence=1, run_id="svc-0001"),
            make_event(time=0.0, sequence=2, run_id="svc-0002", tenant="bob"),
            make_event(
                kind="admit",
                time=5.0,
                sequence=3,
                run_id="svc-0001",
                attributes={
                    "policy": "fair-share",
                    "wait": 5.0,
                    "scores": {"alice": 1.0, "bob": 2.0},
                    "eligible": ["svc-0001", "svc-0002"],
                    "blocked": [],
                },
            ),
            make_event(
                kind="quota-block",
                time=5.0,
                sequence=4,
                run_id="svc-0002",
                tenant="bob",
                message="tenant bob at max_concurrent_runs=1",
            ),
            make_event(
                kind="finish",
                time=90.0,
                sequence=5,
                run_id="svc-0001",
                attributes={"state": "done", "makespan": 85.0},
            ),
        ]

    def test_full_trail_renders_one_line_per_event(self):
        lines = explain_run(self.trail())
        assert len(lines) == 5
        assert "submit svc-0001" in lines[0]
        assert "scores[alice=1.0, bob=2.0]" in lines[2]
        assert "-> done" in lines[4]
        assert "makespan=85.0s" in lines[4]

    def test_run_filter_keeps_admits_that_mention_the_run(self):
        # svc-0002's trail: its own submit + quota-block, plus the
        # admit where it was in the eligible set (why it lost the pick)
        lines = explain_run(self.trail(), run_id="svc-0002")
        assert len(lines) == 3
        assert "submit svc-0002" in lines[0]
        assert "admit  svc-0001" in lines[1]
        assert "block  svc-0002" in lines[2]

    def test_run_filter_for_unmentioned_run_is_empty(self):
        assert explain_run(self.trail(), run_id="svc-9999") == []
