"""The enactment journal: WAL round-trips, torn lines, crash markers."""

import json

import pytest

from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.journal import EnactmentJournal, JournalEntry, SimulatedCrash
from repro.services.base import GridData, LocalService
from repro.sim.engine import Engine
from repro.workflow.builder import WorkflowBuilder


def make_entry(key="k1", processor="P1", value=42, **overrides):
    fields = dict(
        key=key,
        processor=processor,
        label="D0",
        kind="invocation",
        started=10.0,
        finished=25.0,
        job_ids=(3, 7),
        outputs={"y": GridData(value=value)},
    )
    fields.update(overrides)
    return JournalEntry(**fields)


class TestJournalEntry:
    def test_document_round_trip(self):
        entry = make_entry()
        doc = entry.to_document()
        # the document must be plain JSON (the WAL is JSONL)
        restored = JournalEntry.from_document(json.loads(json.dumps(doc)))
        assert restored.key == entry.key
        assert restored.processor == entry.processor
        assert restored.job_ids == (3, 7)
        assert restored.outputs["y"].value == 42

    def test_document_is_tagged(self):
        assert make_entry().to_document()["event"] == "invocation"


class TestEnactmentJournal:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_run("bronze", "SP+DP", at=0.0)
            journal.append_invocation(make_entry(key="a", value=1))
            journal.append_invocation(make_entry(key="b", value=2))
            assert journal.appended == 3  # run marker + 2 invocations

        loaded = EnactmentJournal(path).load()
        assert set(loaded) == {"a", "b"}
        assert loaded["a"].outputs["y"].value == 1

    def test_missing_file_loads_empty(self, tmp_path):
        journal = EnactmentJournal(tmp_path / "absent.jsonl")
        assert journal.load() == {}
        assert journal.runs() == []

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_invocation(make_entry(key="a"))
            journal.append_invocation(make_entry(key="b"))
        # simulate a crash mid-write: truncate the last line
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 20])

        loaded = EnactmentJournal(path).load()
        assert set(loaded) == {"a"}  # entry b re-executes, nothing raises

    def test_later_entries_win_on_key_collision(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_invocation(make_entry(key="a", value=1))
            journal.append_invocation(make_entry(key="a", value=99))
        assert EnactmentJournal(path).load()["a"].outputs["y"].value == 99

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_invocation(make_entry(key="a"))
        with EnactmentJournal(path) as journal:
            journal.append_invocation(make_entry(key="b"))
            assert journal.appended == 1  # counts THIS process only
        assert set(EnactmentJournal(path).load()) == {"a", "b"}

    def test_run_markers(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_run("bronze", "SP+DP", at=0.0)
            journal.append_invocation(make_entry(key="a"))
            journal.append_run("bronze", "SP+DP", at=120.0)
        markers = journal.runs()
        assert [m["at"] for m in markers] == [0.0, 120.0]
        assert markers[0]["config"] == "SP+DP"

    def test_non_invocation_lines_ignored_by_load(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_run("bronze", "NOP", at=0.0)
        assert EnactmentJournal(path).load() == {}


class TestSimulatedCrash:
    def test_carries_progress(self):
        crash = SimulatedCrash(7)
        assert crash.completed == 7
        assert "7" in str(crash)

    def test_is_a_runtime_error(self):
        with pytest.raises(RuntimeError):
            raise SimulatedCrash(1)


class TestEnactorReplay:
    @pytest.mark.parametrize("synchronization", [False, True], ids=["ordinary", "synchronization"])
    def test_resume_replays_without_reappending(self, tmp_path, synchronization):
        """Both arms of the invocation lifecycle replay a journalled entry."""
        path = tmp_path / "wal.jsonl"
        calls = []

        def enactor():
            engine = Engine()

            def last(x):
                calls.append(x)
                return {"y": sum(x) if synchronization else x * 10}

            workflow = (
                WorkflowBuilder("replay")
                .source("items")
                .service(
                    "S",
                    LocalService(
                        engine, "S", ("x",), ("y",), lambda x: {"y": x + 1},
                        # later items finish first; replayed ones arrive in
                        # item order, so a barrier key must ignore order
                        duration=lambda inputs: 3.0 - inputs["x"].value,
                    ),
                )
                .service(
                    "last",
                    LocalService(engine, "last", ("x",), ("y",), last, 1.0),
                    synchronization=synchronization,
                )
                .sink("out")
                .connect("items:output", "S:x")
                .connect("S:y", "last:x")
                .connect("last:y", "out:input")
                .build()
            )
            return MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp(), journal=path)

        first = enactor().run({"items": [1, 2]})
        executed = len(calls)
        resumed = enactor()
        second = resumed.resume({"items": [1, 2]})
        assert len(calls) == executed  # nothing ran again
        assert second.trace.count_by_kind() == {"replayed": first.invocation_count}
        assert second.replayed_count == first.invocation_count
        assert sorted(second.output_values("out")) == sorted(first.output_values("out"))
        assert resumed.journal.appended == 1  # the run marker only
