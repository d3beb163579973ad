"""The enactment journal: WAL round-trips, torn lines, crash markers,
group commit and its cost."""

import json
import math
import os

import pytest

import repro.core.journal as journal_module
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.enactor import EnactmentError
from repro.core.journal import (
    GROUP_COMMIT_LINES,
    EnactmentJournal,
    JournalEntry,
    SimulatedCrash,
)
from repro.grid.testbeds import cluster_testbed, faulty_testbed
from repro.services.base import GridData, LocalService
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
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

    def test_first_append_after_a_torn_tail_starts_a_fresh_line(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_invocation(make_entry(key="a"))
            journal.append_invocation(make_entry(key="b"))
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 20])  # the crash tore b's line

        with EnactmentJournal(path) as journal:
            journal.append_run("bronze", "SP+DP", at=50.0)
            journal.append_invocation(make_entry(key="c"))
        assert set(EnactmentJournal(path).load()) == {"a", "c"}
        assert [m["at"] for m in EnactmentJournal(path).runs()] == [50.0]

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


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` made during the test (the journal is its only caller)."""
    calls = []
    real = journal_module.os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(journal_module.os, "fsync", counting)
    return calls


class TestGroupCommit:
    def test_lines_reach_the_os_before_any_fsync(self, tmp_path, fsyncs):
        path = tmp_path / "wal.jsonl"
        journal = EnactmentJournal(path)
        journal.append_run("bronze", "SP+DP", at=0.0)
        journal.append_invocation(make_entry(key="a"))
        # flushed per line: another reader sees both, nothing synced yet
        assert set(EnactmentJournal(path).load()) == {"a"}
        assert len(path.read_text().splitlines()) == 2
        assert fsyncs == []
        journal.close()
        assert len(fsyncs) == 1

    def test_one_fsync_per_full_batch_and_one_at_close(self, tmp_path, fsyncs):
        with EnactmentJournal(tmp_path / "wal.jsonl") as journal:
            for i in range(2 * GROUP_COMMIT_LINES + 1):
                journal.append_invocation(make_entry(key=f"k{i}"))
            assert len(fsyncs) == 2
        assert len(fsyncs) == 3

    def test_commit_without_unsynced_lines_is_free(self, tmp_path, fsyncs):
        journal = EnactmentJournal(tmp_path / "wal.jsonl")
        journal.commit()  # never opened
        for i in range(GROUP_COMMIT_LINES):
            journal.append_invocation(make_entry(key=f"k{i}"))
        assert len(fsyncs) == 1
        journal.commit()
        journal.close()
        assert len(fsyncs) == 1
        assert journal._handle is None


SP_DP = OptimizationConfig.sp_dp()


def bronze_enactor(path, seed=7, grid_factory=cluster_testbed, **kwargs):
    """A journaled Bronze Standard enactor and the engine it runs on."""
    engine = Engine()
    streams = RandomStreams(seed=seed)
    app = BronzeStandardApplication(engine, grid_factory(engine, streams), streams)
    enactor = MoteurEnactor(
        engine, app.workflow, SP_DP, grid=app.grid, journal=path, **kwargs
    )
    return enactor, engine, app


class TestEnactorClosesJournal:
    """A journal opened from a path is closed (so committed) at run end."""

    def test_after_a_successful_run(self, tmp_path):
        enactor, _, app = bronze_enactor(tmp_path / "wal.jsonl")
        enactor.run(app.build_dataset(3))
        assert enactor.journal.appended > 1
        assert enactor.journal._handle is None

    def test_after_a_simulated_crash(self, tmp_path):
        enactor, _, app = bronze_enactor(
            tmp_path / "wal.jsonl", crash_after_n_invocations=5
        )
        with pytest.raises(SimulatedCrash):
            enactor.run(app.build_dataset(3))
        assert enactor.journal._handle is None
        assert len(enactor.journal.load()) == 5

    def test_after_a_strict_failure(self, tmp_path):
        def harsh_grid(engine, streams):
            return faulty_testbed(
                engine, streams, blackhole_probability=0.98, max_attempts=2
            )

        enactor, _, app = bronze_enactor(
            tmp_path / "wal.jsonl", seed=20060619, grid_factory=harsh_grid
        )
        with pytest.raises(EnactmentError):
            enactor.run(app.build_dataset(4))
        assert enactor.journal._handle is None

    def test_after_cancel_and_its_stragglers(self, tmp_path):
        enactor, engine, app = bronze_enactor(tmp_path / "wal.jsonl")
        completion = enactor.enact(app.build_dataset(6))
        while enactor.journal.appended < 10:
            engine.step()
        enactor.cancel("test")
        assert enactor.journal._handle is None
        appended = enactor.journal.appended
        engine.run()  # jobs already on a worker drain and are journaled
        assert completion.triggered and not completion.ok
        assert enactor.journal.appended > appended
        assert enactor.journal._handle is None


def journaled_bronze(path, n_pairs):
    enactor, _, app = bronze_enactor(path)
    enactor.run(app.build_dataset(n_pairs))
    return len(path.read_text().splitlines())


class TestFsyncCost:
    # Deterministic cost guards: count fsyncs, never read a clock.  One
    # fsync per journaled invocation costs ~350 us each; group commit
    # pays one per GROUP_COMMIT_LINES lines plus one at run end.
    def test_a_run_shorter_than_a_batch_fsyncs_once(self, tmp_path, fsyncs):
        lines = journaled_bronze(tmp_path / "wal.jsonl", n_pairs=10)
        assert lines == 62
        assert len(fsyncs) == 1

    def test_a_long_run_fsyncs_once_per_batch(self, tmp_path, fsyncs):
        lines = journaled_bronze(tmp_path / "wal.jsonl", n_pairs=126)
        assert lines == 758
        assert len(fsyncs) <= math.ceil(lines / GROUP_COMMIT_LINES)

    def test_each_line_reaches_the_os_before_its_outputs_move(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        enactor, _, app = bronze_enactor(path)
        journal = enactor.journal
        written = 0  # bytes the journal has been asked to write so far
        line_end = {}  # (processor, label) -> file size covering its line
        checked, late = 0, []

        write = journal._write

        def counting_write(doc):
            nonlocal written
            written += len((json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"))
            write(doc)
            if doc["event"] == "invocation":
                line_end[doc["processor"], doc["label"]] = written

        deliver = enactor._deliver

        def checking_deliver(state, port, token):
            nonlocal checked
            end = line_end.get((state.processor.name, token.history.label()))
            if end is not None:
                checked += 1
                if os.stat(path).st_size < end:
                    late.append((state.processor.name, token.history.label()))
            deliver(state, port, token)

        journal._write = counting_write
        enactor._deliver = checking_deliver
        result = enactor.run(app.build_dataset(4))
        assert late == []
        assert len(line_end) == result.invocation_count
        assert checked >= result.invocation_count  # each emits at least once
