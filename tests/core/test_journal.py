"""The enactment journal: WAL round-trips, torn lines, crash markers,
group commit and its cost."""

import json
import math

import pytest

import repro.core.journal as journal_module
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.cache.store import CacheEntry, EntryLog, FileStore
from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.enactor import EnactmentError
from repro.core.journal import GROUP_COMMIT_LINES, EnactmentJournal, SimulatedCrash
from repro.grid.testbeds import cluster_testbed, faulty_testbed
from repro.services.base import GridData, LocalService
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from repro.workflow.builder import WorkflowBuilder


def make_entry(key="k1", service="P1", value=42):
    return CacheEntry(key=key, service=service, outputs={"y": GridData(value=value)})


class TestJournalEntry:
    """A journaled invocation is the result cache's entry, on the cache's line."""

    def test_document_round_trip(self, tmp_path):
        entry = make_entry()
        with EnactmentJournal(tmp_path / "wal.jsonl") as journal:
            journal.append_invocation(entry)
        with EnactmentJournal(tmp_path / "wal.jsonl") as journal:
            restored = journal.load()["k1"]
        assert restored.key == entry.key
        assert restored.service == entry.service
        assert restored.outputs["y"].value == 42

    def test_document_is_tagged(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_invocation(make_entry())
        assert json.loads(path.read_bytes())["event"] == "invocation"

    def test_line_is_the_file_stores_line_for_the_same_entry(self, tmp_path):
        entry = CacheEntry(
            key="k", service="S", outputs={"out": GridData(value=[1.5, 2.5]), "n": GridData(value=3)}
        )
        with EnactmentJournal(tmp_path / "wal.jsonl") as journal:
            journal.append_invocation(entry)
        with FileStore(tmp_path / "cache") as store:
            store.put(entry)
        line = (tmp_path / "wal.jsonl").read_bytes()
        assert line == (tmp_path / "cache" / "entries.jsonl").read_bytes()

    def test_a_journal_opened_as_a_log_yields_the_loaded_entries(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with EnactmentJournal(path) as journal:
            journal.append_run("bronze", "SP+DP", at=0.0)
            journal.append_invocation(make_entry(key="a", value=1))
            journal.append_invocation(make_entry(key="b", value=2))
            journal.append_invocation(make_entry(key="a", value=3))
        with EnactmentJournal(path) as journal:
            loaded = journal.load()
        with EntryLog(path) as log:
            assert log.keys() == list(loaded) == ["a", "b"]
            assert {key: log.get(key) for key in log.keys()} == loaded


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
        journaled = []  # provenance keys handed to append_invocation
        emitting = []  # key of the invocation whose outputs are moving
        checked, late = 0, []

        append = journal.append_invocation

        def recording_append(entry):
            append(entry)
            journaled.append(entry.key)

        complete = enactor._complete_invocation

        def tracking_complete(*args):
            emitting.append(args[-1])  # the key is the last argument
            try:
                complete(*args)
            finally:
                emitting.pop()

        deliver = enactor._deliver

        def checking_deliver(state, port, token):
            nonlocal checked
            if emitting:
                checked += 1
                on_disk = {json.loads(line).get("key") for line in path.read_bytes().splitlines()}
                if emitting[-1] not in on_disk:
                    late.append(emitting[-1])
            deliver(state, port, token)

        journal.append_invocation = recording_append
        enactor._complete_invocation = tracking_complete
        enactor._deliver = checking_deliver
        result = enactor.run(app.build_dataset(4))
        assert late == []
        assert len(set(journaled)) == len(journaled) == result.invocation_count
        assert checked >= result.invocation_count  # each emits at least once
