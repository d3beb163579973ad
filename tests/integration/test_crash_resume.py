"""End-to-end: best-effort Bronze on a faulty grid; crash + resume.

These are the issue's two acceptance scenarios:

* on a grid with an aggressive blackhole CE and a tight attempt cap, a
  strict run dies but a best-effort run completes with a populated
  failure report accounting for every lost item;
* a run crashed after N invocations and resumed from its journal
  produces byte-identical outputs to an uninterrupted run, without
  resubmitting any journaled work to the grid.
"""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.core.enactor import EnactmentError
from repro.core.journal import EnactmentJournal, SimulatedCrash
from repro.grid.testbeds import cluster_testbed, faulty_testbed
from repro.observability import InstrumentationBus
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

SP_DP = next(
    c for c in OptimizationConfig.paper_configurations() if c.label == "SP+DP"
)


def harsh_grid(engine, streams):
    """A faulty testbed harsh enough that some jobs exhaust their attempts."""
    return faulty_testbed(
        engine,
        streams,
        blackhole_probability=0.98,
        max_attempts=2,
    )


def bronze_outputs(result):
    """Sink name -> sorted repr of every output value (byte-comparable)."""
    return {
        sink: sorted(repr(v) for v in result.output_values(sink))
        for sink in ("assessment", "results")
    }


class TestBestEffortAcceptance:
    SEED = 20060619  # HPDC'06

    def test_strict_run_dies_on_the_harsh_grid(self):
        engine = Engine()
        streams = RandomStreams(seed=self.SEED)
        app = BronzeStandardApplication(engine, harsh_grid(engine, streams), streams)
        with pytest.raises(EnactmentError):
            app.enact(SP_DP, n_pairs=4)

    def test_best_effort_run_completes_with_a_report(self):
        engine = Engine()
        streams = RandomStreams(seed=self.SEED)
        app = BronzeStandardApplication(engine, harsh_grid(engine, streams), streams)
        result = app.enact(SP_DP.with_best_effort(), n_pairs=4)

        report = result.failures
        assert report is not None and not report.empty
        assert len(report.failures) > 0
        assert report.by_service()  # per-service counts populated
        assert report.by_computing_element()  # per-CE counts populated
        # every root failure keeps its middleware attempt history
        for failure in report.failures:
            assert failure.attempts, failure
            assert failure.job_ids, failure
        # lost lineage is expressed in terms of the Bronze input sources
        lost = report.poisoned_lineage()
        assert set(lost) <= {"floatingImage", "referenceImage", "scale"}
        assert lost["floatingImage"] <= frozenset(range(4))
        # the trace tells the same story
        kinds = result.trace.count_by_kind()
        assert kinds.get("failed", 0) == len(report.failures)
        assert kinds.get("poisoned", 0) == report.skipped


class TestCrashResume:
    SEED = 7
    N_PAIRS = 3
    CRASH_AFTER = 7

    def _app(self):
        engine = Engine()
        streams = RandomStreams(seed=self.SEED)
        grid = cluster_testbed(engine, streams)
        return BronzeStandardApplication(engine, grid, streams), grid

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        wal = tmp_path / "wal.jsonl"

        # reference: one uninterrupted run
        app, grid_ref = self._app()
        reference = app.enact(SP_DP, n_pairs=self.N_PAIRS)
        total_invocations = reference.invocation_count
        total_grid_jobs = len(grid_ref.records)

        # run 1: journaled, crashes after CRASH_AFTER completed invocations
        app, _ = self._app()
        with EnactmentJournal(wal) as journal:
            with pytest.raises(SimulatedCrash) as info:
                app.enact(
                    SP_DP,
                    n_pairs=self.N_PAIRS,
                    journal=journal,
                    crash_after=self.CRASH_AFTER,
                )
        assert info.value.completed == self.CRASH_AFTER
        journaled = EnactmentJournal(wal).load()
        # WAL ordering: the crashing invocation was journaled first
        assert len(journaled) == self.CRASH_AFTER

        # run 2: resume from the journal on a FRESH engine and grid
        app, grid2 = self._app()
        with EnactmentJournal(wal) as journal:
            resumed = app.enact(
                SP_DP, n_pairs=self.N_PAIRS, journal=journal, resume=True
            )

        # byte-identical outputs
        assert bronze_outputs(resumed) == bronze_outputs(reference)
        # every journaled invocation replayed, none resubmitted
        assert resumed.replayed_count == self.CRASH_AFTER
        assert resumed.trace.count_by_kind().get("replayed") == self.CRASH_AFTER
        assert resumed.invocation_count == total_invocations
        # the grid only saw the jobs of the invocations that still had to
        # run (the local MTT service never submits grid jobs)
        grid_services = {e.processor for e in reference.trace if e.job_ids}
        assert len(grid2.records) == total_grid_jobs - len(
            [e for e in journaled.values() if e.service in grid_services]
        )

    def test_replayed_invocations_report_no_job_ids(self, tmp_path):
        """Replay submits nothing, so it claims none of the crashed run's jobs."""
        wal = tmp_path / "wal.jsonl"
        app, _ = self._app()
        with pytest.raises(SimulatedCrash):
            app.enact(SP_DP, n_pairs=self.N_PAIRS, journal=wal, crash_after=self.CRASH_AFTER)

        app, _ = self._app()
        bus = InstrumentationBus()
        collector = bus.collector()
        resumed = app.enact(
            SP_DP, n_pairs=self.N_PAIRS, journal=wal, resume=True, instrumentation=bus
        )
        replayed = [e for e in resumed.trace if e.kind == "replayed"]
        spans = [s for s in collector.named("invocation") if s.attributes["kind"] == "replayed"]
        assert len(replayed) == len(spans) == self.CRASH_AFTER
        assert [e.job_ids for e in replayed] == [()] * self.CRASH_AFTER
        assert [s.attributes["job_ids"] for s in spans] == [[]] * self.CRASH_AFTER

    def test_resume_on_untouched_journal_replays_everything(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        app, _ = self._app()
        with EnactmentJournal(wal) as journal:
            reference = app.enact(SP_DP, n_pairs=self.N_PAIRS, journal=journal)

        app, grid2 = self._app()
        with EnactmentJournal(wal) as journal:
            resumed = app.enact(
                SP_DP, n_pairs=self.N_PAIRS, journal=journal, resume=True
            )
        assert bronze_outputs(resumed) == bronze_outputs(reference)
        assert resumed.replayed_count == reference.invocation_count
        assert len(grid2.records) == 0  # nothing re-ran
        # and the journal now holds two run markers
        assert len(EnactmentJournal(wal).runs()) == 2

    def test_crash_exactly_at_the_end_still_resumes(self, tmp_path):
        wal = tmp_path / "wal.jsonl"
        app, _ = self._app()
        reference = app.enact(SP_DP, n_pairs=self.N_PAIRS)
        total = reference.invocation_count

        app, _ = self._app()
        with EnactmentJournal(wal) as journal:
            with pytest.raises(SimulatedCrash):
                app.enact(
                    SP_DP, n_pairs=self.N_PAIRS, journal=journal, crash_after=total
                )

        app, grid2 = self._app()
        with EnactmentJournal(wal) as journal:
            resumed = app.enact(
                SP_DP, n_pairs=self.N_PAIRS, journal=journal, resume=True
            )
        assert bronze_outputs(resumed) == bronze_outputs(reference)
        assert len(grid2.records) == 0
