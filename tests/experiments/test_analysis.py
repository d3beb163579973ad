"""Tests for post-hoc job-record analysis."""

import pytest

from repro.experiments.analysis import (
    job_statistics,
    overhead_breakdown,
)
from repro.grid.job import JobDescription, JobRecord, JobState


def completed_record(
    name="j", service=None, submit=0.0, match=10.0, queue=20.0, run=100.0,
    done=200.0, execution=80.0, stage_in=5.0, stage_out=5.0, attempts=1,
    earlier=(),
):
    """A DONE record; *earlier* ``(state, time)`` entries precede its
    final attempt."""
    tags = {"service": service} if service else {}
    record = JobRecord(JobDescription(name=name, tags=tags))
    for state, at in earlier:
        record.enter(state, at)
    record.enter(JobState.SUBMITTED, submit)
    record.enter(JobState.MATCHED, match)
    record.enter(JobState.QUEUED, queue)
    record.enter(JobState.RUNNING, run)
    record.enter(JobState.DONE, done)
    record.execution_time = execution
    record.stage_in_time = stage_in
    record.stage_out_time = stage_out
    record.attempts = attempts
    return record


class TestJobStatistics:
    def test_single_record(self):
        stats = job_statistics([completed_record()])
        assert stats.jobs == 1
        assert stats.total_grid_time == 200.0
        assert stats.total_execution_time == 80.0
        assert stats.total_transfer_time == 10.0
        assert stats.total_overhead == pytest.approx(110.0)
        assert stats.overhead_fraction == pytest.approx(110.0 / 200.0)

    def test_pending_jobs_ignored(self):
        pending = JobRecord(JobDescription(name="pending"))
        pending.enter(JobState.SUBMITTED, 0.0)
        stats = job_statistics([completed_record(), pending])
        assert stats.jobs == 1

    def test_empty(self):
        stats = job_statistics([])
        assert stats.jobs == 0
        assert stats.overhead_fraction == 0.0

    def test_overhead_spread(self):
        fast = completed_record(done=150.0, execution=80.0)  # overhead 60
        slow = completed_record(done=250.0, execution=80.0)  # overhead 160
        stats = job_statistics([fast, slow])
        assert stats.mean_overhead == pytest.approx(110.0)
        assert stats.max_overhead == pytest.approx(160.0)
        assert stats.std_overhead > 0


class TestOverheadBreakdown:
    def test_phase_means(self):
        breakdown = overhead_breakdown([completed_record()])
        assert breakdown.submission_to_matched == 10.0
        assert breakdown.matched_to_queued == 10.0
        assert breakdown.queued_to_running == 80.0
        assert breakdown.running_to_done == 100.0
        assert breakdown.total == 200.0

    def test_uses_final_attempt(self):
        # a failed first attempt left earlier timestamps behind
        record = completed_record(earlier=[(JobState.SUBMITTED, -500.0)])
        breakdown = overhead_breakdown([record])
        assert breakdown.submission_to_matched == 10.0

    def test_none_for_no_completed_jobs(self):
        assert overhead_breakdown([]) is None
