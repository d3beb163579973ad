"""Tests for job descriptions and lifecycle records."""

import pytest

from repro.grid.job import JobDescription, JobRecord, JobState
from repro.util.distributions import Constant, Uniform


class TestJobDescription:
    def test_compute_distribution_from_number(self):
        desc = JobDescription(name="j", compute_time=120.0)
        assert isinstance(desc.compute_distribution(), Constant)
        assert desc.compute_distribution().mean() == 120.0

    def test_compute_distribution_passthrough(self):
        dist = Uniform(1.0, 2.0)
        desc = JobDescription(name="j", compute_time=dist)
        assert desc.compute_distribution() is dist


class TestJobRecord:
    def test_ids_are_unique(self):
        records = [JobRecord(JobDescription(name=f"j{i}")) for i in range(5)]
        assert len({r.job_id for r in records}) == 5

    def test_state_transitions_recorded(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.SUBMITTED, 10.0)
        record.enter(JobState.MATCHED, 12.0)
        record.enter(JobState.QUEUED, 15.0)
        record.enter(JobState.RUNNING, 100.0)
        record.enter(JobState.DONE, 220.0)
        assert record.state is JobState.DONE
        assert record.first(JobState.SUBMITTED) == 10.0
        assert record.queue_wait == 85.0
        assert record.makespan == 210.0

    def test_resubmission_keeps_both_timestamps(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.SUBMITTED, 0.0)
        record.enter(JobState.FAILED, 50.0)
        record.enter(JobState.SUBMITTED, 60.0)
        assert record.timestamps[JobState.SUBMITTED] == [0.0, 60.0]
        assert record.first(JobState.SUBMITTED) == 0.0
        assert record.last(JobState.SUBMITTED) == 60.0

    def test_makespan_none_until_done(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.SUBMITTED, 0.0)
        assert record.makespan is None
        assert record.overhead is None

    def test_overhead_excludes_work(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.SUBMITTED, 0.0)
        record.enter(JobState.DONE, 1000.0)
        record.execution_time = 300.0
        record.stage_in_time = 50.0
        record.stage_out_time = 25.0
        assert record.overhead == pytest.approx(625.0)

    def test_queue_wait_none_until_running(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.QUEUED, 5.0)
        assert record.queue_wait is None

    def test_queue_wait_none_without_queued(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.RUNNING, 5.0)
        assert record.queue_wait is None

    def test_makespan_none_without_submitted(self):
        # DONE recorded but SUBMITTED never was: no makespan, no overhead.
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.DONE, 100.0)
        assert record.makespan is None
        assert record.overhead is None

    def test_retried_job_uses_last_attempt_for_queue_wait(self):
        # A resubmitted job queues twice; queue_wait must describe the
        # successful attempt, not span from first QUEUED to last RUNNING
        # of different attempts mixed together.
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.SUBMITTED, 0.0)
        record.enter(JobState.MATCHED, 2.0)
        record.enter(JobState.QUEUED, 5.0)
        record.enter(JobState.FAILED, 30.0)
        record.enter(JobState.SUBMITTED, 30.0)
        record.enter(JobState.MATCHED, 33.0)
        record.enter(JobState.QUEUED, 36.0)
        record.enter(JobState.RUNNING, 50.0)
        record.enter(JobState.DONE, 90.0)
        assert record.queue_wait == pytest.approx(14.0)  # 36 -> 50
        assert record.makespan == pytest.approx(90.0)  # first SUBMITTED -> last DONE

    def test_retried_job_overhead_includes_failed_attempt(self):
        record = JobRecord(JobDescription(name="j"))
        record.enter(JobState.SUBMITTED, 0.0)
        record.enter(JobState.FAILED, 40.0)
        record.enter(JobState.SUBMITTED, 40.0)
        record.enter(JobState.DONE, 100.0)
        record.execution_time = 25.0
        record.stage_in_time = 5.0
        record.stage_out_time = 10.0
        assert record.overhead == pytest.approx(60.0)  # 100 - 25 - 5 - 10

    def test_zero_duration_job(self):
        # Degenerate but legal: every state at the same instant.
        record = JobRecord(JobDescription(name="j"))
        for state in (JobState.SUBMITTED, JobState.MATCHED, JobState.QUEUED,
                      JobState.RUNNING, JobState.DONE):
            record.enter(state, 7.0)
        assert record.makespan == 0.0
        assert record.queue_wait == 0.0
        assert record.overhead == 0.0
