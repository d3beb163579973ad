"""Post-hoc analysis of grid job records.

The paper reads its measurements through aggregate grid behaviour: the
total running time ("9 days and 8 hours" for the full experiment), the
overhead regime, and where each optimization's gain physically comes
from.  This module computes those views from the
job ledger a run leaves behind (:class:`~repro.grid.job.JobLedger`,
or any records, which are read as one), reading its columns:

* :func:`job_statistics` — per-run totals: wall time consumed on the
  grid, compute vs transfer vs overhead split, attempt counts,
* :func:`overhead_breakdown` — the overhead decomposed into the
  lifecycle phases (submission -> matched -> queued -> running).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.grid.job import JobLedger, JobRecord, JobState

__all__ = [
    "JobStatistics",
    "PhaseBreakdown",
    "job_statistics",
    "overhead_breakdown",
]


@dataclass(frozen=True)
class JobStatistics:
    """Aggregate statistics over a set of completed jobs."""

    jobs: int
    total_attempts: int
    #: sum of per-job submission-to-done spans (grid-seconds consumed)
    total_grid_time: float
    total_execution_time: float
    total_transfer_time: float
    total_overhead: float
    mean_overhead: float
    std_overhead: float
    max_overhead: float

    @property
    def overhead_fraction(self) -> float:
        """Share of grid time that was pure middleware overhead."""
        if self.total_grid_time == 0:
            return 0.0
        return self.total_overhead / self.total_grid_time


@dataclass(frozen=True)
class PhaseBreakdown:
    """Mean seconds spent in each middleware phase (final attempts)."""

    submission_to_matched: float
    matched_to_queued: float
    queued_to_running: float
    running_to_done: float

    @property
    def total(self) -> float:
        """Sum of the phase means."""
        return (
            self.submission_to_matched
            + self.matched_to_queued
            + self.queued_to_running
            + self.running_to_done
        )


def job_statistics(records: Iterable[JobRecord]) -> JobStatistics:
    """Aggregate completed-job statistics (see class docstring)."""
    ledger = JobLedger.of(records)
    done = ledger.rows(JobState.DONE)
    if not done:
        return JobStatistics(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    stage_in = ledger.column("stage_in_time", done)
    stage_out = ledger.column("stage_out_time", done)
    execution = ledger.column("execution_time", done)
    overheads = np.array(ledger.overheads(done), dtype=float)
    return JobStatistics(
        jobs=len(done),
        total_attempts=sum(ledger.column("attempts", done)),
        total_grid_time=float(sum(ledger.makespans(done))),
        total_execution_time=float(sum(execution)),
        total_transfer_time=float(sum(a + b for a, b in zip(stage_in, stage_out))),
        total_overhead=float(overheads.sum()),
        mean_overhead=float(overheads.mean()),
        std_overhead=float(overheads.std(ddof=1)) if len(done) > 1 else 0.0,
        max_overhead=float(overheads.max()),
    )


#: the states whose last entries bound the phases, in lifecycle order
_PHASE_STATES = (
    JobState.SUBMITTED,
    JobState.MATCHED,
    JobState.QUEUED,
    JobState.RUNNING,
    JobState.DONE,
)


def overhead_breakdown(records: Iterable[JobRecord]) -> Optional[PhaseBreakdown]:
    """Mean per-phase latencies over completed jobs (None if no jobs).

    Phases use the *last* entry of each state so resubmitted jobs
    report their successful attempt.
    """
    ledger = JobLedger.of(records)
    phases: List[List[float]] = [[], [], [], []]
    for row in ledger.rows(JobState.DONE):
        times = [ledger.time_of(row, state, last=True) for state in _PHASE_STATES]
        if None in times:
            continue
        for phase, (begin, end) in zip(phases, zip(times, times[1:])):
            phase.append(end - begin)
    if not phases[0]:
        return None
    s2m, m2q, q2r, r2d = (float(np.mean(phase)) for phase in phases)
    return PhaseBreakdown(
        submission_to_matched=s2m,
        matched_to_queued=m2q,
        queued_to_running=q2r,
        running_to_done=r2d,
    )
