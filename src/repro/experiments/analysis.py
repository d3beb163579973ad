"""Post-hoc analysis of grid job records.

The paper reads its measurements through aggregate grid behaviour: the
total running time ("9 days and 8 hours" for the full experiment), the
overhead regime, and where each optimization's gain physically comes
from.  This module computes those views from the
:class:`~repro.grid.job.JobRecord` s a run leaves behind:

* :func:`job_statistics` — per-run totals: wall time consumed on the
  grid, compute vs transfer vs overhead split, attempt counts,
* :func:`overhead_breakdown` — the overhead decomposed into the
  lifecycle phases (submission -> matched -> queued -> running).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.grid.job import JobRecord, JobState

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


def _completed(records: Iterable[JobRecord]) -> List[JobRecord]:
    return [r for r in records if r.state is JobState.DONE]


def job_statistics(records: Iterable[JobRecord]) -> JobStatistics:
    """Aggregate completed-job statistics (see class docstring)."""
    done = _completed(records)
    if not done:
        return JobStatistics(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    overheads = np.array([r.overhead for r in done], dtype=float)
    return JobStatistics(
        jobs=len(done),
        total_attempts=sum(r.attempts for r in done),
        total_grid_time=float(sum(r.makespan for r in done)),
        total_execution_time=float(sum(r.execution_time for r in done)),
        total_transfer_time=float(
            sum(r.stage_in_time + r.stage_out_time for r in done)
        ),
        total_overhead=float(overheads.sum()),
        mean_overhead=float(overheads.mean()),
        std_overhead=float(overheads.std(ddof=1)) if len(done) > 1 else 0.0,
        max_overhead=float(overheads.max()),
    )


def overhead_breakdown(records: Iterable[JobRecord]) -> Optional[PhaseBreakdown]:
    """Mean per-phase latencies over completed jobs (None if no jobs).

    Phases use the *last* entry of each state so resubmitted jobs
    report their successful attempt.
    """
    done = _completed(records)
    phases: Dict[str, List[float]] = defaultdict(list)
    for record in done:
        submitted = record.last(JobState.SUBMITTED)
        matched = record.last(JobState.MATCHED)
        queued = record.last(JobState.QUEUED)
        running = record.last(JobState.RUNNING)
        finished = record.last(JobState.DONE)
        if None in (submitted, matched, queued, running, finished):
            continue
        phases["s2m"].append(matched - submitted)
        phases["m2q"].append(queued - matched)
        phases["q2r"].append(running - queued)
        phases["r2d"].append(finished - running)
    if not phases:
        return None
    return PhaseBreakdown(
        submission_to_matched=float(np.mean(phases["s2m"])),
        matched_to_queued=float(np.mean(phases["m2q"])),
        queued_to_running=float(np.mean(phases["q2r"])),
        running_to_done=float(np.mean(phases["r2d"])),
    )
