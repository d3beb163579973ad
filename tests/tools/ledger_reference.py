"""Record-at-a-time readers, kept as the job ledger's reference.

These are the analysis readers as they were before the grid kept its
finished jobs in a columnar :class:`~repro.grid.job.JobLedger`: each
reads one job record at a time through its attributes.
``tests/properties/test_ledger_oracle.py`` runs them over records
snapshotted at retirement and asserts the column readers agree.
"""

import copy
from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro.experiments.analysis import JobStatistics, PhaseBreakdown
from repro.grid.job import JobRecord, JobState


def snapshot(record: JobRecord) -> JobRecord:
    """A copy of *record* as it stands now (lists copied, not shared)."""
    clone = JobRecord.__new__(JobRecord)
    for slot in JobRecord.__slots__:
        setattr(clone, slot, copy.copy(getattr(record, slot)))
    return clone


def _completed(records):
    return [r for r in records if r.state is JobState.DONE]


def job_statistics(records) -> JobStatistics:
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


def overhead_breakdown(records):
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


def overhead_by_job_from_records(records) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for record in records:
        overhead = getattr(record, "overhead", None)
        if overhead is not None:
            out[record.job_id] = float(overhead)
    return out
