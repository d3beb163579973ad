"""Grid job descriptions and lifecycle records.

A :class:`JobDescription` is what the service layer hands to the
middleware: the executable identity, its composed command line, the
logical input/output files, a *compute model* (how long the payload
runs on a reference worker), and an optional Python payload executed at
job-completion time so that simulated applications produce **real
outputs** (e.g. actual rigid transforms in the Bronze Standard).

A :class:`JobRecord` accumulates the timestamps of every state
transition, which is what the analysis layer uses to split a job's
wall-clock time into overhead (submission + brokering + queuing) and
useful work (staging + execution) — the decomposition behind the
paper's y-intercept/slope reading of the results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.util.distributions import Distribution, as_distribution

__all__ = [
    "JobState",
    "JobDescription",
    "JobRecord",
    "AttemptFailure",
    "JobFailedError",
    "JobCancelledError",
]

_job_ids = itertools.count(1)


class JobState(Enum):
    """Lifecycle of a job through LCG2-like middleware.

    The happy path is ``CREATED -> SUBMITTED -> MATCHED -> QUEUED ->
    RUNNING -> DONE``.  A failing attempt goes to ``FAILED`` and, if the
    retry policy allows, back to ``SUBMITTED`` (the record keeps one
    timestamp list per state, so resubmissions are visible).
    """

    CREATED = "created"
    SUBMITTED = "submitted"  # accepted by the user interface
    MATCHED = "matched"  # resource broker picked a computing element
    QUEUED = "queued"  # sitting in the CE batch queue
    RUNNING = "running"  # executing on a worker node
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class AttemptFailure:
    """Why one attempt of a job went wrong (fault, timeout, cancellation...)."""

    attempt: int
    computing_element: Optional[str]
    reason: str
    at: float
    #: "fault" | "timeout" | "cancelled" | "deadline" | "budget" | "error"
    kind: str = "fault"


class JobFailedError(RuntimeError):
    """Raised to submitters when a job exhausts its resubmission budget."""

    def __init__(self, record: "JobRecord", cause: str) -> None:
        super().__init__(f"job {record.job_id} ({record.name}) failed: {cause}")
        self.record = record
        self.cause = cause


class JobCancelledError(RuntimeError):
    """A queued job was withdrawn from its CE before running.

    With ``resubmit=True`` (the default) this is not terminal for the
    job: the middleware catches it and resubmits elsewhere without
    spending a fault attempt — the proactive-resubmission half of the
    monitoring feedback loop.  With ``resubmit=False`` the withdrawal
    is final (a user or the enactment service cancelled the run that
    owns the job) and the middleware fails the submission instead.
    """

    def __init__(self, record: "JobRecord", reason: str, resubmit: bool = True) -> None:
        super().__init__(f"job {record.job_id} ({record.name}) cancelled: {reason}")
        self.record = record
        self.reason = reason
        self.resubmit = resubmit


@dataclass(frozen=True)
class JobDescription:
    """Immutable description of one grid job.

    Parameters
    ----------
    name:
        Human-readable label (shows up in traces and Gantt diagrams).
    command_line:
        The composed command line(s).  Grouped jobs carry several
        command lines joined by the shell sequencing operator; purely
        informational for the simulator but asserted on by tests since
        command-line composition is a paper contribution (Section 3.6).
    compute_time:
        Distribution (or constant seconds) of the payload's execution
        time on a reference-speed worker node.
    input_files:
        GFNs (strings) staged in before execution; they must already be
        registered in the grid's replica catalog.  Transfer times come
        from the grid's network model.
    output_files:
        :class:`~repro.grid.storage.LogicalFile` objects (GFN + size)
        the job produces; after execution they are transferred to the
        closest storage element and registered.
    payload:
        Optional callable ``payload() -> Any`` evaluated when the job
        completes; its return value is stored on the record.  This is
        how simulated services produce real data products.
    owner:
        Accounting tag (used by fair-share batch scheduling and the
        background-load separation in reports).
    """

    name: str
    command_line: str = ""
    compute_time: "float | Distribution" = 0.0
    input_files: Tuple[str, ...] = ()
    output_files: Tuple[Any, ...] = ()  # tuple[LogicalFile, ...]
    payload: Optional[Callable[[], Any]] = None
    owner: str = "user"
    tags: Mapping[str, Any] = field(default_factory=dict)

    def compute_distribution(self) -> Distribution:
        """The compute-time model as a :class:`Distribution`."""
        return as_distribution(self.compute_time)


class JobRecord:
    """Mutable per-job execution record kept by the middleware."""

    def __init__(self, description: JobDescription) -> None:
        self.job_id: int = next(_job_ids)
        self.description = description
        self.state: JobState = JobState.CREATED
        #: state -> list of times the state was entered (resubmission => several).
        self.timestamps: dict[JobState, list[float]] = {state: [] for state in JobState}
        self.computing_element: Optional[str] = None
        self.worker_node: Optional[str] = None
        self.attempts: int = 0
        self.result: Any = None
        #: latest failure reason (None after a successful completion)
        self.failure_reason: Optional[str] = None
        #: every attempt-level failure, oldest first — resubmissions
        #: accumulate here instead of overwriting each other
        self.failure_history: list[AttemptFailure] = []
        #: seconds spent moving input/output files for the final attempt
        self.stage_in_time: float = 0.0
        self.stage_out_time: float = 0.0
        #: sampled payload execution seconds for the final attempt
        self.execution_time: float = 0.0

    @property
    def name(self) -> str:
        """The description's display name."""
        return self.description.name

    def enter(self, state: JobState, now: float) -> None:
        """Record entering *state* at simulated time *now*."""
        self.state = state
        self.timestamps[state].append(now)

    def record_failure(
        self,
        attempt: int,
        computing_element: Optional[str],
        reason: str,
        at: float,
        kind: str = "fault",
    ) -> AttemptFailure:
        """Append one attempt-level failure; keeps ``failure_reason`` current."""
        failure = AttemptFailure(
            attempt=attempt,
            computing_element=computing_element,
            reason=reason,
            at=at,
            kind=kind,
        )
        self.failure_history.append(failure)
        self.failure_reason = reason
        return failure

    def first(self, state: JobState) -> Optional[float]:
        """First time the job entered *state*, or None."""
        times = self.timestamps[state]
        return times[0] if times else None

    def last(self, state: JobState) -> Optional[float]:
        """Most recent time the job entered *state*, or None."""
        times = self.timestamps[state]
        return times[-1] if times else None

    # -- derived metrics ------------------------------------------------
    @property
    def makespan(self) -> Optional[float]:
        """Submission-to-completion wall time (None until DONE)."""
        start = self.first(JobState.SUBMITTED)
        end = self.last(JobState.DONE)
        if start is None or end is None:
            return None
        return end - start

    @property
    def overhead(self) -> Optional[float]:
        """Grid overhead: everything except stage-in/out and execution.

        This matches the paper's definition: "the overhead introduced by
        the submission, scheduling and queuing times".
        """
        span = self.makespan
        if span is None:
            return None
        return span - self.execution_time - self.stage_in_time - self.stage_out_time

    @property
    def queue_wait(self) -> Optional[float]:
        """Time spent queued at the CE for the final attempt."""
        queued = self.last(JobState.QUEUED)
        running = self.last(JobState.RUNNING)
        if queued is None or running is None:
            return None
        return running - queued

    def __repr__(self) -> str:
        return f"<JobRecord #{self.job_id} {self.name!r} {self.state.value}>"
