"""Grid job descriptions, in-flight records and the ledger of finished jobs.

A :class:`JobDescription` is what the service layer hands to the
middleware: the executable identity, its composed command line, the
logical input/output files, a *compute model* (how long the payload
runs on a reference worker), and an optional Python payload executed at
job-completion time so that simulated applications produce **real
outputs** (e.g. actual rigid transforms in the Bronze Standard).

A :class:`JobRecord` is the live state of a job in flight: its state,
the ordered timeline of every state it entered, its CE, attempts and
the payload's result.  When the job ends (DONE, final FAILED or
CANCELLED) the middleware writes it as one row of the grid's
:class:`JobLedger` and drops the record, its description and its
result.  A row keeps only the numbers the analysis layer reads: the
timeline that splits a job's wall-clock time into overhead
(submission + brokering + queuing) and useful work (staging +
execution) — the decomposition behind the paper's
y-intercept/slope reading of the results — plus CE, worker, attempts
and state.  :class:`JobRow` reads a row through the record's API.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping as MappingABC
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.util.distributions import Distribution, as_distribution

__all__ = [
    "JobState",
    "JobDescription",
    "JobRecord",
    "JobRow",
    "JobLedger",
    "StateTimes",
    "AttemptFailure",
    "JobFailedError",
    "JobCancelledError",
]

_job_ids = itertools.count(1)


class JobState(Enum):
    """Lifecycle of a job through LCG2-like middleware.

    The happy path is ``CREATED -> SUBMITTED -> MATCHED -> QUEUED ->
    RUNNING -> DONE``.  A failing attempt goes to ``FAILED`` and, if the
    retry policy allows, back to ``SUBMITTED`` (the timeline keeps every
    entry, so resubmissions are visible).  Each state also carries
    ``code``, its small-int form in ledger columns.
    """

    CREATED = "created"
    SUBMITTED = "submitted"  # accepted by the user interface
    MATCHED = "matched"  # resource broker picked a computing element
    QUEUED = "queued"  # sitting in the CE batch queue
    RUNNING = "running"  # executing on a worker node
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: ledger state code -> state
_STATES: Tuple[JobState, ...] = tuple(JobState)
for _code, _state in enumerate(_STATES):
    _state.code = _code
del _code, _state


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


@dataclass(frozen=True, slots=True)
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
        completes; its return value is stored on the record and handed
        to the submitter.  This is how simulated services produce real
        data products.
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


class StateTimes(MappingABC):
    """Read-only ``state -> entry times`` of one job, built on access.

    It holds only the states the job entered, in the order first
    entered; a state never entered reads as ``[]`` without being a key.
    """

    __slots__ = ("_times",)

    def __init__(self, entries: Iterable[Tuple[JobState, float]]) -> None:
        times: Dict[JobState, List[float]] = {}
        for state, at in entries:
            times.setdefault(state, []).append(at)
        self._times = times

    def __getitem__(self, state: JobState) -> List[float]:
        return self._times.get(state, [])

    def get(self, state, default=None):
        return self._times.get(state, default)

    def __contains__(self, state) -> bool:
        return state in self._times

    def __iter__(self) -> Iterator[JobState]:
        return iter(self._times)

    def __len__(self) -> int:
        return len(self._times)


class _JobReads:
    """The read API a live :class:`JobRecord` and a :class:`JobRow` share.

    Subclasses provide ``first``, ``last``, ``_entries`` and the plain
    attributes; the derived metrics are defined once, here.
    """

    __slots__ = ()

    @property
    def timestamps(self) -> StateTimes:
        """State -> list of times the state was entered (resubmission => several)."""
        return StateTimes(self._entries())

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
        return f"<{type(self).__name__} #{self.job_id} {self.name!r} {self.state.value}>"


class JobRecord(_JobReads):
    """Live state of one job in flight, kept by the middleware.

    The timeline is a flat list of ``state, time`` entries in the order
    entered, so :meth:`enter`, :meth:`first` and :meth:`last` compare
    states by identity and hash nothing.  Once the job ends the
    middleware retires it into the grid's :class:`JobLedger`; only the
    submitter (through the completion event or a
    :class:`JobFailedError`) still holds the record after that.
    """

    __slots__ = (
        "job_id",
        "description",
        "state",
        "_timeline",
        "computing_element",
        "worker_node",
        "attempts",
        "result",
        "failure_reason",
        "_failures",
        "stage_in_time",
        "stage_out_time",
        "execution_time",
    )

    def __init__(self, description: JobDescription) -> None:
        self.job_id: int = next(_job_ids)
        self.description = description
        self.state: JobState = JobState.CREATED
        self._timeline: list = []
        self.computing_element: Optional[str] = None
        self.worker_node: Optional[str] = None
        self.attempts: int = 0
        self.result: Any = None
        #: latest failure reason (None after a successful completion)
        self.failure_reason: Optional[str] = None
        self._failures: Optional[list[AttemptFailure]] = None
        #: seconds spent moving input/output files for the final attempt
        self.stage_in_time: float = 0.0
        self.stage_out_time: float = 0.0
        #: sampled payload execution seconds for the final attempt
        self.execution_time: float = 0.0

    @property
    def failure_history(self) -> list[AttemptFailure]:
        """Every attempt-level failure, oldest first.

        Resubmissions accumulate here instead of overwriting each other.
        """
        return self._failures if self._failures is not None else []

    @property
    def name(self) -> str:
        """The description's display name."""
        return self.description.name

    @property
    def owner(self) -> str:
        """The description's accounting owner."""
        return self.description.owner

    @property
    def tags(self) -> Mapping[str, Any]:
        """The description's accounting tags."""
        return self.description.tags

    def enter(self, state: JobState, now: float) -> None:
        """Record entering *state* at simulated time *now*."""
        self.state = state
        timeline = self._timeline
        timeline.append(state)
        timeline.append(now)

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
        if self._failures is None:
            self._failures = []
        self._failures.append(failure)
        self.failure_reason = reason
        return failure

    def first(self, state: JobState) -> Optional[float]:
        """First time the job entered *state*, or None."""
        timeline = self._timeline
        try:
            # a time never equals a state, so the match is a state entry
            return timeline[timeline.index(state) + 1]
        except ValueError:
            return None

    def last(self, state: JobState) -> Optional[float]:
        """Most recent time the job entered *state*, or None."""
        timeline = self._timeline
        for i in range(len(timeline) - 2, -1, -2):
            if timeline[i] is state:
                return timeline[i + 1]
        return None

    def _entries(self) -> Iterator[Tuple[JobState, float]]:
        timeline = self._timeline
        return zip(timeline[::2], timeline[1::2])


def _column(name: str) -> property:
    """A :class:`JobRow` attribute: the row's value in ledger column *name*."""

    def read(row: "JobRow"):
        return getattr(row._ledger, "_" + name)[row._row]

    return property(read)


def _interned_column(name: str) -> property:
    """A :class:`JobRow` attribute stored as a code in the string table."""

    def read(row: "JobRow"):
        ledger = row._ledger
        return ledger._strings[getattr(ledger, "_" + name)[row._row]]

    return property(read)


class JobRow(_JobReads):
    """Read-only view of one finished job's :class:`JobLedger` row.

    It answers the :class:`JobRecord` read API (identity, state, CE,
    worker, attempts, timeline, stage and execution times, failures)
    from the ledger's columns; nothing but the two indices is stored.
    """

    __slots__ = ("_ledger", "_row")

    def __init__(self, ledger: "JobLedger", row: int) -> None:
        self._ledger = ledger
        self._row = row

    job_id = _column("job_id")
    name = _column("name")
    attempts = _column("attempts")
    stage_in_time = _column("stage_in_time")
    stage_out_time = _column("stage_out_time")
    execution_time = _column("execution_time")
    owner = _interned_column("owner")
    computing_element = _interned_column("computing_element")
    worker_node = _interned_column("worker_node")

    @property
    def tags(self) -> Mapping[str, Any]:
        ledger = self._ledger
        return ledger._tag_table[ledger._tags[self._row]]

    @property
    def state(self) -> JobState:
        return _STATES[self._ledger._state[self._row]]

    @property
    def failure_history(self) -> list[AttemptFailure]:
        return list(self._ledger._failures.get(self._row, _NO_FAILURES)[0])

    @property
    def failure_reason(self) -> Optional[str]:
        return self._ledger._failures.get(self._row, _NO_FAILURES)[1]

    def first(self, state: JobState) -> Optional[float]:
        """First time the job entered *state*, or None."""
        return self._ledger.time_of(self._row, state)

    def last(self, state: JobState) -> Optional[float]:
        """Most recent time the job entered *state*, or None."""
        return self._ledger.time_of(self._row, state, last=True)

    def _entries(self) -> Iterator[Tuple[JobState, float]]:
        ledger = self._ledger
        start = ledger._tl_start[self._row]
        end = start + ledger._tl_len[self._row]
        return zip(
            [_STATES[code] for code in ledger._tl_state[start:end]],
            ledger._tl_time[start:end],
        )


#: a row with no failure entry: no history, no reason
_NO_FAILURES: Tuple[Tuple[AttemptFailure, ...], Optional[str]] = ((), None)


class _Interned:
    """An append-only table of values, each stored once, by small-int code."""

    __slots__ = ("values", "_codes")

    def __init__(self, first: Any = None, key: Any = None) -> None:
        self.values: List[Any] = [first]
        self._codes: Dict[Any, int] = {key: 0}

    def code(self, key: Any, make: Optional[Callable[[], Any]] = None) -> int:
        """The code of the value stored under hashable *key*: the key
        itself, or what *make* returns on the key's first use."""
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.values)
            self.values.append(key if make is None else make())
        return code


class JobLedger(SequenceABC):
    """Every job a grid ran, in submission order: one row per job.

    The ledger is append-only and columnar: ``array.array`` columns for
    job id, state code, attempts, interned owner / tags / CE / worker
    codes, and stage-in / stage-out / execution seconds, plus the job
    names.  Every state entry of every finished job sits in one flat
    ``(state code, time)`` timeline, and each row points to its slice
    of it, so every resubmission time is kept exactly.  Failures are
    sparse (a few percent of jobs have any) and live in a dict by row.

    A row is appended when the job is submitted (its identity columns)
    and completed once, when the job reaches its terminal transition
    (:meth:`retire`).  Until then the ledger holds the live
    :class:`JobRecord`: indexing and iteration yield the live record for
    a job in flight and a :class:`JobRow` view for a finished one.
    Readers that loop over many jobs use :meth:`rows`, :meth:`column`,
    :meth:`time_of`, :meth:`makespans` and :meth:`overheads` instead of
    views.
    """

    def __init__(
        self, strings: Optional[_Interned] = None, tags: Optional[_Interned] = None
    ) -> None:
        # identity, written at submission
        self._job_id = array("q")
        #: names are unique per job (``service#n``): a table would only
        #: add a dict entry to each, so this column holds the strings
        self._name: List[str] = []
        self._owner = array("i")
        self._tags = array("i")
        # outcome, written once at retirement
        self._state = array("b")
        self._attempts = array("i")
        self._computing_element = array("i")
        self._worker_node = array("i")
        self._stage_in_time = array("d")
        self._stage_out_time = array("d")
        self._execution_time = array("d")
        self._tl_start = array("i")
        self._tl_len = array("i")
        # the flat timeline every finished row points into
        self._tl_state = array("b")
        self._tl_time = array("d")
        # owners, CEs and workers share one table (code 0 is None);
        # a ledger selected from another shares its tables
        self._interned_strings = strings if strings is not None else _Interned()
        self._strings = self._interned_strings.values
        self._interned_tags = tags if tags is not None else _Interned(MappingProxyType({}), ())
        self._tag_table = self._interned_tags.values
        self._failures: Dict[int, Tuple[Tuple[AttemptFailure, ...], Optional[str]]] = {}
        #: row -> record of a job still in flight
        self._live: Dict[int, JobRecord] = {}

    @classmethod
    def of(cls, records: Iterable[_JobReads]) -> "JobLedger":
        """*records* as a ledger: itself if it is one, else a ledger of
        their snapshots (live records and rows alike), in order."""
        if isinstance(records, JobLedger):
            return records
        ledger = cls()
        for record in records:
            ledger._write(ledger._append_identity(record), record)
        return ledger

    # -- sequence --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._job_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[row] for row in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("job ledger index out of range")
        live = self._live.get(index)
        return live if live is not None else JobRow(self, index)

    def __iter__(self) -> Iterator[_JobReads]:
        live = self._live
        for row in range(len(self)):
            record = live.get(row)
            yield record if record is not None else JobRow(self, row)

    # -- writing ---------------------------------------------------------
    def append(self, record: JobRecord) -> int:
        """Add a submitted job's row; it reads through *record* until retired."""
        row = self._append_identity(record)
        self._live[row] = record
        return row

    def retire(self, row: int) -> None:
        """Write the finished job's outcome into *row* and drop its record."""
        self._write(row, self._live.pop(row))

    def _append_identity(self, record: _JobReads) -> int:
        row = len(self._job_id)
        strings = self._interned_strings
        self._job_id.append(record.job_id)
        self._name.append(record.name)
        self._owner.append(strings.code(record.owner))
        self._tags.append(self._tag_code(record.tags))
        self._state.append(0)
        self._attempts.append(0)
        self._computing_element.append(0)
        self._worker_node.append(0)
        self._stage_in_time.append(0.0)
        self._stage_out_time.append(0.0)
        self._execution_time.append(0.0)
        self._tl_start.append(0)
        self._tl_len.append(0)
        return row

    def _tag_code(self, tags: Mapping[str, Any]) -> int:
        def frozen() -> Mapping[str, Any]:
            return MappingProxyType(dict(tags))

        try:
            return self._interned_tags.code(tuple(tags.items()), frozen)
        except TypeError:  # an unhashable tag value: the mapping gets its own code
            self._tag_table.append(frozen())
            return len(self._tag_table) - 1

    def _write(self, row: int, record: _JobReads) -> None:
        strings = self._interned_strings
        self._state[row] = record.state.code
        self._attempts[row] = record.attempts
        self._computing_element[row] = strings.code(record.computing_element)
        self._worker_node[row] = strings.code(record.worker_node)
        self._stage_in_time[row] = record.stage_in_time
        self._stage_out_time[row] = record.stage_out_time
        self._execution_time[row] = record.execution_time
        start = len(self._tl_state)
        for state, at in record._entries():
            self._tl_state.append(state.code)
            self._tl_time.append(at)
        self._tl_start[row] = start
        self._tl_len[row] = len(self._tl_state) - start
        history = record.failure_history
        if history or record.failure_reason is not None:
            self._failures[row] = (tuple(history), record.failure_reason)

    # -- column reads ----------------------------------------------------
    def state_of(self, row: int) -> JobState:
        """*row*'s state, live or retired."""
        live = self._live.get(row)
        return live.state if live is not None else _STATES[self._state[row]]

    def rows(
        self,
        state: Optional[JobState] = None,
        *,
        start: int = 0,
        tag: Optional[Tuple[str, Any]] = None,
    ) -> List[int]:
        """Rows from *start* on, in *state* and carrying tag ``(key,
        value)`` when given; live rows match by their record."""
        codes = self._tags
        wanted = None
        if tag is not None:
            key, value = tag
            wanted = {
                code
                for code, tags in enumerate(self._tag_table)
                if key in tags and tags[key] == value
            }
        found = []
        for row in range(start, len(self)):
            if wanted is not None and codes[row] not in wanted:
                continue
            if state is not None and self.state_of(row) is not state:
                continue
            found.append(row)
        return found

    def select(self, rows: Iterable[int]) -> "JobLedger":
        """A new ledger of *rows* (e.g. from :meth:`rows`), in order; a
        job still in flight is copied as it stands now."""
        out = JobLedger(self._interned_strings, self._interned_tags)
        live = self._live
        for row in rows:
            record = live.get(row)
            if record is not None:
                out._write(out._append_identity(record), record)
            else:
                out._copy_row(self, row)
        return out

    def _copy_row(self, source: "JobLedger", row: int) -> None:
        """Append retired *row* of *source*, which shares this ledger's tables."""
        self._job_id.append(source._job_id[row])
        self._name.append(source._name[row])
        self._owner.append(source._owner[row])
        self._tags.append(source._tags[row])
        self._state.append(source._state[row])
        self._attempts.append(source._attempts[row])
        self._computing_element.append(source._computing_element[row])
        self._worker_node.append(source._worker_node[row])
        self._stage_in_time.append(source._stage_in_time[row])
        self._stage_out_time.append(source._stage_out_time[row])
        self._execution_time.append(source._execution_time[row])
        start, length = source._tl_start[row], source._tl_len[row]
        self._tl_start.append(len(self._tl_state))
        self._tl_len.append(length)
        self._tl_state.extend(source._tl_state[start:start + length])
        self._tl_time.extend(source._tl_time[start:start + length])
        failures = source._failures.get(row)
        if failures is not None:
            self._failures[len(self._job_id) - 1] = failures

    #: the numeric columns :meth:`column` reads, named as record attributes
    COLUMNS = ("job_id", "attempts", "stage_in_time", "stage_out_time", "execution_time")

    def column(self, name: str, rows: Iterable[int]) -> list:
        """Values of numeric column *name* (see :attr:`COLUMNS`) at retired *rows*."""
        if name not in self.COLUMNS:
            raise KeyError(f"no numeric column {name!r}")
        values = getattr(self, "_" + name)
        return [values[row] for row in rows]

    def time_of(self, row: int, state: JobState, last: bool = False) -> Optional[float]:
        """First (or *last*) time retired *row* entered *state*, or None."""
        start = self._tl_start[row]
        end = start + self._tl_len[row]
        codes = self._tl_state
        code = state.code
        if last:
            for i in range(end - 1, start - 1, -1):
                if codes[i] == code:
                    return self._tl_time[i]
            return None
        try:
            return self._tl_time[codes.index(code, start, end)]
        except ValueError:
            return None

    def makespans(self, rows: Iterable[int]) -> List[Optional[float]]:
        """Each retired row's submission-to-completion time (see
        ``JobRecord.makespan``), None where the job never both submitted
        and finished."""
        out: List[Optional[float]] = []
        for row in rows:
            start = self.time_of(row, JobState.SUBMITTED)
            end = self.time_of(row, JobState.DONE, last=True)
            out.append(None if start is None or end is None else end - start)
        return out

    def overheads(self, rows: Iterable[int]) -> List[Optional[float]]:
        """Each retired row's grid overhead (see ``JobRecord.overhead``),
        None where its makespan is."""
        rows = list(rows)
        execution, stage_in, stage_out = (
            self._execution_time, self._stage_in_time, self._stage_out_time
        )
        return [
            None if span is None else span - execution[row] - stage_in[row] - stage_out[row]
            for row, span in zip(rows, self.makespans(rows))
        ]
