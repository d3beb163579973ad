"""Differential oracle: a retired ledger row against its live job record.

A grid keeps a finished job as one row of its columnar
:class:`~repro.grid.job.JobLedger`; :class:`~repro.grid.job.JobRow`
answers the record's read API from the columns.  Hypothesis drives
jobs through random enter / fail / resubmit / cancel / placement /
staging / failure-reason sequences, retires them in a random order (so
their timeline slices land out of submission order), and every read of
a row must equal the same read of the live record just before it
retired — every state's first and last entry, the timestamps mapping,
the derived metrics, failures and identity.  Copies of the rows
(``select`` and ``JobLedger.of``) must answer the same again.

One enactment on the faulty testbed (a blackhole CE and a straggler,
so jobs fail and resubmit) then checks the readers that loop over all
jobs: ``job_statistics``, ``overhead_breakdown`` and ``summarize_run``
over the ledger's columns must equal the record-at-a-time readers of
``tests/tools/ledger_reference.py`` over records snapshotted at
retirement.

Hand mutants of the ledger run against this file, all killed: a row's
last entry read as its first; a live record's last entry read as its
first; a timeline slice one entry short; a copied row that drops its
failures; a failure reason kept only with a failure history; an
overhead that subtracts stage-in twice; tags interned by their keys
alone.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.observability.drift as drift
from repro.apps.bronze_standard import BRONZE_CRITICAL_PATH, BronzeStandardApplication
from repro.core import OptimizationConfig
from repro.experiments.analysis import job_statistics, overhead_breakdown
from repro.grid.job import JobDescription, JobLedger, JobRecord, JobRow, JobState
from repro.grid.testbeds import faulty_testbed
from repro.observability.runstore import summarize_run
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams
from tests.tools import ledger_reference as reference

CES = (None, "ce-a", "ce-b")
WORKERS = (None, "ce-a/wn0", "ce-b/wn1")
KINDS = ("fault", "timeout", "cancelled", "deadline", "budget", "error")

seconds = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)
tag_values = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                       st.lists(st.integers(0, 2), max_size=2))

#: one step of a job's life
steps = st.one_of(
    st.tuples(st.just("enter"), st.sampled_from(list(JobState)), seconds),
    st.tuples(st.just("fail"), st.sampled_from(KINDS), st.text(max_size=4), seconds),
    st.tuples(st.just("resubmit"), seconds),
    st.tuples(st.just("cancel"), seconds),
    st.tuples(st.just("place"), st.sampled_from(CES), st.sampled_from(WORKERS)),
    st.tuples(st.just("stage"), seconds, seconds, seconds),
    st.tuples(st.just("done"), seconds),
    st.tuples(st.just("reason"), st.one_of(st.none(), st.text(max_size=4))),
)

jobs = st.lists(
    st.tuples(
        st.text(max_size=5),
        st.sampled_from(("user", "background", "tenant-a")),
        st.dictionaries(st.sampled_from(("service", "run", "tenant")), tag_values, max_size=3),
        st.lists(steps, max_size=14),
    ),
    min_size=1,
    max_size=5,
)


def live_job(name, owner, tags, life):
    """A record driven through *life*, its clock moving forward by each step's seconds."""
    record = JobRecord(JobDescription(name=name, owner=owner, tags=tags))
    now = 0.0
    for step in life:
        kind = step[0]
        if kind == "enter":
            now += step[2]
            record.enter(step[1], now)
        elif kind == "fail":
            now += step[3]
            record.enter(JobState.FAILED, now)
            record.record_failure(record.attempts, record.computing_element, step[2], now, step[1])
        elif kind == "resubmit":
            now += step[1]
            record.attempts += 1
            record.enter(JobState.SUBMITTED, now)
        elif kind == "cancel":
            now += step[1]
            record.enter(JobState.CANCELLED, now)
        elif kind == "place":
            record.computing_element, record.worker_node = step[1], step[2]
        elif kind == "stage":
            record.stage_in_time, record.execution_time, record.stage_out_time = step[1:]
        elif kind == "reason":
            record.failure_reason = step[1]
        else:
            now += step[1]
            record.enter(JobState.DONE, now)
            record.failure_reason = None
    return record


def reads(job):
    """Every answer of the shared read API."""
    timestamps = job.timestamps
    return {
        "job_id": job.job_id,
        "name": job.name,
        "owner": job.owner,
        "tags": dict(job.tags),
        "state": job.state,
        "attempts": job.attempts,
        "computing_element": job.computing_element,
        "worker_node": job.worker_node,
        "first": [job.first(state) for state in JobState],
        "last": [job.last(state) for state in JobState],
        "timestamps": [(state, list(times)) for state, times in timestamps.items()],
        "unentered": [timestamps[state] for state in JobState if state not in timestamps],
        "get": [timestamps.get(state) for state in JobState],
        "makespan": job.makespan,
        "overhead": job.overhead,
        "queue_wait": job.queue_wait,
        "stage_in_time": job.stage_in_time,
        "stage_out_time": job.stage_out_time,
        "execution_time": job.execution_time,
        "failure_history": list(job.failure_history),
        "failure_reason": job.failure_reason,
        "repr": repr(job).split(" ", 1)[1],
    }


@settings(max_examples=200, deadline=None)
@given(jobs=jobs, data=st.data())
def test_a_retired_row_reads_as_its_record_did(jobs, data):
    ledger = JobLedger()
    records = [live_job(*job) for job in jobs]
    rows = [ledger.append(record) for record in records]
    assert all(ledger[row] is record for row, record in zip(rows, records))
    expected = {}
    for row in data.draw(st.permutations(rows)):
        expected[row] = reads(records[row])
        ledger.retire(row)
        assert isinstance(ledger[row], JobRow)
    assert [reads(job) for job in ledger] == [expected[row] for row in rows]
    for copy in (ledger.select(rows), JobLedger.of(list(ledger)), JobLedger.of(records)):
        assert [reads(job) for job in copy] == [expected[row] for row in rows]


def test_faulty_enactment_readers_equal_records_snapshotted_at_retirement(monkeypatch):
    engine = Engine()
    streams = RandomStreams(seed=3)
    grid = faulty_testbed(engine, streams)
    ledger = grid.records
    snapshots = []
    retire = ledger.retire

    def snapshot_then_retire(row):
        snapshots.append(reference.snapshot(ledger._live[row]))
        retire(row)

    ledger.retire = snapshot_then_retire
    app = BronzeStandardApplication(engine, grid, streams)
    result = app.enact(OptimizationConfig.sp_dp().with_best_effort(), n_pairs=6)
    # the ledger is in submission order, and so are job ids
    snapshots.sort(key=lambda record: record.job_id)
    assert len(snapshots) == len(ledger) and not ledger._live
    assert any(record.attempts > 1 for record in snapshots)
    assert any(record.failure_history for record in snapshots)
    assert [reads(job) for job in ledger] == [reads(record) for record in snapshots]

    assert job_statistics(ledger) == reference.job_statistics(snapshots)
    assert overhead_breakdown(ledger) == reference.overhead_breakdown(snapshots)
    assert job_statistics(grid.completed_records()) == reference.job_statistics(snapshots)

    def summary(records):
        run = summarize_run(
            result, records=records, processors=list(BRONZE_CRITICAL_PATH), n_items=6, seed=3
        )
        return dataclasses.replace(run, created_at="")

    columns = summary(grid.completed_records())
    assert columns.drift
    monkeypatch.setattr(
        drift, "overhead_by_job_from_records", reference.overhead_by_job_from_records
    )
    done = [record for record in snapshots if record.state is JobState.DONE]
    assert columns == summary(done)
