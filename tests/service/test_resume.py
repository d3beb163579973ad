"""Kill/restart the service and resume in-flight runs to the same results."""

import os

import pytest

from repro.grid.testbeds import cluster_testbed
from repro.service import (
    EnactmentService,
    RunState,
    SQLiteStateStore,
    TenantSpec,
)


def small_cluster(engine, streams):
    return cluster_testbed(engine, streams, workers=4, slots_per_worker=2)


def build_service(root):
    return EnactmentService(
        SQLiteStateStore(root),
        policy="fair-share",
        max_concurrent_runs=2,
        testbed=small_cluster,
        seed=0,
    )


def submit_pair(service):
    service.add_tenant(TenantSpec(name="a", max_concurrent_runs=2))
    # 2 pairs: single-pair accuracy statistics are 0.0 for any seed,
    # which would let a resume bug slip past the digest comparison.
    return (
        service.submit("a", n_items=2, seed=7),
        service.submit("a", n_items=2, seed=8),
    )


def journal_lines(store, run_id):
    path = store.journal_path(run_id)
    if not os.path.exists(path):
        return 0
    with open(path, "r", encoding="utf-8") as handle:
        return sum(1 for _ in handle)


def test_killed_service_resumes_to_identical_outputs(tmp_path):
    # Reference: the same two submissions executed uninterrupted.
    reference = build_service(str(tmp_path / "reference"))
    submit_pair(reference)
    expected = {
        run.run_id: run.result["outputs_digest"] for run in reference.drain()
    }
    reference.close()

    # Interrupted: drive the service partway — at least one journalled
    # invocation beyond the run header — then drop it on the floor
    # without any shutdown, as a crash would.
    root = str(tmp_path / "victim")
    first_life = build_service(root)
    r1, r2 = submit_pair(first_life)
    for _ in range(4000):
        first_life.tick(max_events=10)
        if journal_lines(first_life.store, r1.run_id) >= 3:
            break
    else:
        pytest.fail("service never journalled enough progress to interrupt")
    in_flight = [
        run.run_id
        for run in first_life.store.runs(states=[RunState.RUNNING])
    ]
    assert in_flight, "expected at least one RUNNING run at the crash point"
    first_life.store.close()  # the process dies; no drain, no stop
    del first_life

    # Second life: recover and drain on a fresh engine.
    second_life = build_service(root)
    requeued = second_life.recover()
    assert {run.run_id for run in requeued} >= set(in_flight)
    assert all(run.resume for run in requeued if run.run_id in in_flight)
    runs = {run.run_id: run for run in second_life.drain()}
    assert runs[r1.run_id].state is RunState.DONE
    assert runs[r2.run_id].state is RunState.DONE
    # Replay actually happened: the interrupted run re-used journalled
    # invocations instead of re-executing them.
    assert any(runs[rid].result["replayed"] > 0 for rid in in_flight)
    # The headline guarantee: byte-identical outputs after the crash.
    for run_id, digest in expected.items():
        assert runs[run_id].result["outputs_digest"] == digest
    second_life.close()


def test_close_commits_and_closes_in_flight_journals(tmp_path):
    service = build_service(str(tmp_path / "service"))
    r1, _ = submit_pair(service)
    for _ in range(4000):
        service.tick(max_events=10)
        if journal_lines(service.store, r1.run_id) >= 3:
            break
    else:
        pytest.fail("service never journalled enough progress to close mid-run")
    journals = [active.enactor.journal for active in service._active.values()]
    assert any(journal._handle is not None for journal in journals)
    service.close()
    assert journals and all(journal._handle is None for journal in journals)
