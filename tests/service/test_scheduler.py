"""End-to-end tests of the multi-tenant enactment service."""

import pytest

from repro.grid.job import JobState
from repro.grid.testbeds import cluster_testbed
from repro.service import (
    EnactmentService,
    EnactmentServiceError,
    InMemoryStateStore,
    RunState,
    SQLiteStateStore,
    TenantSpec,
)


def small_cluster(engine, streams):
    """A modest shared cluster: enough slots, fast to simulate."""
    return cluster_testbed(engine, streams, workers=4, slots_per_worker=2)


def one_slot_cluster(engine, streams):
    """A single-slot cluster: everything contends, jobs queue up."""
    return cluster_testbed(engine, streams, workers=1, slots_per_worker=1)


def make_service(policy="fair-share", max_runs=4, testbed=small_cluster, store=None):
    return EnactmentService(
        store if store is not None else InMemoryStateStore(),
        policy=policy,
        max_concurrent_runs=max_runs,
        testbed=testbed,
        seed=0,
    )


class TestMultiTenantEnactment:
    def test_three_tenants_six_runs_all_done(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="alice", weight=2.0, max_concurrent_runs=2))
        service.add_tenant(TenantSpec(name="bob", max_concurrent_runs=2))
        service.add_tenant(TenantSpec(name="carol", max_concurrent_runs=1))
        for tenant in ("alice", "bob", "carol"):
            service.submit(tenant, n_items=1)
            service.submit(tenant, n_items=1)
        runs = service.drain()
        assert len(runs) == 6
        assert all(run.state is RunState.DONE for run in runs)
        # The paper's job accounting holds per run on the shared grid:
        # 6 submissions per image pair, attributed by the run tag.
        for run in runs:
            assert run.result["grid_jobs"] == 6 * run.n_items
            assert run.result["invocations"] > 0
            assert run.makespan is not None and run.makespan > 0

    def test_per_tenant_concurrency_quota_serializes_runs(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="carol", max_concurrent_runs=1))
        service.submit("carol", n_items=1)
        service.submit("carol", n_items=1)
        first, second = sorted(service.drain(), key=lambda r: r.started_at)
        assert first.state is RunState.DONE and second.state is RunState.DONE
        # quota 1: the second run only starts once the first finished
        assert second.started_at >= first.finished_at

    def test_fair_share_interleaves_tenants_where_fifo_batches(self):
        def admission_order(policy):
            service = make_service(policy=policy, max_runs=1)
            service.add_tenant(TenantSpec(name="a"))
            service.add_tenant(TenantSpec(name="b"))
            for tenant in ("a", "a", "b", "b"):
                service.submit(tenant, n_items=1)
            runs = service.drain()
            return [run.tenant for run in sorted(runs, key=lambda r: r.started_at)]

        assert admission_order("fifo") == ["a", "a", "b", "b"]
        # Fair share: b gets the second slot despite a's earlier seqs
        # (provisional charge), and neither tenant's second run waits
        # for the other tenant's whole batch.  The exact tail order
        # depends on measured makespans, so assert the invariant, not
        # one permutation.
        fair = admission_order("fair-share")
        assert fair[:2] == ["a", "b"]
        assert set(fair[2:]) == {"a", "b"}

    def test_grid_job_quota_too_small_is_reported_as_stuck(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="a", max_grid_jobs=6))
        service.submit("a", n_items=2)  # estimate 12 jobs > quota 6
        with pytest.raises(EnactmentServiceError, match="stuck"):
            service.drain()

    def test_submit_validates_inputs(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        with pytest.raises(EnactmentServiceError, match="unknown tenant"):
            service.submit("nobody")
        with pytest.raises(EnactmentServiceError, match="unknown configuration"):
            service.submit("a", config_label="WARP")
        with pytest.raises(EnactmentServiceError, match="unknown workload"):
            service.submit("a", workload="mandelbrot")

    def test_usage_ledger_lands_in_store(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        service.submit("a", n_items=1)
        service.drain()
        usage = service.store.load_usage()
        assert "a" in usage and usage["a"][0] > 0


class TestCancellation:
    def test_cancel_queued_run_goes_terminal_immediately(self):
        service = make_service(max_runs=1)
        service.add_tenant(TenantSpec(name="a", max_concurrent_runs=2))
        first = service.submit("a", n_items=1)
        second = service.submit("a", n_items=1)
        service.tick(max_events=5)  # admit + start the first run only
        cancelled = service.cancel(second.run_id, reason="operator says no")
        assert cancelled.state is RunState.CANCELLED
        assert cancelled.error == "operator says no"
        runs = {run.run_id: run for run in service.drain()}
        assert runs[first.run_id].state is RunState.DONE
        assert runs[second.run_id].state is RunState.CANCELLED

    def test_cancel_running_run_releases_queued_grid_jobs(self):
        service = make_service(testbed=one_slot_cluster, max_runs=2)
        service.add_tenant(TenantSpec(name="a"))
        service.add_tenant(TenantSpec(name="b"))
        victim = service.submit("a", n_items=1)
        survivor = service.submit("b", n_items=1)

        def queued_for(run_id):
            return sum(
                1
                for ce in service.grid.computing_elements
                for entry in ce.policy.entries()
                if entry.record.description.tags.get("run") == run_id
            )

        # Step in small bites until the victim is RUNNING with jobs
        # actually waiting in the shared batch queue.
        for _ in range(400):
            service.tick(max_events=5)
            if (
                service.status(victim.run_id).state is RunState.RUNNING
                and queued_for(victim.run_id) > 0
            ):
                break
        else:
            pytest.fail("victim never reached RUNNING with queued grid jobs")

        record = service.cancel(victim.run_id, reason="mid-run cancel")
        assert record.state is RunState.CANCELLED
        assert record.error == "mid-run cancel"
        # cancel_queued(resubmit=False) withdrew the run's queued jobs...
        assert record.result["cancelled_jobs"] > 0
        assert queued_for(victim.run_id) == 0
        # ...and the released capacity lets the other tenant finish.
        runs = {run.run_id: run for run in service.drain()}
        assert runs[survivor.run_id].state is RunState.DONE
        assert runs[victim.run_id].state is RunState.CANCELLED

    def test_cancelled_run_submits_no_further_grid_jobs(self):
        """Without DP every service has one slot, so invocations wait on
        its gate; once the run is cancelled (and its queued jobs were
        withdrawn for good) they must not submit fresh jobs."""
        service = make_service(testbed=one_slot_cluster)
        service.add_tenant(TenantSpec(name="a"))
        run = service.submit("a", n_items=3, config_label="NOP")
        for _ in range(400):
            service.tick(max_events=5)
            if service.grid.records:
                break
        else:
            pytest.fail("the run never submitted a grid job")
        cancelled_at = service.engine.now
        assert service.cancel(run.run_id).state is RunState.CANCELLED
        service.drain()
        service.engine.run()  # let the abandoned enactment's processes unwind
        late = [
            record
            for record in service.grid.records
            if record.first(JobState.SUBMITTED) > cancelled_at
        ]
        assert late == []

    def test_cancel_is_idempotent_and_rejects_unknown_runs(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="a"))
        run = service.submit("a", n_items=1)
        service.cancel(run.run_id)
        again = service.cancel(run.run_id, reason="second try")
        assert again.state is RunState.CANCELLED
        assert again.error != "second try"  # first cancellation stands
        with pytest.raises(EnactmentServiceError, match="unknown run"):
            service.cancel("svc-9999")


class TestRecovery:
    def test_recover_requeues_orphaned_running_runs(self, tmp_path):
        store = SQLiteStateStore(str(tmp_path / "state"))
        service = make_service(store=store)
        service.add_tenant(TenantSpec(name="a"))
        run = service.submit("a", n_items=1)
        # Fake a kill: the store says RUNNING but nothing is active.
        started = run.advance(RunState.RUNNING)
        started.started_at = 1.0
        store.put_run(started)
        requeued = service.recover()
        assert [r.run_id for r in requeued] == [run.run_id]
        assert requeued[0].state is RunState.QUEUED
        assert requeued[0].resume is True
        assert requeued[0].started_at is None


class TestBackgroundWorker:
    def test_threaded_service_front_completes_submissions(self):
        service = make_service()
        service.add_tenant(TenantSpec(name="a", max_concurrent_runs=2))
        service.start(poll=0.001)
        try:
            first = service.submit("a", n_items=1)
            second = service.submit("a", n_items=1)
            import time

            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                states = {service.status(r.run_id).state for r in (first, second)}
                if states == {RunState.DONE}:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("background worker did not finish the runs")
        finally:
            service.stop()
        assert service.status(first.run_id).result["grid_jobs"] == 6
