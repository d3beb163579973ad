"""Live control-plane telemetry: rollups, replay equivalence, SLO burns.

The rollups the console and exporter display must (a) sum exactly to
the independently accumulated global totals, (b) agree with the run
records the store holds, and (c) be reproducible by replaying the
recorded span stream and audit trail — the same contract the run
monitor honours at enactment level.
"""

import pytest

from repro.grid.testbeds import cluster_testbed
from repro.observability import InstrumentationBus
from repro.observability.ops import ControlPlaneTelemetry
from repro.observability.ops.slo import SLO
from repro.observability.runstore import RunStore
from repro.service import (
    EnactmentService,
    InMemoryStateStore,
    RunState,
    TenantSpec,
)


def small_cluster(engine, streams):
    return cluster_testbed(engine, streams, workers=4, slots_per_worker=2)


def make_service(**overrides):
    kwargs = dict(
        store=InMemoryStateStore(),
        policy="fair-share",
        max_concurrent_runs=3,
        testbed=small_cluster,
        seed=0,
    )
    kwargs.update(overrides)
    store = kwargs.pop("store")
    return EnactmentService(store, **kwargs)


def run_traffic(service):
    service.add_tenant(TenantSpec(name="alice", weight=2.0, max_concurrent_runs=2))
    service.add_tenant(TenantSpec(name="bob", weight=1.0, max_concurrent_runs=1))
    service.submit("alice", n_items=1, seed=1)
    service.submit("bob", n_items=1, seed=2)
    service.submit("bob", n_items=1, seed=3)
    service.drain()
    return service


ADDITIVE_FIELDS = (
    "submitted", "done", "failed", "cancelled", "recovered", "quota_blocks",
    "invocations", "jobs_started", "jobs_completed", "jobs_failed",
    "cpu_seconds", "queued", "running",
)


class TestLiveRollups:
    def test_per_tenant_sums_equal_global_totals(self):
        service = run_traffic(make_service(instrumentation=InstrumentationBus()))
        totals = service.telemetry.totals()
        rollups = service.telemetry.rollups()
        assert totals.submitted == 3 and totals.done == 3
        for attribute in ADDITIVE_FIELDS:
            total = getattr(totals, attribute)
            summed = sum(getattr(r, attribute) for r in rollups)
            if isinstance(total, float):
                # float accumulation order differs between buckets
                assert summed == pytest.approx(total), attribute
            else:
                assert summed == total, attribute
        assert sorted(
            w for r in rollups for w in r.admission_waits
        ) == sorted(totals.admission_waits)

    def test_rollups_agree_with_run_records(self):
        service = run_traffic(make_service(instrumentation=InstrumentationBus()))
        records = service.runs()
        for rollup in service.telemetry.rollups():
            own = [r for r in records if r.tenant == rollup.tenant]
            assert rollup.submitted == len(own)
            assert rollup.done == sum(
                1 for r in own if r.state is RunState.DONE
            )
            # the run result counts every firing (failed attempts
            # included); the rollup counts processed items only
            assert 0 < rollup.invocations <= sum(
                r.result.get("invocations", 0) for r in own
            )
            assert rollup.jobs_completed == sum(
                r.result.get("grid_jobs", 0) for r in own
            )
            assert sorted(rollup.makespans) == sorted(
                r.makespan for r in own if r.makespan is not None
            )

    def test_rollups_without_instrumentation_still_track_audit_side(self):
        service = run_traffic(make_service())
        alice = service.telemetry.tenant("alice")
        assert alice.submitted == 1 and alice.done == 1
        # span-derived fields stay zero without a bus — and the global
        # totals stay consistent with that
        assert alice.invocations == 0
        assert service.telemetry.totals().invocations == 0


class TestReplayEquivalence:
    def test_replaying_spans_and_audit_reproduces_live_snapshot(self):
        bus = InstrumentationBus()
        collector = bus.collector()
        service = run_traffic(make_service(instrumentation=bus))

        replayed = ControlPlaneTelemetry()
        replayed.replay(collector.spans)
        replayed.replay_audit(service.audit())
        assert replayed.snapshot() == service.telemetry.snapshot()


class TestSLOBurns:
    def test_starved_tenant_trips_queue_wait_burn(self):
        seen = []
        service = make_service(
            instrumentation=InstrumentationBus(),
            slos=[
                SLO(
                    name="queue-wait-p95",
                    kind="queue-wait",
                    objective=1.0,
                    burn_threshold=2.0,
                    min_samples=2,
                )
            ],
            alert_sinks=[seen.append],
        )
        run_traffic(service)
        burns = [a for a in seen if a.kind == "slo-burn"]
        assert burns, "quota-starved tenant never tripped the queue-wait SLO"
        assert any(a.subject == "queue-wait-p95/bob" for a in burns)
        assert service.slo_tracker.alerts == seen
        # the bus-side counter every row carries and compare-runs gates
        snap = service.instrumentation.metrics.snapshot()
        assert snap.counter("monitor.alerts.slo-burn") == len(burns)

    def test_healthy_traffic_does_not_burn_default_slos(self):
        service = run_traffic(make_service(instrumentation=InstrumentationBus()))
        assert service.slo_tracker.alerts == []


class TestDriftRows:
    def test_service_drift_matches_the_model(self, tmp_path):
        # each row's drift excerpt is fitted on the Bronze critical path
        # and that run's grid records; with three runs sharing the
        # constant-overhead cluster the model still matches every run,
        # with a non-zero y-intercept
        runstore = RunStore(tmp_path / "runstore")
        service = make_service(runstore=runstore)
        service.add_tenant(TenantSpec(name="alice", max_concurrent_runs=3))
        for pairs in (1, 2, 4):
            service.submit("alice", n_items=pairs, seed=3)
        service.drain()
        rows = runstore.runs()
        assert sorted(row.n_items for row in rows) == [1, 2, 4]
        for row in rows:
            assert row.drift["relative_error"] < 0.01, row.drift
            assert row.drift["y_intercept"] > 0.0, row.drift


class TestPerfCounters:
    def test_throughput_counters_stay_out_of_runstore_rows(self, tmp_path):
        runstore = RunStore(tmp_path / "runstore")
        service = run_traffic(
            make_service(
                instrumentation=InstrumentationBus(), runstore=runstore
            )
        )
        assert len(runstore) == 3
        # wall-clock numbers are live only: a row must compare exactly
        for row in runstore.runs():
            assert not [k for k in row.counters if k.startswith(("perf.", "engine."))]
        live = service.perf_counters()
        assert live["perf.ticks"] > 0
        assert live["perf.wall_seconds"] >= 0.0
        assert live["perf.events"] == service.engine.events_processed
        if "perf.events_per_sec" in live:
            assert live["perf.events_per_sec"] > 0
