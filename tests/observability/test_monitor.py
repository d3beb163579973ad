"""Tests for the live run monitor: progress, alerts, replay, feedback."""

import pytest

from repro.observability.alerts import AlertRules
from repro.observability.bus import InstrumentationBus
from repro.observability.monitor import HealthProvider, RunMonitor, ServiceProgress


def attach_monitor(**kwargs):
    bus = InstrumentationBus()
    collector = bus.collector()
    monitor = RunMonitor.attach(bus, **kwargs)
    return bus, collector, monitor


class TestProgress:
    def test_invocation_counting_and_in_flight(self):
        bus, _, monitor = attach_monitor(expected_items=3)
        span = bus.begin("invocation", "enactor", 0.0, processor="S", kind="invocation")
        progress = monitor.services["S"]
        assert progress.in_flight == 1 and progress.completed == 0
        bus.end(span, 10.0)
        assert progress.in_flight == 0 and progress.completed == 1
        assert progress.mean_seconds == 10.0
        assert monitor.completed_items() == 1
        assert monitor.expected_total() == 3
        assert monitor.completion_fraction() == pytest.approx(1 / 3)

    def test_synchronization_invocations_are_not_items(self):
        bus, _, monitor = attach_monitor()
        bus.record(
            "invocation", "enactor", 0.0, 5.0, processor="Sync", kind="synchronization"
        )
        assert monitor.completed_items() == 0

    def test_expected_items_mapping(self):
        _, _, monitor = attach_monitor(expected_items={"A": 2, "B": 4})
        assert monitor.expected_total() == 6
        assert monitor.services["A"].expected == 2

    def test_progress_line_and_ticks(self):
        lines = []
        bus, _, monitor = attach_monitor(
            expected_items=2, on_progress=lines.append, progress_every=1
        )
        bus.record("invocation", "enactor", 0.0, 4.0, processor="S", kind="invocation")
        assert len(lines) == 1
        assert "progress 1/2 (50%)" in lines[0]

    def test_resumed_run_counts_replayed_work(self, tmp_path):
        # journal-replayed invocations are done items: a resumed run
        # must end with the same progress as an uninterrupted one
        from repro.apps.bronze_standard import BronzeStandardApplication
        from repro.core import OptimizationConfig
        from repro.core.journal import SimulatedCrash
        from repro.grid.testbeds import egee_like_testbed
        from repro.sim.engine import Engine
        from repro.util.rng import RandomStreams

        def enact(**kwargs):
            engine = Engine()
            streams = RandomStreams(seed=42)
            grid = egee_like_testbed(
                engine, streams, n_sites=6, workers_per_ce=40, with_background_load=False
            )
            bus, _, monitor = attach_monitor(expected_items=2, policy="SP+DP")
            BronzeStandardApplication(engine, grid, streams).enact(
                OptimizationConfig.sp_dp(), n_pairs=2, instrumentation=bus, **kwargs
            )
            return monitor

        journal = str(tmp_path / "run.wal")
        with pytest.raises(SimulatedCrash):
            enact(journal=journal, crash_after=6)
        resumed = enact(journal=journal, resume=True)
        straight = enact()
        assert resumed.completed_items() == straight.completed_items()

    def test_service_progress_pending(self):
        progress = ServiceProgress(service="S", expected=5, started=3, completed=2)
        assert progress.pending == 2
        assert ServiceProgress(service="S").pending is None


class TestAlerts:
    def _fault(self, bus, t, ttf=10.0, ce="hole", job_id=1):
        bus.record(
            "job.fault", "grid", t, t + ttf, ce=ce, job_id=job_id, job_name="svc#1"
        )

    def test_fault_burst_fires_once_per_burst(self):
        bus, _, monitor = attach_monitor()
        for t in (0.0, 100.0, 200.0, 300.0):
            self._fault(bus, t)
        counts = monitor.alert_counts()
        assert counts["fault-burst"] == 1  # 3rd fault opens the burst, 4th is inside
        # after the window drains, a fresh burst alerts again
        for t in (5000.0, 5100.0, 5200.0):
            self._fault(bus, t)
        assert monitor.alert_counts()["fault-burst"] == 2

    def test_blackhole_alert_raises_once_on_transition(self):
        bus, _, monitor = attach_monitor()
        for t in (0.0, 10.0, 20.0, 30.0, 40.0):
            self._fault(bus, t, ttf=5.0)
        counts = monitor.alert_counts()
        assert counts["blackhole"] == 1
        assert monitor.flagged_ces() == ["hole"]
        burst = [a for a in monitor.alerts if a.kind == "blackhole"]
        assert burst[0].subject == "hole"
        assert burst[0].severity == "critical"

    def test_straggler_job_and_ce_alerts(self):
        bus, _, monitor = attach_monitor()
        for i in range(4):
            bus.record(
                "job.run", "grid", 0.0, 10.0,
                ce="ok", job_id=i, job_name=f"svc#{i}",
            )
        for i in range(4):
            bus.record(
                "job.run", "grid", 0.0, 10_000.0,
                ce="slow", job_id=100 + i, job_name=f"svc#{100 + i}",
            )
        job_scope = [
            a for a in monitor.alerts if a.kind == "straggler" and a.scope == "job"
        ]
        ce_scope = [
            a for a in monitor.alerts if a.kind == "straggler" and a.scope == "ce"
        ]
        assert job_scope  # individual jobs flagged against the fleet
        assert [a.subject for a in ce_scope] == ["slow"]  # CE flagged exactly once
        assert monitor.flagged_ces() == ["slow"]

    def test_queue_stall(self):
        bus, _, monitor = attach_monitor()
        bus.record("job.queue", "grid", 0.0, 4000.0, ce="ce0", job_id=7)
        stall = [a for a in monitor.alerts if a.kind == "queue-stall"]
        assert len(stall) == 1
        assert stall[0].subject == "job:7"

    def test_eta_blowout_fires_once(self):
        bus, _, monitor = attach_monitor(expected_items=10, policy="NOP")
        # mean 10s per item -> NOP model predicts 100s; two items done by
        # t=510 projects 2550s, far beyond 2x the model
        bus.record("invocation", "enactor", 0.0, 10.0, processor="S", kind="invocation")
        bus.record(
            "invocation", "enactor", 500.0, 510.0, processor="S", kind="invocation"
        )
        bus.record(
            "invocation", "enactor", 900.0, 910.0, processor="S", kind="invocation"
        )
        blowouts = [a for a in monitor.alerts if a.kind == "eta-blowout"]
        assert len(blowouts) == 1
        assert blowouts[0].scope == "run"

    def test_equal_timestamp_ordering_is_deterministic(self):
        bus, _, monitor = attach_monitor()
        # four faults all closing at t=10: the burst and blackhole alerts
        # share a timestamp, sequence numbers keep the order total
        for job in range(4):
            self._fault(bus, 0.0, ttf=10.0, job_id=job)
        ordered = monitor.sorted_alerts()
        assert [a.time for a in ordered] == [10.0, 10.0]
        assert [a.kind for a in ordered] == ["fault-burst", "blackhole"]
        assert [a.sequence for a in ordered] == [0, 1]

    def test_alert_counters_and_spans_on_the_bus(self):
        bus, collector, monitor = attach_monitor()
        for t in (0.0, 10.0, 20.0, 30.0):
            self._fault(bus, t)
        assert bus.metrics.counter("monitor.alerts.total").value == len(monitor.alerts)
        alert_spans = [s for s in collector.spans if s.category == "alert"]
        assert {s.name for s in alert_spans} == {"alert.fault-burst", "alert.blackhole"}

    def test_sinks_receive_alerts_in_emission_order(self):
        seen = []
        bus, _, monitor = attach_monitor()
        monitor.add_sink(seen.append)
        for t in (0.0, 10.0, 20.0):
            self._fault(bus, t)
        assert seen == monitor.alerts


class TestReplayInvariant:
    def test_synthetic_stream_replay_matches_live(self):
        bus, collector, live = attach_monitor(expected_items=10, policy="NOP")
        for i, t in enumerate((0.0, 10.0, 20.0, 30.0)):
            bus.record(
                "job.fault", "grid", t, t + 5.0, ce="hole", job_id=i, job_name="svc#1"
            )
        for i in range(4):
            bus.record(
                "job.run", "grid", 0.0, 10.0, ce="ok", job_id=50 + i,
                job_name=f"svc#{50 + i}",
            )
        bus.record("invocation", "enactor", 0.0, 10.0, processor="S", kind="invocation")
        # the collected stream includes the monitor's own alert spans;
        # replay must ignore them (no self-feedback) and still land on
        # the identical end state
        fresh = RunMonitor(expected_items=10, policy="NOP").replay(collector.spans)
        assert fresh.alerts == live.alerts
        assert fresh.health_table() == live.health_table()
        assert fresh.flagged_ces() == live.flagged_ces()
        assert fresh.completed_items() == live.completed_items()

    def test_faulty_run_replay_matches_live(self):
        from repro.apps.bronze_standard import BronzeStandardApplication
        from repro.core import OptimizationConfig
        from repro.grid.testbeds import faulty_testbed
        from repro.sim.engine import Engine
        from repro.util.rng import RandomStreams

        engine = Engine()
        streams = RandomStreams(seed=42)
        grid = faulty_testbed(engine, streams)
        bus = InstrumentationBus()
        collector = bus.collector()
        live = RunMonitor.attach(bus, expected_items=8, policy="SP+DP")
        app = BronzeStandardApplication(engine, grid, streams)
        config = next(
            c for c in OptimizationConfig.paper_configurations() if c.label == "SP+DP"
        )
        app.enact(config, n_pairs=8, instrumentation=bus)

        fresh = RunMonitor(expected_items=8, policy="SP+DP").replay(collector.spans)
        assert fresh.alerts == live.alerts
        assert fresh.health_table() == live.health_table()
        assert fresh.summary() == live.summary()
        # the injected pathologies -- and nothing else -- were flagged
        assert live.flagged_ces() == ["site01-ce", "site02-ce"]
        assert live.alert_counts()["blackhole"] == 1


class TestHealthProvider:
    def test_defaults_are_healthy(self):
        provider = HealthProvider()
        assert provider.penalty("any") == 0.0
        assert not provider.blacklisted("any")

    def test_unseen_ces_are_never_penalized(self):
        _, _, monitor = attach_monitor()
        assert monitor.penalty("never-observed") == 0.0
        assert not monitor.blacklisted("never-observed")
        # and asking must not pollute the health table
        assert monitor.health_table() == []

    def test_flagged_ce_is_blacklisted_and_penalized(self):
        bus, _, monitor = attach_monitor()
        for t in (0.0, 10.0, 20.0, 30.0):
            bus.record("job.fault", "grid", t, t + 5.0, ce="hole", job_id=1)
        assert monitor.blacklisted("hole")
        assert monitor.penalty("hole") == pytest.approx(RunMonitor.PENALTY_SCALE)


class TestSummary:
    def test_summary_is_json_plain(self):
        import json

        bus, _, monitor = attach_monitor(expected_items=2)
        bus.record("invocation", "enactor", 0.0, 5.0, processor="S", kind="invocation")
        summary = monitor.summary()
        assert summary["completed_items"] == 1
        assert json.loads(json.dumps(summary)) == summary

    def test_rules_flow_into_thresholds(self):
        monitor = RunMonitor(rules=AlertRules(min_samples=9))
        assert monitor.fleet.thresholds.min_samples == 9
