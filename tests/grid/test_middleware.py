"""Tests for the Grid façade: submission lifecycle, staging, failures."""

import numpy as np
import pytest

from repro.grid.faults import FaultModel
from repro.grid.job import JobDescription, JobFailedError, JobState
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import LogicalFile, StorageElement
from repro.grid.testbeds import egee_like_testbed, ideal_testbed
from repro.grid.transfer import LinkParameters, NetworkModel
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE


def simple_grid(engine, streams, overhead=None, faults=None, coupling=0.0, slots=4):
    site_name = "s0"
    ce = ComputingElement(
        engine, "ce0", site_name, workers=[WorkerNode("w0", slots=slots)]
    )
    se = StorageElement("se0", site=site_name)
    return Grid(
        engine,
        streams,
        sites=[Site(name=site_name, computing_elements=[ce], storage_element=se)],
        overhead=overhead or OverheadModel.zero(),
        network=NetworkModel(
            lan=LinkParameters(latency=1.0, bandwidth=10 * MEBIBYTE),
            wan=LinkParameters(latency=5.0, bandwidth=1 * MEBIBYTE),
        ),
        faults=faults or FaultModel.none(),
        overhead_load_coupling=coupling,
    )


class TestSubmission:
    def test_job_reaches_done_with_exact_timing(self, engine, streams):
        grid = simple_grid(engine, streams, overhead=OverheadModel.from_values(
            submission=10.0, brokering=20.0, queue_extra=30.0, completion_notification=5.0
        ))
        handle = grid.submit(JobDescription(name="j", compute_time=100.0))
        record = engine.run(until=handle.completion)
        assert record.state is JobState.DONE
        assert record.makespan == pytest.approx(165.0)
        assert record.overhead == pytest.approx(65.0)

    def test_unregistered_input_rejected_at_submit(self, engine, streams):
        grid = simple_grid(engine, streams)
        with pytest.raises(ValueError, match="unregistered input"):
            grid.submit(JobDescription(name="j", input_files=("gfn://nope",)))

    def test_records_listed_in_submission_order(self, engine, streams):
        grid = simple_grid(engine, streams)
        for i in range(3):
            grid.submit(JobDescription(name=f"j{i}"))
        assert [r.name for r in grid.records] == ["j0", "j1", "j2"]

    def test_completed_records_filters(self, engine, streams):
        grid = simple_grid(engine, streams)
        handle = grid.submit(JobDescription(name="done", compute_time=1.0))
        grid.submit(JobDescription(name="pending", compute_time=10**6))
        engine.run(until=handle.completion)
        assert [r.name for r in grid.completed_records()] == ["done"]

    def test_assigning_a_bus_rebinds_the_metric_handles(self, engine, streams):
        from repro.observability.bus import InstrumentationBus

        grid = simple_grid(engine, streams)
        assert grid.instrumentation is None and grid.metrics is None
        first, second = InstrumentationBus(), InstrumentationBus()
        grid.instrumentation = first
        engine.run(until=grid.submit(JobDescription(name="a")).completion)
        grid.instrumentation = second
        engine.run(until=grid.submit(JobDescription(name="b")).completion)
        assert grid.instrumentation is second and grid.metrics.registry is second.metrics
        for bus in (first, second):
            assert bus.metrics.counter("grid.jobs.completed").value == 1
        grid.instrumentation = None
        assert grid.metrics is None


class TestStaging:
    def test_stage_in_time_charged(self, engine, streams):
        grid = simple_grid(engine, streams)
        file = LogicalFile("gfn://input", size=10 * MEBIBYTE)
        grid.add_input_file(file)
        handle = grid.submit(
            JobDescription(name="j", compute_time=0.0, input_files=(file.gfn,))
        )
        record = engine.run(until=handle.completion)
        # LAN: 1s latency + 10MiB / 10MiB/s = 2s
        assert record.stage_in_time == pytest.approx(2.0)
        assert record.makespan == pytest.approx(2.0)

    def test_outputs_registered_after_run(self, engine, streams):
        grid = simple_grid(engine, streams)
        out = LogicalFile("gfn://out/x", size=1 * MEBIBYTE)
        handle = grid.submit(JobDescription(name="j", output_files=(out,)))
        record = engine.run(until=handle.completion)
        assert grid.catalog.knows("gfn://out/x")
        assert record.stage_out_time > 0

    def test_add_input_file_requires_storage(self, engine, streams):
        grid = simple_grid(engine, streams)
        with pytest.raises(ValueError, match="no storage element"):
            grid.add_input_file(LogicalFile("gfn://x"), site_name="unknown-site")


class TestFailures:
    def test_resubmission_succeeds_eventually(self, engine):
        streams = RandomStreams(seed=2)
        grid = simple_grid(
            engine,
            streams,
            faults=FaultModel.from_values(probability=0.4, detection_delay=100.0, max_attempts=10),
        )
        handles = [grid.submit(JobDescription(name=f"j{i}", compute_time=10.0)) for i in range(20)]
        records = engine.run(until=engine.all_of([h.completion for h in handles]))
        assert all(r.state is JobState.DONE for r in records)
        assert any(r.attempts > 1 for r in records)
        retried = next(r for r in records if r.attempts > 1)
        assert len(retried.timestamps[JobState.SUBMITTED]) == retried.attempts

    def test_exhausted_attempts_fail_the_handle(self, engine, streams):
        grid = simple_grid(
            engine,
            streams,
            faults=FaultModel.from_values(probability=1.0, detection_delay=1.0, max_attempts=2),
        )
        handle = grid.submit(JobDescription(name="doomed", compute_time=1.0))
        with pytest.raises(JobFailedError) as exc_info:
            engine.run(until=handle.completion)
        assert exc_info.value.record.attempts == 2
        assert engine.now == pytest.approx(2.0)  # two detection delays


class TestLoadCoupling:
    def test_idle_grid_pays_floor_overhead(self, engine, streams):
        overhead = OverheadModel.from_values(queue_extra=100.0)
        grid = simple_grid(engine, streams, overhead=overhead, coupling=0.8)
        handle = grid.submit(JobDescription(name="lonely", compute_time=0.0))
        record = engine.run(until=handle.completion)
        # one job on 4 slots: load 0.25 -> scale 0.2 + 0.8*0.25 = 0.4
        assert record.overhead == pytest.approx(40.0)

    def test_loaded_grid_pays_full_overhead(self, engine, streams):
        overhead = OverheadModel.from_values(queue_extra=100.0)
        grid = simple_grid(engine, streams, overhead=overhead, coupling=0.8, slots=4)
        handles = [grid.submit(JobDescription(name=f"j{i}", compute_time=1.0)) for i in range(8)]
        records = engine.run(until=engine.all_of([h.completion for h in handles]))
        # 8 jobs in flight over 4 slots: load capped at 1 -> the later
        # submissions pay the full queue_extra (plus real slot contention).
        assert max(r.overhead for r in records) >= 100.0

    def test_zero_coupling_ignores_load(self, engine, streams):
        overhead = OverheadModel.from_values(queue_extra=100.0)
        grid = simple_grid(engine, streams, overhead=overhead, coupling=0.0)
        handle = grid.submit(JobDescription(name="j", compute_time=0.0))
        record = engine.run(until=handle.completion)
        assert record.overhead == pytest.approx(100.0)

    def test_invalid_coupling_rejected(self, engine, streams):
        with pytest.raises(ValueError):
            simple_grid(engine, streams, coupling=1.5)

    def test_infinite_grid_reports_zero_load(self, engine):
        grid = ideal_testbed(engine)
        assert grid.load_factor() == 0.0


class TestAlertReactor:
    def _feedback_grid(self, engine, streams):
        from repro.observability.bus import InstrumentationBus
        from repro.observability.monitor import RunMonitor

        sites = []
        for i in range(2):
            name = f"s{i}"
            ce = ComputingElement(
                engine, f"ce{i}", name, workers=[WorkerNode(f"w{i}", slots=1)]
            )
            sites.append(
                Site(
                    name=name,
                    computing_elements=[ce],
                    storage_element=StorageElement(f"se{i}", site=name),
                )
            )
        bus = InstrumentationBus()
        grid = Grid(
            engine,
            streams,
            sites=sites,
            overhead=OverheadModel.zero(),
            network=NetworkModel(
                lan=LinkParameters(latency=1.0, bandwidth=10 * MEBIBYTE),
                wan=LinkParameters(latency=5.0, bandwidth=1 * MEBIBYTE),
            ),
            faults=FaultModel.none(),
            instrumentation=bus,
        )
        monitor = RunMonitor.attach(bus)
        grid.set_health_provider(monitor)
        monitor.add_sink(grid.alert_reactor())
        return grid, bus, monitor

    def test_ce_alert_pulls_queued_jobs_to_a_healthy_ce(self, engine, streams):
        grid, bus, monitor = self._feedback_grid(engine, streams)
        # least-loaded alternates plugs ce0/ce1/ce0/ce1; each CE ends up
        # with one running job and one in dispatch limbo.  The victim
        # then ties back to ce0 as the *third* entry — the first one
        # cancel_queued can actually withdraw (limbo entries are already
        # off the policy queue).
        for i in range(4):
            grid.submit(JobDescription(name=f"plug{i}", compute_time=300.0))
            engine.run(until=float(i + 1))
        victim = grid.submit(JobDescription(name="victim", compute_time=5.0))
        engine.run(until=5.0)
        assert victim.record.computing_element == "ce0"

        # four fast faults brand ce0 a blackhole; the reactor must pull
        # the victim off its queue and the blacklist must steer the
        # resubmission to ce1
        for i in range(4):
            bus.record(
                "job.fault", "grid", 5.0, 10.0, ce="ce0", job_id=900 + i,
                job_name=f"bg#{i}",
            )
        assert monitor.flagged_ces() == ["ce0"]
        record = engine.run(until=victim.completion)
        assert record.state is JobState.DONE
        assert record.computing_element == "ce1"
        assert record.timestamps[JobState.CANCELLED]
        assert bus.metrics.counter("grid.jobs.proactive_resubmissions").value == 1
        assert bus.metrics.counter("grid.jobs.cancellations").value == 1

    def test_non_ce_alerts_are_ignored(self, engine, streams):
        from repro.observability.alerts import Alert

        grid, bus, _ = self._feedback_grid(engine, streams)
        grid.submit(JobDescription(name="plug", compute_time=100.0))
        engine.run(until=1.0)
        queued = grid.submit(JobDescription(name="waits", compute_time=1.0))
        engine.run(until=2.0)
        react = grid.alert_reactor()
        react(Alert(kind="straggler", time=2.0, subject="job:1", scope="job"))
        react(Alert(kind="eta-blowout", time=2.0, subject="run", scope="run"))
        react(Alert(kind="blackhole", time=2.0, subject="no-such-ce", scope="ce"))
        record = engine.run(until=queued.completion)
        assert record.state is JobState.DONE
        assert bus.metrics.counter("grid.jobs.cancellations").value == 0


class TestTestbeds:
    def test_ideal_job_costs_exactly_compute(self, engine):
        grid = ideal_testbed(engine)
        handle = grid.submit(JobDescription(name="j", compute_time=77.0))
        record = engine.run(until=handle.completion)
        assert record.makespan == 77.0
        assert record.overhead == 0.0

    def test_egee_overhead_regime(self, engine):
        streams = RandomStreams(seed=9)
        grid = egee_like_testbed(
            engine, streams, n_sites=4, workers_per_ce=10, with_background_load=False
        )
        handles = [grid.submit(JobDescription(name=f"j{i}", compute_time=60.0)) for i in range(40)]
        records = engine.run(until=engine.all_of([h.completion for h in handles]))
        overheads = np.array([r.overhead for r in records])
        # loaded regime: large mean, substantial variability
        assert 300 < overheads.mean() < 1200
        assert overheads.std() > 100

    def test_egee_background_load_injects_jobs(self, engine):
        streams = RandomStreams(seed=9)
        grid = egee_like_testbed(
            engine, streams, n_sites=2, workers_per_ce=4,
            with_background_load=True, background_interarrival=10.0,
        )
        handle = grid.submit(JobDescription(name="app", compute_time=600.0))
        engine.run(until=handle.completion)
        background = [r for ce in grid.computing_elements for r in [ce.completed]]
        assert sum(background) > 1  # app job plus several background jobs completed
