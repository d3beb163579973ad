"""Cross-layer integration: grid failures surfacing through enactments,
trace/job-record linkage, batch fairness under load."""

import pytest

from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.enactor import EnactmentError
from repro.grid.faults import FaultModel
from repro.grid.job import JobState
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.storage import StorageElement
from repro.grid.transfer import NetworkModel
from repro.services.base import GridData
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.util.rng import RandomStreams
from repro.workflow.builder import WorkflowBuilder


def wrapped(engine, grid, name, compute=10.0, program=None):
    descriptor = ExecutableDescriptor(
        name=name,
        access=AccessMethod("URL", "http://host"),
        value=name,
        inputs=(InputSpec("x", "-i", AccessMethod("GFN")),),
        outputs=(OutputSpec("y", "-o"),),
    )
    return GenericWrapperService(
        engine, grid, descriptor,
        program=program or (lambda x: {"y": (x or 0) + 1}),
        compute_time=compute,
    )


class TestGridFailuresThroughEnactment:
    def _grid(self, engine, probability, max_attempts=2):
        ce = ComputingElement(engine, "ce", "s0", workers=[WorkerNode("w", slots=8)])
        return Grid(
            engine,
            RandomStreams(seed=4),
            sites=[Site("s0", [ce], StorageElement("se", "s0"))],
            overhead=OverheadModel.zero(),
            network=NetworkModel.instantaneous(),
            faults=FaultModel.from_values(
                probability=probability, detection_delay=5.0, max_attempts=max_attempts
            ),
        )

    def test_permanent_job_failure_fails_enactment(self, engine):
        grid = self._grid(engine, probability=1.0)
        service = wrapped(engine, grid, "doomed")
        workflow = (
            WorkflowBuilder()
            .source("in").service("doomed", service).sink("out")
            .connect("in:output", "doomed:x").connect("doomed:y", "out:input")
            .build()
        )
        enactor = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp())
        with pytest.raises(EnactmentError, match="failed"):
            enactor.run({"in": [1]})

    def test_transient_failures_recovered_transparently(self, engine):
        grid = self._grid(engine, probability=0.3, max_attempts=10)
        service = wrapped(engine, grid, "flaky", compute=1.0)
        workflow = (
            WorkflowBuilder()
            .source("in").service("flaky", service).sink("out")
            .connect("in:output", "flaky:x").connect("flaky:y", "out:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"in": list(range(20))}
        )
        assert sorted(result.output_values("out")) == list(range(1, 21))
        assert any(r.attempts > 1 for r in grid.records)

    def test_resubmission_visible_in_makespan(self, engine):
        grid = self._grid(engine, probability=1.0, max_attempts=3)
        handle = grid.submit(
            __import__("repro.grid.job", fromlist=["JobDescription"]).JobDescription(
                name="j", compute_time=1.0
            )
        )
        from repro.grid.job import JobFailedError

        with pytest.raises(JobFailedError):
            engine.run(until=handle.completion)
        # three attempts x 5s detection delay
        assert engine.now == pytest.approx(15.0)


class TestTraceJobLinkage:
    def test_trace_events_reference_real_jobs(self, engine, ideal_grid):
        service = wrapped(engine, ideal_grid, "tool")
        workflow = (
            WorkflowBuilder()
            .source("in").service("tool", service).sink("out")
            .connect("in:output", "tool:x").connect("tool:y", "out:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"in": [0, 1, 2]}
        )
        job_ids = {r.job_id for r in ideal_grid.records}
        for event in result.trace.events:
            assert len(event.job_ids) == 1
            assert event.job_ids[0] in job_ids

    def test_trace_times_bracket_job_lifecycle(self, engine, ideal_grid):
        service = wrapped(engine, ideal_grid, "tool", compute=10.0)
        workflow = (
            WorkflowBuilder()
            .source("in").service("tool", service).sink("out")
            .connect("in:output", "tool:x").connect("tool:y", "out:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run({"in": [0]})
        event = result.trace.events[0]
        record = ideal_grid.records[0]
        assert event.start <= record.first(JobState.SUBMITTED)
        assert event.end >= record.last(JobState.DONE)


class TestFairShareUnderLoad:
    def test_application_progresses_despite_background_flood(self, engine):
        from repro.grid.batch import FairSharePolicy
        from repro.grid.load import BackgroundLoad

        streams = RandomStreams(seed=8)
        ce = ComputingElement(
            engine, "ce", "s0",
            workers=[WorkerNode("w", slots=2)],
            policy=FairSharePolicy(engine),
        )
        grid = Grid(
            engine, streams,
            sites=[Site("s0", [ce], StorageElement("se", "s0"))],
            overhead=OverheadModel.zero(),
            network=NetworkModel.instantaneous(),
        )
        BackgroundLoad(engine, [ce], rng=streams.get("bg"),
                       interarrival=1.0, duration=30.0)
        engine.run(until=100.0)  # let the flood build up a deep queue
        service = wrapped(engine, grid, "app", compute=5.0)
        event = service.invoke({"x": GridData(0)})
        start = engine.now
        engine.run(until=event)
        waited = engine.now - start
        # fair share: our single job is served within ~one rotation, not
        # behind the entire background queue (which holds > 60 jobs).
        assert waited < 120.0
