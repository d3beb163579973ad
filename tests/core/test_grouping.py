"""Tests for the job-grouping workflow transformation."""

import pytest

from repro.core.grouping import group_workflow
from repro.services.base import GridData, LocalService
from repro.services.composite import CompositeService
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.workflow.builder import WorkflowBuilder


def wrapped(engine, grid, name, inputs=("x",), outputs=("y",), compute=10.0):
    descriptor = ExecutableDescriptor(
        name=name,
        access=AccessMethod("URL", "http://host"),
        value=name,
        inputs=tuple(InputSpec(p, f"-{p}", AccessMethod("GFN")) for p in inputs),
        outputs=tuple(OutputSpec(p, f"-{p}") for p in outputs),
    )
    return GenericWrapperService(engine, grid, descriptor, compute_time=compute)


@pytest.fixture
def chain3(engine, ideal_grid):
    builder = WorkflowBuilder("chain3").source("in")
    for name in ("A", "B", "C"):
        builder.service(name, wrapped(engine, ideal_grid, name))
    builder.sink("out")
    builder.connect("in:output", "A:x").connect("A:y", "B:x").connect("B:y", "C:x")
    builder.connect("C:y", "out:input")
    return builder.build()


class TestGroupFormation:
    def test_whole_chain_grouped(self, engine, chain3):
        grouped, groups = group_workflow(chain3, engine)
        assert [g.name for g in groups] == ["A+B+C"]
        assert groups[0].members == ("A", "B", "C")
        assert isinstance(groups[0].composite, CompositeService)

    def test_grouped_workflow_structure(self, engine, chain3):
        grouped, groups = group_workflow(chain3, engine)
        assert set(grouped.processors) == {"in", "A+B+C", "out"}
        assert len(grouped.links) == 2  # in->group, group->out

    def test_original_untouched(self, engine, chain3):
        group_workflow(chain3, engine)
        assert set(chain3.processors) == {"in", "A", "B", "C", "out"}

    def test_group_processor_not_regroupable(self, engine, chain3):
        grouped, _ = group_workflow(chain3, engine)
        assert not grouped.processor("A+B+C").groupable

    def test_no_chains_returns_copy(self, engine, ideal_grid, local_factory):
        from repro.workflow.patterns import figure1_workflow

        workflow = figure1_workflow(local_factory)
        grouped, groups = group_workflow(workflow, engine)
        assert groups == []
        assert set(grouped.processors) == set(workflow.processors)

    def test_local_services_not_grouped(self, engine):
        # Only generic-wrapper services expose descriptors.
        builder = WorkflowBuilder().source("in")
        builder.service("A", LocalService(engine, "A", ("x",), ("y",)))
        builder.service("B", LocalService(engine, "B", ("x",), ("y",)))
        builder.sink("out")
        builder.connect("in:output", "A:x").connect("A:y", "B:x").connect("B:y", "out:input")
        grouped, groups = group_workflow(builder.build(), engine)
        assert groups == []

    def test_local_services_break_the_chain_under_sp_dp_jg(self, engine):
        from repro.core import MoteurEnactor, OptimizationConfig

        def plus_one(x):
            return {"y": x + 1}

        builder = WorkflowBuilder().source("in")
        builder.service("A", LocalService(engine, "A", ("x",), ("y",), function=plus_one))
        builder.service("B", LocalService(engine, "B", ("x",), ("y",), function=plus_one))
        builder.sink("out")
        builder.connect("in:output", "A:x").connect("A:y", "B:x").connect("B:y", "out:input")
        enactor = MoteurEnactor(engine, builder.build(), OptimizationConfig.sp_dp_jg())
        assert enactor.groups == []
        assert enactor.run({"in": [0]}).output_values("out") == [2]

    def test_external_input_rerouted_to_group(self, engine, ideal_grid):
        # B takes A's output plus a side input from another source.
        builder = WorkflowBuilder().source("in").source("side")
        builder.service("A", wrapped(engine, ideal_grid, "A"))
        builder.service("B", wrapped(engine, ideal_grid, "B", inputs=("x", "extra")))
        builder.sink("out")
        builder.connect("in:output", "A:x").connect("A:y", "B:x")
        builder.connect("side:output", "B:extra")
        builder.connect("B:y", "out:input")
        grouped, groups = group_workflow(builder.build(), engine)
        assert [g.name for g in groups] == ["A+B"]
        group_links = grouped.links_into("A+B")
        sources = {link.source.processor for link in group_links}
        assert sources == {"in", "side"}

    def test_coordination_constraints_renamed(self, engine, ideal_grid):
        builder = WorkflowBuilder().source("in")
        builder.service("A", wrapped(engine, ideal_grid, "A"))
        builder.service("B", wrapped(engine, ideal_grid, "B"))
        builder.service("C", LocalService(engine, "C", ("x",), ("y",)), synchronization=True)
        builder.sink("out")
        builder.connect("in:output", "A:x").connect("A:y", "B:x").connect("B:y", "C:x")
        builder.connect("C:y", "out:input")
        builder.coordinate("B", "C")
        grouped, groups = group_workflow(builder.build(), engine)
        assert [g.name for g in groups] == ["A+B"]
        assert grouped.coordination_constraints == [("A+B", "C")]


class TestGroupedExecution:
    def test_job_count_halved(self, engine, ideal_grid, chain3):
        from repro.core import MoteurEnactor, OptimizationConfig

        enactor = MoteurEnactor(
            engine, chain3,
            OptimizationConfig(job_grouping=True, service_parallelism=True, data_parallelism=True),
        )
        result = enactor.run({"in": [GridData(1), GridData(2), GridData(3)]})
        assert len(ideal_grid.records) == 3  # one grouped job per item, not 9
        assert result.invocation_count == 3

    def test_makespan_sums_compute(self, engine, ideal_grid, chain3):
        from repro.core import MoteurEnactor, OptimizationConfig

        enactor = MoteurEnactor(
            engine, chain3,
            OptimizationConfig(job_grouping=True, service_parallelism=True, data_parallelism=True),
        )
        result = enactor.run({"in": [GridData(1)]})
        assert result.makespan == pytest.approx(30.0)  # 3 stages x 10s in one job
