"""Tests for workflow graph analysis."""

import pytest

from repro.workflow.analysis import (
    critical_path,
    find_cycles,
    sequential_chains,
    services_on_critical_path,
    topological_order,
)
from repro.workflow.graph import WorkflowError
from repro.workflow.patterns import (
    chain_workflow,
    diamond_workflow,
    figure1_workflow,
    figure2_workflow,
)


class TestCriticalPath:
    def test_unweighted_counts_services(self, local_factory):
        wf = chain_workflow(local_factory, 4)
        assert services_on_critical_path(wf) == 4

    def test_weighted_picks_heavier_branch(self, engine, local_factory):
        wf = figure1_workflow(local_factory)
        path = critical_path(wf, durations={"P2": 100.0, "P3": 1.0})
        assert "P2" in path and "P3" not in path

    def test_diamond_critical_path(self, local_factory):
        wf = diamond_workflow(local_factory)
        path = critical_path(wf, durations={"A": 1, "B": 10, "C": 1, "D": 1})
        assert path == ["source", "A", "B", "D", "sink"]


class TestCycles:
    def test_dag_has_no_cycles(self, local_factory):
        assert find_cycles(chain_workflow(local_factory, 2)) == []

    def test_figure2_loop_found(self, local_factory):
        cycles = find_cycles(figure2_workflow(local_factory))
        assert len(cycles) == 1
        assert set(cycles[0]) == {"P2", "P3"}


class TestTopologicalOrder:
    def test_respects_dependencies(self, local_factory):
        wf = diamond_workflow(local_factory)
        order = topological_order(wf)
        assert order.index("A") < order.index("B")
        assert order.index("B") < order.index("D")
        assert order.index("C") < order.index("D")

    def test_cyclic_rejected(self, local_factory):
        with pytest.raises(WorkflowError):
            topological_order(figure2_workflow(local_factory))

    def test_deterministic(self, local_factory):
        wf = diamond_workflow(local_factory)
        assert topological_order(wf) == topological_order(wf)


class TestSequentialChains:
    def test_chain_workflow_fully_groupable(self, local_factory):
        wf = chain_workflow(local_factory, 3)
        # P3 feeds the sink, so it cannot absorb further, but P1->P2->P3
        # is chainable because each service's outputs go to exactly one
        # service... except P3 whose output goes to a sink.
        chains = sequential_chains(wf)
        assert chains == [["P1", "P2", "P3"]] or chains == [["P1", "P2"]]

    def test_fanout_breaks_chain(self, local_factory):
        wf = figure1_workflow(local_factory)
        # P1 feeds both P2 and P3: nothing to group.
        assert sequential_chains(wf) == []

    def test_sync_processor_never_grouped(self, engine, local_factory):
        from repro.workflow.builder import WorkflowBuilder
        from repro.services.base import LocalService

        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)))
            .service("B", LocalService(engine, "B", ("x",), ("y",)), synchronization=True)
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "B:x")
            .connect("B:y", "k:input")
            .build()
        )
        assert sequential_chains(wf) == []

    def test_cross_strategy_breaks_chain(self, engine):
        from repro.workflow.builder import WorkflowBuilder
        from repro.services.base import LocalService

        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)))
            .service("B", LocalService(engine, "B", ("x",), ("y",)), iteration_strategy="cross")
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "B:x")
            .connect("B:y", "k:input")
            .build()
        )
        assert sequential_chains(wf) == []

    def test_ungroupable_flag_respected(self, engine):
        from repro.workflow.builder import WorkflowBuilder
        from repro.services.base import LocalService

        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)), groupable=False)
            .service("B", LocalService(engine, "B", ("x",), ("y",)))
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "B:x")
            .connect("B:y", "k:input")
            .build()
        )
        assert sequential_chains(wf) == []

    def test_bronze_standard_shape_two_chains(self, engine, streams, ideal_grid):
        from repro.apps.bronze_standard import BronzeStandardApplication

        app = BronzeStandardApplication(engine, ideal_grid, streams)
        chains = sequential_chains(app.workflow)
        assert chains == [["crestLines", "crestMatch"], ["PFMatchICP", "PFRegister"]]
