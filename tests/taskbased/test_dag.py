"""Tests for static DAG expansion (the task-based baseline)."""

import pytest

from repro.services.base import LocalService
from repro.taskbased.dag import expand_workflow
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import InputDataSet
from repro.workflow.graph import WorkflowError
from repro.workflow.patterns import chain_workflow, figure1_workflow, figure2_workflow


class TestExpansion:
    def test_chain_replicates_per_item(self, local_factory):
        # Section 2.2: "the replication of the execution graph for every
        # input data".
        workflow = chain_workflow(local_factory, 3)
        dag = expand_workflow(workflow, {"input": list(range(4))})
        assert dag.task_count == 12  # 3 services x 4 items
        for name in ("P1", "P2", "P3"):
            assert len(dag.by_processor[name]) == 4

    def test_dependencies_follow_items(self, local_factory):
        workflow = chain_workflow(local_factory, 2)
        dag = expand_workflow(workflow, {"input": [0, 1]})
        p2_tasks = dag.by_processor["P2"]
        for task in p2_tasks:
            parents = dag.parents[task.task_id]
            assert len(parents) == 1
            parent = next(t for t in dag.tasks if t.task_id == parents[0])
            assert parent.processor == "P1"
            assert parent.combination == task.combination

    def test_roots_are_first_stage(self, local_factory):
        workflow = chain_workflow(local_factory, 2)
        dag = expand_workflow(workflow, {"input": [0, 1, 2]})
        roots = [t for t in dag.tasks if not dag.parents.get(t.task_id)]
        assert {t.processor for t in roots} == {"P1"}

    def test_branching_workflow(self, local_factory):
        workflow = figure1_workflow(local_factory)
        dag = expand_workflow(workflow, {"source": [0, 1]})
        assert dag.task_count == 6  # P1, P2, P3 x 2 items

    def test_loops_rejected(self, local_factory):
        # "there cannot be a loop in the graph of a task based workflow"
        workflow = figure2_workflow(local_factory)
        with pytest.raises(WorkflowError, match="loop"):
            expand_workflow(workflow, {"source": [0]})

    def test_task_labels(self, local_factory):
        workflow = chain_workflow(local_factory, 1)
        dag = expand_workflow(workflow, {"input": [0, 1]})
        assert [t.label for t in dag.tasks] == ["P1-D0", "P1-D1"]

    def test_edges_listing(self, local_factory):
        workflow = chain_workflow(local_factory, 2)
        dag = expand_workflow(workflow, {"input": [0]})
        assert len(dag.edges()) == 1


class TestCrossProductExplosion:
    """The Section 2.2 combinatorial-explosion argument, quantified."""

    def cross_chain(self, engine, depth, source_names):
        builder = WorkflowBuilder("cross-chain")
        for name in source_names:
            builder.source(name)
        previous = f"{source_names[0]}:output"
        for level in range(depth):
            service = LocalService(engine, f"X{level}", ("a", "b"), ("y",))
            builder.service(f"X{level}", service, iteration_strategy="cross")
            builder.connect(previous, f"X{level}:a")
            builder.connect(f"{source_names[level + 1]}:output", f"X{level}:b")
            previous = f"X{level}:y"
        builder.sink("out")
        builder.connect(previous, "out:input")
        return builder.build()

    def test_single_cross_product(self, engine):
        workflow = self.cross_chain(engine, 1, ["s0", "s1"])
        dag = expand_workflow(workflow, {"s0": list(range(5)), "s1": list(range(4))})
        assert dag.task_count == 20  # n x m

    def test_chained_cross_products_multiply(self, engine):
        workflow = self.cross_chain(engine, 3, ["s0", "s1", "s2", "s3"])
        n = 5
        dataset = {f"s{i}": list(range(n)) for i in range(4)}
        dag = expand_workflow(workflow, dataset)
        # level 0: n^2, level 1: n^3, level 2: n^4
        assert dag.task_count == n**2 + n**3 + n**4
        # "intractable even for a limited number (tens) of input data":
        # the service workflow stays at 3 processors.
        assert len(workflow.services()) == 3


class TestSynchronizationExpansion:
    def test_sync_becomes_single_task(self, engine):
        mean = LocalService(engine, "mean", ("v",), ("mu",))
        square = LocalService(engine, "square", ("x",), ("y",))
        workflow = (
            WorkflowBuilder()
            .source("s")
            .service("square", square)
            .service("mean", mean, synchronization=True)
            .sink("out")
            .connect("s:output", "square:x")
            .connect("square:y", "mean:v")
            .connect("mean:mu", "out:input")
            .build()
        )
        dag = expand_workflow(workflow, {"s": list(range(5))})
        assert len(dag.by_processor["mean"]) == 1
        sync_task = dag.by_processor["mean"][0]
        assert len(dag.parents[sync_task.task_id]) == 5

    def test_dataset_object_accepted(self, local_factory):
        workflow = chain_workflow(local_factory, 1)
        dataset = InputDataSet.from_values("d", input=[1, 2])
        assert expand_workflow(workflow, dataset).task_count == 2
