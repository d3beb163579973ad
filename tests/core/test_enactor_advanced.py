"""Enactor advanced features: loops, synchronization, coordination,
iteration strategies at workflow scale, grouping end-to-end."""

import pytest

from repro.core import MoteurEnactor, NO_DATA, OptimizationConfig
from repro.services.base import LocalService
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.graph import WorkflowError
from repro.workflow.patterns import figure2_workflow


def loop_factory(engine, threshold=3):
    def factory(name, inputs, outputs):
        if name == "P1":
            return LocalService(engine, name, inputs, outputs,
                                function=lambda x: {"y": 0}, duration=1.0)
        if name == "P2":
            return LocalService(engine, name, inputs, outputs,
                                function=lambda x: {"y": x + 1}, duration=1.0)
        if name == "P3":
            def decide(x):
                if x >= threshold:
                    return {"loop": NO_DATA, "done": x}
                return {"loop": x, "done": NO_DATA}

            return LocalService(engine, name, inputs, outputs, function=decide, duration=1.0)
        raise AssertionError(name)

    return factory


class TestLoops:
    def test_loop_converges(self, engine):
        workflow = figure2_workflow(loop_factory(engine, threshold=3))
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp()).run(
            {"source": [99]}
        )
        assert result.output_values("sink") == [3]
        # P1 once + 3 iterations of (P2, P3)
        assert result.invocation_count == 7
        assert result.makespan == 7.0

    def test_loop_iteration_count_is_dynamic(self, engine):
        workflow = figure2_workflow(loop_factory(engine, threshold=5))
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp()).run(
            {"source": [0]}
        )
        assert result.output_values("sink") == [5]
        assert result.invocation_count == 1 + 2 * 5

    def test_loop_with_multiple_items(self, engine):
        workflow = figure2_workflow(loop_factory(engine, threshold=2))
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"source": [1, 2]}
        )
        assert sorted(result.output_values("sink")) == [2, 2]

    def test_loop_requires_service_parallelism(self, engine):
        workflow = figure2_workflow(loop_factory(engine))
        with pytest.raises(WorkflowError, match="loops require service parallelism"):
            MoteurEnactor(engine, workflow, OptimizationConfig.nop())

    def test_loop_with_dp_also_allowed(self, engine):
        workflow = figure2_workflow(loop_factory(engine))
        MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp())  # no raise


def sync_workflow(engine, square_duration=1.0, mean_duration=2.0):
    square = LocalService(
        engine, "square", ("x",), ("y",),
        function=lambda x: {"y": x * x}, duration=square_duration,
    )
    mean = LocalService(
        engine, "mean", ("values",), ("mu",),
        function=lambda values: {"mu": sum(values) / len(values)},
        duration=mean_duration,
    )
    return (
        WorkflowBuilder("sync")
        .source("nums")
        .service("square", square)
        .service("mean", mean, synchronization=True)
        .sink("out")
        .connect("nums:output", "square:x")
        .connect("square:y", "mean:values")
        .connect("mean:mu", "out:input")
        .build()
    )


class TestSynchronization:
    def test_barrier_waits_for_whole_stream(self, engine):
        workflow = sync_workflow(engine)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"nums": [1, 2, 3, 4]}
        )
        assert result.output_values("out") == [7.5]
        assert result.makespan == 3.0  # squares parallel (1s) + mean (2s)

    def test_sync_fires_exactly_once(self, engine):
        workflow = sync_workflow(engine)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"nums": list(range(10))}
        )
        sync_events = [e for e in result.trace.events if e.processor == "mean"]
        assert len(sync_events) == 1
        assert sync_events[0].kind == "synchronization"

    def test_sync_label_spans_stream(self, engine):
        workflow = sync_workflow(engine)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"nums": list(range(4))}
        )
        event = next(e for e in result.trace.events if e.processor == "mean")
        assert event.label == "D(0-3)"

    def test_sync_works_in_nop_mode(self, engine):
        workflow = sync_workflow(engine)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.nop()).run(
            {"nums": [1, 2]}
        )
        assert result.output_values("out") == [2.5]
        assert result.makespan == 4.0  # two serial squares + mean

    def test_sync_with_empty_stream(self, engine):
        mean = LocalService(
            engine, "mean", ("values",), ("mu",),
            function=lambda values: {"mu": len(values)}, duration=1.0,
        )
        workflow = (
            WorkflowBuilder()
            .source("nums")
            .service("mean", mean, synchronization=True)
            .sink("out")
            .connect("nums:output", "mean:values")
            .connect("mean:mu", "out:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp()).run({"nums": []})
        assert result.output_values("out") == [0]


class TestCoordinationConstraints:
    def test_constraint_target_becomes_synchronized(self, engine):
        # The paper uses coordination constraints to mark data
        # synchronization: the target waits for the whole stream.
        collect = LocalService(
            engine, "collect", ("x",), ("y",),
            function=lambda x: {"y": sum(x)}, duration=1.0,
        )
        double = LocalService(
            engine, "double", ("x",), ("y",), function=lambda x: {"y": 2 * x}, duration=1.0
        )
        workflow = (
            WorkflowBuilder()
            .source("s")
            .service("double", double)
            .service("collect", collect)  # NOT flagged; constraint will flag it
            .sink("out")
            .connect("s:output", "double:x")
            .connect("double:y", "collect:x")
            .connect("collect:y", "out:input")
            .build()
        )
        workflow.add_coordination_constraint("double", "collect")
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"s": [1, 2, 3]}
        )
        assert result.output_values("out") == [12]  # sum of doubled stream


class TestIterationStrategiesAtWorkflowScale:
    def test_cross_product_processor(self, engine):
        combine = LocalService(
            engine, "combine", ("a", "b"), ("y",),
            function=lambda a, b: {"y": f"{a}{b}"}, duration=1.0,
        )
        workflow = (
            WorkflowBuilder()
            .source("letters")
            .source("digits")
            .service("combine", combine, iteration_strategy="cross")
            .sink("out")
            .connect("letters:output", "combine:a")
            .connect("digits:output", "combine:b")
            .connect("combine:y", "out:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"letters": ["x", "y"], "digits": [1, 2, 3]}
        )
        assert sorted(result.output_values("out")) == [
            "x1", "x2", "x3", "y1", "y2", "y3"
        ]

    def test_dot_product_processor(self, engine):
        combine = LocalService(
            engine, "combine", ("a", "b"), ("y",),
            function=lambda a, b: {"y": f"{a}{b}"}, duration=1.0,
        )
        workflow = (
            WorkflowBuilder()
            .source("letters")
            .source("digits")
            .service("combine", combine, iteration_strategy="dot")
            .sink("out")
            .connect("letters:output", "combine:a")
            .connect("digits:output", "combine:b")
            .connect("combine:y", "out:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"letters": ["x", "y"], "digits": [1, 2, 3]}
        )
        assert sorted(result.output_values("out")) == ["x1", "y2"]  # min(2, 3)


class TestConditionalOutputs:
    def test_no_data_port_emits_nothing(self, engine):
        splitter = LocalService(
            engine, "split", ("x",), ("even", "odd"),
            function=lambda x: (
                {"even": x, "odd": NO_DATA} if x % 2 == 0 else {"even": NO_DATA, "odd": x}
            ),
            duration=1.0,
        )
        workflow = (
            WorkflowBuilder()
            .source("nums")
            .service("split", splitter)
            .sink("evens")
            .sink("odds")
            .connect("nums:output", "split:x")
            .connect("split:even", "evens:input")
            .connect("split:odd", "odds:input")
            .build()
        )
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"nums": [0, 1, 2, 3, 4]}
        )
        assert sorted(result.output_values("evens")) == [0, 2, 4]
        assert sorted(result.output_values("odds")) == [1, 3]
