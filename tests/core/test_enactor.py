"""Core enactor tests: basic execution, results, provenance, errors."""

import pytest

from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.enactor import EnactmentError
from repro.services.base import LocalService
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import InputDataSet
from repro.workflow.graph import WorkflowError
from repro.workflow.patterns import chain_workflow, diamond_workflow


def value_chain(engine, length=2, duration=1.0):
    """A chain whose services actually compute (+1 per stage)."""

    def factory(name, inputs, outputs):
        return LocalService(
            engine, name, inputs, outputs, function=lambda x: {"y": x + 1}, duration=duration
        )

    return chain_workflow(factory, length)


class TestBasicExecution:
    def test_values_flow_to_sink(self, engine):
        workflow = value_chain(engine, length=3)
        result = MoteurEnactor(engine, workflow).run({"input": [0, 10]})
        assert result.output_values("result") == [3, 13]

    def test_invocation_count(self, engine):
        workflow = value_chain(engine, length=3)
        result = MoteurEnactor(engine, workflow).run({"input": [0, 10]})
        assert result.invocation_count == 6

    def test_empty_dataset_completes_instantly(self, engine):
        workflow = value_chain(engine)
        result = MoteurEnactor(engine, workflow).run({"input": []})
        assert result.makespan == 0.0
        assert result.output_values("result") == []

    def test_accepts_input_dataset_object(self, engine):
        workflow = value_chain(engine)
        dataset = InputDataSet.from_values("d", input=[5])
        result = MoteurEnactor(engine, workflow).run(dataset)
        assert result.output_values("result") == [7]

    def test_bad_dataset_type_rejected(self, engine):
        workflow = value_chain(engine)
        with pytest.raises(TypeError):
            MoteurEnactor(engine, workflow).run("not a dataset")

    def test_result_metadata(self, engine):
        workflow = value_chain(engine)
        config = OptimizationConfig.sp()
        result = MoteurEnactor(engine, workflow, config).run({"input": [1]})
        assert result.config is config
        assert result.workflow_name == workflow.name
        assert result.finished_at >= result.started_at
        assert result.makespan == result.finished_at - result.started_at

    def test_unbound_service_rejected_at_init(self, engine):
        builder = WorkflowBuilder().abstract_service("P", ("x",), ("y",))
        with pytest.raises(WorkflowError, match="no bound service"):
            MoteurEnactor(engine, builder.build())

    def test_multiple_runs_same_enactor(self, engine):
        workflow = value_chain(engine)
        enactor = MoteurEnactor(engine, workflow)
        first = enactor.run({"input": [1]})
        second = enactor.run({"input": [2, 3]})
        assert first.output_values("result") == [3]
        assert second.output_values("result") == [4, 5]

    def test_source_only_to_sink(self, engine):
        workflow = (
            WorkflowBuilder().source("s").sink("k").connect("s:output", "k:input").build()
        )
        result = MoteurEnactor(engine, workflow).run({"s": [1, 2, 3]})
        assert result.output_values("k") == [1, 2, 3]
        assert result.makespan == 0.0


class TestWorkflowParallelism:
    def test_branches_always_concurrent(self, engine):
        # Workflow parallelism is on even in NOP (Section 3.2).
        def factory(name, inputs, outputs):
            return LocalService(engine, name, inputs, outputs, duration=10.0)

        from repro.workflow.patterns import figure1_workflow

        workflow = figure1_workflow(factory)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.nop()).run(
            {"source": [0]}
        )
        # P1 then P2 || P3: 20, not 30.
        assert result.makespan == 20.0

    def test_diamond_joins_correctly(self, engine):
        def factory(name, inputs, outputs):
            if name == "D":
                return LocalService(
                    engine, name, inputs, outputs,
                    function=lambda left, right: {"y": left + right}, duration=1.0,
                )
            return LocalService(
                engine, name, inputs, outputs,
                function=lambda x: {"y": x * 2}, duration=1.0,
            )

        workflow = diamond_workflow(factory)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"source": [3]}
        )
        # A doubles (6), B and C double again (12 each), D sums (24).
        assert result.output_values("sink") == [24]


class TestProvenance:
    def test_sink_histories_trace_back_to_sources(self, engine):
        workflow = value_chain(engine, length=2)
        result = MoteurEnactor(engine, workflow).run({"input": [7, 8]})
        histories = result.histories["result"]
        assert [h.label() for h in histories] == ["D0", "D1"]
        assert all(h.depth == 2 for h in histories)

    def test_trace_labels_match_items(self, engine):
        workflow = value_chain(engine, length=1)
        result = MoteurEnactor(engine, workflow).run({"input": [0, 1, 2]})
        labels = sorted(e.label for e in result.trace.events)
        assert labels == ["D0", "D1", "D2"]


class TestErrors:
    def test_service_failure_fails_enactment(self, engine):
        def boom(x):
            raise RuntimeError("algorithm crashed")

        service = LocalService(engine, "bad", ("x",), ("y",), function=boom)
        workflow = (
            WorkflowBuilder()
            .source("s")
            .service("bad", service)
            .sink("k")
            .connect("s:output", "bad:x")
            .connect("bad:y", "k:input")
            .build()
        )
        enactor = MoteurEnactor(engine, workflow)
        with pytest.raises(EnactmentError, match="algorithm crashed"):
            enactor.run({"s": [1]})

    def test_missing_source_data_means_empty_stream(self, engine):
        workflow = value_chain(engine)
        result = MoteurEnactor(engine, workflow).run({})
        assert result.output_values("result") == []


class TestTraceConsistency:
    def test_makespan_at_least_trace_span(self, engine):
        workflow = value_chain(engine, length=3, duration=2.0)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"input": [1, 2, 3]}
        )
        assert result.makespan >= result.trace.end_time - result.trace.start_time

    def test_dp_off_never_overlaps_per_service(self, engine):
        workflow = value_chain(engine, length=2, duration=3.0)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp()).run(
            {"input": [1, 2, 3]}
        )
        assert result.trace.max_concurrency("P1") == 1
        assert result.trace.max_concurrency("P2") == 1

    def test_dp_on_overlaps(self, engine):
        workflow = value_chain(engine, length=1, duration=3.0)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.dp()).run(
            {"input": [1, 2, 3]}
        )
        assert result.trace.max_concurrency("P1") == 3
