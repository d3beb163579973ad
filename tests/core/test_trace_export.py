"""Tests for the SP ordering guarantees visible in execution traces."""


from repro.core import MoteurEnactor, OptimizationConfig
from repro.services.base import LocalService
from repro.workflow.patterns import chain_workflow


class TestServiceParallelOrdering:
    def test_sp_processes_items_in_definition_order(self, engine):
        """Equation (3)'s hidden assumption: each service consumes its
        stream in item order; the enactor's FIFO gates guarantee it."""

        def factory(name, inputs, outputs):
            return LocalService(engine, name, inputs, outputs,
                                function=lambda x: {"y": x}, duration=2.0)

        workflow = chain_workflow(factory, 3)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp()).run(
            {"input": list(range(5))}
        )
        for processor in ("P1", "P2", "P3"):
            labels = [e.label for e in result.trace.for_processor(processor)]
            assert labels == [f"D{i}" for i in range(5)], processor

    def test_rows_match_events(self, engine):
        def factory(name, inputs, outputs):
            return LocalService(engine, name, inputs, outputs, duration=1.0)

        workflow = chain_workflow(factory, 2)
        result = MoteurEnactor(engine, workflow, OptimizationConfig.sp_dp()).run(
            {"input": [0, 1]}
        )
        assert len(result.trace) == len(result.trace.events) == 4
