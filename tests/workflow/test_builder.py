"""Tests for the fluent workflow builder."""

import pytest

from repro.services.base import LocalService
from repro.workflow.builder import WorkflowBuilder


class TestBuilder:
    def test_builds_connected_workflow(self, engine):
        svc = LocalService(engine, "svc", ("x",), ("y",))
        wf = (
            WorkflowBuilder("demo")
            .source("in")
            .service("P", svc)
            .sink("out")
            .connect("in:output", "P:x")
            .connect("P:y", "out:input")
            .build()
        )
        assert wf.name == "demo"
        assert set(wf.processors) == {"in", "P", "out"}
        assert len(wf.links) == 2

    def test_service_flags_forwarded(self, engine):
        svc = LocalService(engine, "svc", ("x",), ("y",))
        wf = (
            WorkflowBuilder()
            .service("P", svc, iteration_strategy="cross", synchronization=True, groupable=False)
            .build()
        )
        processor = wf.processor("P")
        assert processor.iteration_strategy == "cross"
        assert processor.synchronization
        assert not processor.groupable

    def test_abstract_service(self):
        wf = (
            WorkflowBuilder()
            .abstract_service("P", ("x",), ("y",), service_ref="svc-impl")
            .build()
        )
        assert wf.processor("P").service_ref == "svc-impl"
        assert wf.processor("P").service is None

    def test_abstract_service_defaults_ref_to_name(self):
        wf = WorkflowBuilder().abstract_service("P", ("x",), ("y",)).build()
        assert wf.processor("P").service_ref == "P"

    def test_builder_single_use(self, engine):
        builder = WorkflowBuilder().source("s")
        builder.build()
        with pytest.raises(RuntimeError, match="already"):
            builder.build()
        with pytest.raises(RuntimeError):
            builder.sink("late")

    def test_custom_ports(self):
        wf = WorkflowBuilder().source("s", port="images").sink("k", port="collect").build()
        assert wf.processor("s").output_ports == ("images",)
        assert wf.processor("k").input_ports == ("collect",)
