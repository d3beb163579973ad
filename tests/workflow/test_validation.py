"""Tests for structural workflow validation."""

import pytest

from repro.services.base import LocalService
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.graph import Processor, ProcessorKind, Workflow
from repro.workflow.patterns import chain_workflow, figure2_workflow
from repro.workflow.validation import require_valid, validate_workflow


def severities(issues, severity):
    return [i for i in issues if i.severity == severity]


class TestValidation:
    def test_clean_workflow_no_errors(self, local_factory):
        wf = chain_workflow(local_factory, 2)
        assert severities(validate_workflow(wf), "error") == []

    def test_empty_workflow_is_error(self):
        issues = validate_workflow(Workflow())
        assert severities(issues, "error")

    def test_unbound_service_is_error(self):
        wf = Workflow()
        wf.add_processor(Processor(name="P", input_ports=("x",), output_ports=("y",)))
        issues = validate_workflow(wf)
        assert any("neither" in i.message for i in severities(issues, "error"))

    def test_service_ref_is_acceptable(self):
        wf = Workflow()
        wf.add_processor(
            Processor(name="P", input_ports=("x",), output_ports=("y",), service_ref="impl")
        )
        assert severities(validate_workflow(wf), "error") == []

    def test_unconnected_ports_warn(self, engine):
        wf = Workflow()
        wf.add_processor(
            Processor(
                name="P",
                service=LocalService(engine, "svc", ("x",), ("y",)),
                input_ports=("x",),
                output_ports=("y",),
            )
        )
        warnings = severities(validate_workflow(wf), "warning")
        messages = " ".join(w.message for w in warnings)
        assert "not fed" in messages and "feeds nothing" in messages

    def test_dangling_source_and_sink_warn(self):
        wf = Workflow()
        wf.add_source("s")
        wf.add_sink("k")
        warnings = severities(validate_workflow(wf), "warning")
        assert len(warnings) == 2

    def test_sync_on_cycle_is_error(self, engine, local_factory):
        wf = figure2_workflow(local_factory)
        sync_version = Workflow(wf.name)
        for name, processor in wf.processors.items():
            if name == "P2":
                processor = Processor(
                    name="P2",
                    kind=ProcessorKind.SERVICE,
                    service=processor.service,
                    input_ports=processor.input_ports,
                    output_ports=processor.output_ports,
                    synchronization=True,
                )
            sync_version.add_processor(processor)
        for link in wf.links:
            sync_version.add_link(link.source, link.target)
        errors = severities(validate_workflow(sync_version), "error")
        assert any("cycle" in e.message for e in errors)

    def test_require_valid_raises_on_errors(self):
        with pytest.raises(ValueError, match="invalid"):
            require_valid(Workflow())

    def test_require_valid_passes_clean(self, local_factory):
        require_valid(chain_workflow(local_factory, 1))

    def test_coordination_to_sink_warns(self, engine):
        wf = (
            WorkflowBuilder()
            .source("s")
            .service("A", LocalService(engine, "A", ("x",), ("y",)))
            .sink("k")
            .connect("s:output", "A:x")
            .connect("A:y", "k:input")
            .build()
        )
        wf.add_coordination_constraint("A", "k")
        warnings = severities(validate_workflow(wf), "warning")
        assert any("non-service" in w.message for w in warnings)
