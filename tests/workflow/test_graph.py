"""Tests for the workflow graph model."""

import pytest

from repro.services.base import LocalService
from repro.workflow.analysis import processor_graph
from repro.workflow.graph import (
    PortRef,
    Processor,
    ProcessorKind,
    Workflow,
    WorkflowError,
)
from tests.tools.networkx_reference import to_networkx


@pytest.fixture
def simple(engine):
    wf = Workflow("simple")
    wf.add_source("src")
    wf.add_processor(
        Processor(name="P1", input_ports=("x",), output_ports=("y",))
    )
    wf.add_sink("out")
    wf.add_link("src:output", "P1:x")
    wf.add_link("P1:y", "out:input")
    return wf


class TestPortRef:
    def test_parse(self):
        ref = PortRef.parse("P1:out")
        assert ref == PortRef("P1", "out")
        assert str(ref) == "P1:out"

    def test_parse_rejects_malformed(self):
        with pytest.raises(WorkflowError):
            PortRef.parse("no-colon")
        with pytest.raises(WorkflowError):
            PortRef.parse(":port")
        with pytest.raises(WorkflowError):
            PortRef.parse("proc:")


class TestProcessor:
    def test_source_cannot_have_inputs(self):
        with pytest.raises(WorkflowError):
            Processor(name="s", kind=ProcessorKind.SOURCE, input_ports=("x",))

    def test_sink_cannot_have_outputs(self):
        with pytest.raises(WorkflowError):
            Processor(name="s", kind=ProcessorKind.SINK, output_ports=("y",))

    def test_unknown_iteration_strategy_rejected(self):
        with pytest.raises(WorkflowError, match="iteration strategy"):
            Processor(name="p", iteration_strategy="zip")

    def test_duplicate_ports_rejected(self):
        with pytest.raises(WorkflowError):
            Processor(name="p", input_ports=("x", "x"))

    def test_needs_name(self):
        with pytest.raises(WorkflowError):
            Processor(name="")

    def test_service_ports_must_match_declaration(self, engine):
        service = LocalService(engine, "svc", ("a",), ("b",))
        with pytest.raises(WorkflowError, match="do not match"):
            Processor(name="p", service=service, input_ports=("x",), output_ports=("b",))

    def test_with_service_adopts_ports(self, engine):
        service = LocalService(engine, "svc", ("a",), ("b",))
        processor = Processor(name="p").with_service(service)
        assert processor.effective_input_ports() == ("a",)
        assert processor.effective_output_ports() == ("b",)


class TestWorkflowConstruction:
    def test_duplicate_processor_rejected(self, simple):
        with pytest.raises(WorkflowError, match="duplicate"):
            simple.add_source("src")

    def test_link_to_unknown_processor_rejected(self, simple):
        with pytest.raises(WorkflowError, match="unknown processor"):
            simple.add_link("nope:y", "P1:x")

    def test_link_to_unknown_port_rejected(self, simple):
        with pytest.raises(WorkflowError, match="no input port"):
            simple.add_link("src:output", "P1:zzz")

    def test_link_direction_checked(self, simple):
        # outputs cannot be link targets
        with pytest.raises(WorkflowError):
            simple.add_link("P1:y", "src:output")

    def test_duplicate_link_rejected(self, simple):
        with pytest.raises(WorkflowError, match="duplicate link"):
            simple.add_link("src:output", "P1:x")

    def test_coordination_constraint_validation(self, simple):
        simple.add_coordination_constraint("P1", "out")
        with pytest.raises(WorkflowError):
            simple.add_coordination_constraint("ghost", "P1")
        with pytest.raises(WorkflowError, match="reflexive"):
            simple.add_coordination_constraint("P1", "P1")


class TestWorkflowInspection:
    def test_sources_sinks_services(self, simple):
        assert [p.name for p in simple.sources()] == ["src"]
        assert [p.name for p in simple.sinks()] == ["out"]
        assert [p.name for p in simple.services()] == ["P1"]

    def test_links_into_and_out_of(self, simple):
        assert len(simple.links_into("P1")) == 1
        assert len(simple.links_into("P1", port="x")) == 1
        assert len(simple.links_into("P1", port="zzz")) == 0
        assert len(simple.links_out_of("P1", port="y")) == 1

    def test_predecessors_successors(self, simple):
        assert simple.predecessors("P1") == ["src"]
        assert simple.successors("P1") == ["out"]
        assert simple.predecessors("src") == []

    def test_predecessors_deduplicated(self, engine):
        wf = Workflow()
        wf.add_source("s")
        wf.add_processor(Processor(name="P", input_ports=("a", "b"), output_ports=("y",)))
        wf.add_link("s:output", "P:a")
        wf.add_link("s:output", "P:b")
        assert wf.predecessors("P") == ["s"]

    def test_is_dag(self, simple):
        assert simple.is_dag()

    def test_cycle_detected(self):
        wf = Workflow()
        wf.add_processor(Processor(name="A", input_ports=("x",), output_ports=("y",)))
        wf.add_processor(Processor(name="B", input_ports=("x",), output_ports=("y",)))
        wf.add_link("A:y", "B:x")
        wf.add_link("B:y", "A:x")
        assert not wf.is_dag()

    def test_to_networkx(self, simple):
        # networkx is the test-side reference of the stdlib processor graph
        graph = to_networkx(simple)
        assert set(graph.nodes) == {"src", "P1", "out"}
        assert graph.number_of_edges() == 2
        assert {name: list(graph.successors(name)) for name in graph} == processor_graph(simple)

    def test_copy_is_independent(self, simple):
        clone = simple.copy()
        clone.add_sink("extra")
        assert "extra" not in simple.processors
        assert len(clone.links) == len(simple.links)

    def test_unknown_processor_lookup(self, simple):
        with pytest.raises(WorkflowError):
            simple.processor("ghost")
