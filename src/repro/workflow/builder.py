"""Fluent workflow construction.

:class:`WorkflowBuilder` removes the boilerplate of assembling
processors and links by hand, for the common case where processors wrap
live services::

    wf = (
        WorkflowBuilder("demo")
        .source("images")
        .service("P1", p1_service)
        .service("P2", p2_service)
        .service("P3", p3_service)
        .connect("images:output", "P1:x")
        .connect("P1:y", "P2:x")
        .connect("P1:y", "P3:x")
        .sink("out2").sink("out3")
        .connect("P2:y", "out2:input")
        .connect("P3:y", "out3:input")
        .build()
    )
"""

from __future__ import annotations

from typing import Optional

from repro.workflow.graph import Processor, ProcessorKind, Workflow

__all__ = ["WorkflowBuilder"]


class WorkflowBuilder:
    """Chainable construction API over :class:`~repro.workflow.graph.Workflow`."""

    def __init__(self, name: str = "workflow") -> None:
        self._workflow = Workflow(name=name)
        self._built = False

    def _check_open(self) -> None:
        if self._built:
            raise RuntimeError("builder already produced its workflow; create a new builder")

    def source(self, name: str, port: str = "output") -> "WorkflowBuilder":
        """Add a data source."""
        self._check_open()
        self._workflow.add_source(name, port=port)
        return self

    def sink(self, name: str, port: str = "input") -> "WorkflowBuilder":
        """Add a data sink."""
        self._check_open()
        self._workflow.add_sink(name, port=port)
        return self

    def service(
        self,
        name: str,
        service: object,
        iteration_strategy: str = "dot",
        synchronization: bool = False,
        groupable: bool = True,
    ) -> "WorkflowBuilder":
        """Add a service processor bound to a live service object."""
        self._check_open()
        self._workflow.add_processor(
            Processor(
                name=name,
                kind=ProcessorKind.SERVICE,
                service=service,
                input_ports=tuple(service.input_ports),
                output_ports=tuple(service.output_ports),
                iteration_strategy=iteration_strategy,
                synchronization=synchronization,
                groupable=groupable,
            )
        )
        return self

    def abstract_service(
        self,
        name: str,
        input_ports: tuple,
        output_ports: tuple,
        service_ref: Optional[str] = None,
        iteration_strategy: str = "dot",
        synchronization: bool = False,
    ) -> "WorkflowBuilder":
        """Add an unbound service processor (symbolic, Scufl-style)."""
        self._check_open()
        self._workflow.add_processor(
            Processor(
                name=name,
                kind=ProcessorKind.SERVICE,
                input_ports=tuple(input_ports),
                output_ports=tuple(output_ports),
                service_ref=service_ref or name,
                iteration_strategy=iteration_strategy,
                synchronization=synchronization,
            )
        )
        return self

    def connect(self, source: str, target: str) -> "WorkflowBuilder":
        """Add a data link using ``processor:port`` notation."""
        self._check_open()
        self._workflow.add_link(source, target)
        return self

    def build(self) -> Workflow:
        """Finalize and return the workflow (builder becomes unusable)."""
        self._check_open()
        self._built = True
        return self._workflow
