"""Service-based workflow model (Section 2).

A workflow is a directed graph of *processors* (graph nodes) carrying
*ports*, connected by data *links* (graph arrows), plus optional
*coordination constraints* (control links used, as in the paper, to
mark data-synchronization barriers).  Two special processor kinds
exist: **data sources** (no input ports) and **data sinks** (no output
ports).

Unlike task-based DAGs, service-based workflows may contain **loops**
(Figure 2) — an input port can collect data from several sources and a
processor can feed an upstream processor, which is how iterative
optimization algorithms are composed.  The model therefore validates
structure without forbidding cycles; only executions that require
stream barriers (service parallelism disabled, synchronization
processors) demand acyclicity of the relevant region.
"""

from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import DataItem, InputDataSet, dataset_from_xml, dataset_to_xml
from repro.workflow.graph import Link, PortRef, Processor, ProcessorKind, Workflow, WorkflowError
from repro.workflow.scufl import workflow_from_scufl, workflow_to_scufl
from repro.workflow.validation import ValidationIssue, validate_workflow

__all__ = [
    "Workflow",
    "WorkflowError",
    "Processor",
    "ProcessorKind",
    "PortRef",
    "Link",
    "WorkflowBuilder",
    "InputDataSet",
    "DataItem",
    "dataset_from_xml",
    "dataset_to_xml",
    "workflow_from_scufl",
    "workflow_to_scufl",
    "validate_workflow",
    "ValidationIssue",
]
