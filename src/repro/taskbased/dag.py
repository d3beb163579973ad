"""Static DAG expansion of a service workflow over an input data set.

"In a task based workflow, a computation task is defined by a single
input data set and a single processing. [...] This approach enforces
the replication of the execution graph for every input data to be
processed" (Section 2.2) — and with iteration strategies in play, "a
cross product produces an enormous amount of tasks and chaining cross
products just makes the application workflow representation intractable
even for a limited number (tens) of input data."

:func:`expand_workflow` performs exactly that replication: it walks the
(acyclic) workflow in topological order and materializes one
:class:`TaskInstance` per invocation the service enactor *would*
perform, wiring parent/child edges between instances.  Loops raise —
"there cannot be a loop in the graph of a task based workflow".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Mapping, Tuple

from repro.workflow.analysis import topological_order
from repro.workflow.datasets import InputDataSet
from repro.workflow.graph import ProcessorKind, Workflow, WorkflowError

__all__ = ["TaskInstance", "StaticDag", "expand_workflow"]


@dataclass(frozen=True)
class TaskInstance:
    """One statically declared task: a processor applied to one combination.

    ``combination`` maps each ancestor source to the tuple of item
    indices involved — the static analogue of a history tree's lineage.
    """

    task_id: int
    processor: str
    combination: Tuple[Tuple[str, Tuple[int, ...]], ...]

    @property
    def label(self) -> str:
        """Human-readable task name (processor + item indices)."""
        indices = sorted({i for _, idx in self.combination for i in idx})
        if not indices:
            return self.processor
        return f"{self.processor}-D{'_'.join(str(i) for i in indices)}"


@dataclass
class StaticDag:
    """The fully expanded task graph."""

    tasks: List[TaskInstance] = field(default_factory=list)
    #: child task_id -> tuple of parent task_ids
    parents: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: processor name -> its task instances, in creation order
    by_processor: Dict[str, List[TaskInstance]] = field(default_factory=dict)

    @property
    def task_count(self) -> int:
        """Total number of static tasks (the paper's explosion metric)."""
        return len(self.tasks)

    def edges(self) -> List[Tuple[int, int]]:
        """All (parent, child) edges."""
        return [
            (parent, child)
            for child, parent_ids in self.parents.items()
            for parent in parent_ids
        ]


def expand_workflow(workflow: Workflow, dataset: "InputDataSet | Mapping") -> StaticDag:
    """Statically expand *workflow* over *dataset* (see module docstring).

    Sources and sinks do not become tasks (they are data placement, not
    computation); synchronization processors become a single task
    depending on every instance of their predecessors.
    """
    if not workflow.is_dag():
        raise WorkflowError(
            "task-based workflows cannot contain loops: the number of "
            "iterations cannot be statically described (Section 2.1)"
        )
    if not isinstance(dataset, InputDataSet):
        dataset = InputDataSet.from_values("adhoc", **{k: list(v) for k, v in dict(dataset).items()})

    dag = StaticDag()
    next_id = 0
    # processor -> list of (combination, producing_task_id or None for sources)
    streams: Dict[str, List[Tuple[Tuple[Tuple[str, Tuple[int, ...]], ...], "int | None"]]] = {}

    for name in topological_order(workflow, constraints=False):
        processor = workflow.processor(name)
        if processor.kind is ProcessorKind.SOURCE:
            items = dataset.items(name)
            streams[name] = [
                (((name, (index,)),), None) for index in range(len(items))
            ]
            continue
        if processor.kind is ProcessorKind.SINK:
            continue

        # Gather the per-port input streams (concatenating multi-link ports).
        port_streams: List[List[Tuple[tuple, "int | None"]]] = []
        for port in processor.effective_input_ports():
            merged: List[Tuple[tuple, "int | None"]] = []
            for link in workflow.links_into(name, port):
                merged.extend(streams.get(link.source.processor, []))
            port_streams.append(merged)

        instances: List[Tuple[tuple, "int | None"]] = []
        if processor.synchronization:
            # One task over everything upstream.
            combination = _merge_combinations(
                [combo for stream in port_streams for combo, _ in stream]
            )
            parent_ids = tuple(
                tid for stream in port_streams for _, tid in stream if tid is not None
            )
            task = TaskInstance(task_id=next_id, processor=name, combination=combination)
            next_id += 1
            dag.tasks.append(task)
            dag.parents[task.task_id] = parent_ids
            dag.by_processor.setdefault(name, []).append(task)
            instances.append((combination, task.task_id))
        else:
            if not port_streams:
                combos: List[Tuple[Tuple[tuple, "int | None"], ...]] = [()]
            elif processor.iteration_strategy == "dot":
                width = min(len(s) for s in port_streams)
                combos = [tuple(s[i] for s in port_streams) for i in range(width)]
            else:  # cross
                combos = list(product(*port_streams))
            for combo in combos:
                combination = _merge_combinations([c for c, _ in combo])
                parent_ids = tuple(tid for _, tid in combo if tid is not None)
                task = TaskInstance(
                    task_id=next_id, processor=name, combination=combination
                )
                next_id += 1
                dag.tasks.append(task)
                dag.parents[task.task_id] = parent_ids
                dag.by_processor.setdefault(name, []).append(task)
                instances.append((combination, task.task_id))
        streams[name] = instances

    return dag


def _merge_combinations(
    combos: "List[Tuple[Tuple[str, Tuple[int, ...]], ...]]",
) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """Union the (source -> indices) maps of several combinations."""
    merged: Dict[str, set] = {}
    for combo in combos:
        for source, indices in combo:
            merged.setdefault(source, set()).update(indices)
    return tuple(
        (source, tuple(sorted(indices))) for source, indices in sorted(merged.items())
    )
