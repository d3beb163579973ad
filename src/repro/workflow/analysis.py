"""Workflow graph analysis: paths, critical path, cycles, ordering.

Implements the quantities the performance model of Section 3.5 is
phrased in:

* a **path** is "a set of processors linking an input to an output",
* the **critical path** is "the longest path in terms of execution
  time", and ``n_W`` is the number of services on it,
* cycle detection separates DAG workflows (barrier-capable) from
  loop workflows (Figure 2), and
* topological ordering drives the task-based baseline expansion.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.workflow.graph import ProcessorKind, Workflow, WorkflowError

__all__ = [
    "processor_graph",
    "critical_path",
    "services_on_critical_path",
    "find_cycles",
    "topological_order",
    "sequential_chains",
]


def processor_graph(workflow: Workflow, constraints: bool = False) -> nx.DiGraph:
    """Collapse port-level links into a processor-level digraph.

    With ``constraints=True`` the coordination control links are
    included as edges too (they constrain order like data links do).
    """
    graph = nx.DiGraph()
    for name in workflow.processors:
        graph.add_node(name)
    for link in workflow.links:
        graph.add_edge(link.source.processor, link.target.processor)
    if constraints:
        for before, after in workflow.coordination_constraints:
            graph.add_edge(before, after)
    return graph


def critical_path(
    workflow: Workflow, durations: Optional[Mapping[str, float]] = None
) -> List[str]:
    """The source-to-sink path maximizing total duration.

    *durations* maps processor name to its per-invocation execution
    time; missing services default to 1.0 and sources/sinks to 0.0, so
    the unweighted call returns the path with the most services — the
    ``n_W`` of the paper's model under its constant-time hypothesis.
    """
    graph = processor_graph(workflow)
    if not nx.is_directed_acyclic_graph(graph):
        raise WorkflowError("critical_path requires an acyclic workflow")

    def weight(name: str) -> float:
        if durations is not None and name in durations:
            return float(durations[name])
        kind = workflow.processor(name).kind
        return 1.0 if kind is ProcessorKind.SERVICE else 0.0

    best: Dict[str, Tuple[float, List[str]]] = {}
    for name in nx.topological_sort(graph):
        incoming = [best[p] for p in graph.predecessors(name)]
        if incoming:
            base_cost, base_path = max(incoming, key=lambda item: item[0])
        else:
            base_cost, base_path = 0.0, []
        best[name] = (base_cost + weight(name), base_path + [name])
    if not best:
        return []
    # A path links an input to an output: only terminal nodes (no
    # successors) can end the critical path.
    terminals = [n for n in graph.nodes if graph.out_degree(n) == 0]
    return max((best[n] for n in terminals), key=lambda item: item[0])[1]


def services_on_critical_path(workflow: Workflow) -> int:
    """``n_W``: the number of services on the critical path (Section 3.5.1)."""
    path = critical_path(workflow)
    return sum(
        1 for name in path if workflow.processor(name).kind is ProcessorKind.SERVICE
    )


def find_cycles(workflow: Workflow) -> List[List[str]]:
    """Simple cycles of the data-link graph ([] for DAG workflows)."""
    graph = processor_graph(workflow)
    return [list(cycle) for cycle in nx.simple_cycles(graph)]


def topological_order(workflow: Workflow, constraints: bool = True) -> List[str]:
    """A deterministic topological order (lexicographic tie-breaks)."""
    graph = processor_graph(workflow, constraints=constraints)
    if not nx.is_directed_acyclic_graph(graph):
        raise WorkflowError("topological_order requires an acyclic workflow")
    return list(nx.lexicographical_topological_sort(graph))


def sequential_chains(workflow: Workflow) -> List[List[str]]:
    """Maximal chains of service processors eligible for job grouping.

    A link ``u -> v`` is *chainable* when (Section 3.6's conditions made
    precise):

    * ``u`` and ``v`` are both service processors,
    * neither is a synchronization barrier,
    * both are marked groupable,
    * both use the **dot** iteration strategy (a cross product inside a
      group would change the number of invocations, i.e. the semantics),
    * **every** data link out of ``u`` targets ``v`` (so no other
      processor — and no sink — observes u's outputs), and
    * grouping cannot skip data ``v`` needs: this follows from the
      previous bullet since any other u-to-v path would need an extra
      out-edge of ``u``.

    Chains are maximal runs of chainable links; every processor belongs
    to at most one chain.  Returned in workflow insertion order of the
    chain heads; singleton "chains" are omitted.
    """
    next_in_chain: Dict[str, str] = {}
    has_upstream: Dict[str, bool] = {}

    def chainable(u: str, v: str) -> bool:
        pu = workflow.processor(u)
        pv = workflow.processor(v)
        if pu.kind is not ProcessorKind.SERVICE or pv.kind is not ProcessorKind.SERVICE:
            return False
        if pu.synchronization or pv.synchronization:
            return False
        if not (pu.groupable and pv.groupable):
            return False
        if pu.iteration_strategy != "dot" or pv.iteration_strategy != "dot":
            return False
        out_links = workflow.links_out_of(u)
        if not out_links:
            return False
        return all(link.target.processor == v for link in out_links)

    for name in workflow.processors:
        successors = workflow.successors(name)
        if len(successors) == 1 and chainable(name, successors[0]):
            succ = successors[0]
            if succ in next_in_chain.values():
                # succ already claimed by another chain; only one
                # predecessor may claim it (first in insertion order wins)
                continue
            next_in_chain[name] = succ
            has_upstream[succ] = True

    chains: List[List[str]] = []
    for name in workflow.processors:
        if name in next_in_chain and not has_upstream.get(name, False):
            chain = [name]
            while chain[-1] in next_in_chain:
                chain.append(next_in_chain[chain[-1]])
            chains.append(chain)
    return chains
