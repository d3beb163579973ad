"""networkx views of a workflow: the reference side of the graph oracles.

networkx is a test-only dependency; :func:`to_networkx` skips the
calling test when it is not installed.
"""

import pytest


def to_networkx(workflow, constraints=False):
    """The processor-level digraph of *workflow* as a ``networkx.DiGraph``.

    Nodes are added in processor insertion order and edges in link
    order, then the coordination constraints when *constraints* is set.
    """
    nx = pytest.importorskip("networkx")
    graph = nx.DiGraph()
    graph.add_nodes_from(workflow.processors)
    graph.add_edges_from(
        (link.source.processor, link.target.processor) for link in workflow.links
    )
    if constraints:
        graph.add_edges_from(workflow.coordination_constraints)
    return graph
