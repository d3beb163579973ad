"""Differential oracle: the stdlib graph analyses against networkx.

:mod:`repro.workflow.analysis` runs on the standard library; networkx
is the reference here and only here (``pytest.importorskip``: the
package itself does not import networkx).  Random workflows carry
self-links, repeated links between one pair of processors (through
different ports), coordination constraints, sources and sinks, and
processors that no link touches, so the graphs are often disconnected.

* ``Workflow.is_dag`` equals ``nx.is_directed_acyclic_graph``;
* ``topological_order`` equals ``nx.lexicographical_topological_sort``
  (with and without the coordination constraints) and raises where
  networkx finds a cycle;
* ``critical_path`` equals a longest-path walk over the networkx graph,
  ties included, for small integer durations that make ties common;
* ``find_cycles`` equals ``nx.simple_cycles`` as a set of cycles, each
  rotated to start at its smallest name; its own rotation starts each
  cycle at its earliest-added processor.

Hand mutants of ``repro.workflow.analysis``, each killed here:

1. ``lexicographic_order`` pops the *largest* ready name;
2. ``find_cycles`` drops one-processor cycles (self-links);
3. ``critical_path`` breaks ties towards the *last* predecessor;
4. ``find_cycles`` never releases blocked processors after a cycle
   closes (it misses cycles that share a prefix).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.base import LocalService
from repro.sim.engine import Engine
from repro.workflow.analysis import critical_path, find_cycles, topological_order
from repro.workflow.graph import Processor, ProcessorKind, Workflow, WorkflowError
from repro.workflow.patterns import figure2_workflow
from repro.workflow.validation import require_valid, validate_workflow
from tests.tools.networkx_reference import to_networkx

nx = pytest.importorskip("networkx")

NAMES = ("m", "c", "x", "a", "q", "f", "k")
PORTS = ("p", "r")


@st.composite
def random_workflows(draw):
    """A workflow over up to seven processors with arbitrary links."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))]
    kinds = draw(
        st.lists(
            st.sampled_from(
                [ProcessorKind.SERVICE] * 3 + [ProcessorKind.SOURCE, ProcessorKind.SINK]
            ),
            min_size=len(names),
            max_size=len(names),
        )
    )
    workflow = Workflow("random")
    for name, kind in zip(names, kinds):
        inputs = () if kind is ProcessorKind.SOURCE else PORTS
        outputs = () if kind is ProcessorKind.SINK else PORTS
        workflow.add_processor(
            Processor(name=name, kind=kind, input_ports=inputs, output_ports=outputs)
        )
    feeds = [n for n, k in zip(names, kinds) if k is not ProcessorKind.SINK]
    fed = [n for n, k in zip(names, kinds) if k is not ProcessorKind.SOURCE]
    if feeds and fed:
        links = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(feeds),
                    st.sampled_from(PORTS),
                    st.sampled_from(fed),
                    st.sampled_from(PORTS),
                ),
                max_size=14,
                unique=True,
            )
        )
        for source, out_port, target, in_port in links:
            workflow.add_link(f"{source}:{out_port}", f"{target}:{in_port}")
    if len(names) > 1:
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                max_size=3,
            )
        )
        for before, after in pairs:
            workflow.add_coordination_constraint(before, after)
    return workflow


def reference_critical_path(workflow, durations):
    """The longest-path walk over the networkx graph, ties to the first."""
    graph = to_networkx(workflow)

    def weight(name):
        if name in durations:
            return float(durations[name])
        return 1.0 if workflow.processor(name).kind is ProcessorKind.SERVICE else 0.0

    best = {}
    for name in nx.topological_sort(graph):
        incoming = [best[p] for p in graph.predecessors(name)]
        base_cost, base_path = max(incoming, key=lambda item: item[0]) if incoming else (0.0, [])
        best[name] = (base_cost + weight(name), base_path + [name])
    terminals = [n for n in graph.nodes if graph.out_degree(n) == 0]
    return max((best[n] for n in terminals), key=lambda item: item[0])[1]


def smallest_first(cycle):
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


@settings(max_examples=200, deadline=None)
@given(workflow=random_workflows())
def test_is_dag_and_topological_order_match_networkx(workflow):
    data = to_networkx(workflow)
    assert workflow.is_dag() == nx.is_directed_acyclic_graph(data)
    for constraints in (False, True):
        graph = to_networkx(workflow, constraints=constraints)
        if nx.is_directed_acyclic_graph(graph):
            expected = list(nx.lexicographical_topological_sort(graph))
            assert topological_order(workflow, constraints=constraints) == expected
        else:
            with pytest.raises(WorkflowError):
                topological_order(workflow, constraints=constraints)


@settings(max_examples=200, deadline=None)
@given(workflow=random_workflows(), data=st.data())
def test_critical_path_matches_networkx(workflow, data):
    names = list(workflow.processors)
    durations = data.draw(
        st.dictionaries(st.sampled_from(names), st.integers(0, 3), max_size=len(names))
    )
    if not workflow.is_dag():
        with pytest.raises(WorkflowError):
            critical_path(workflow, durations)
        return
    assert critical_path(workflow, durations) == reference_critical_path(workflow, durations)
    assert critical_path(workflow) == reference_critical_path(workflow, {})


@settings(max_examples=200, deadline=None)
@given(workflow=random_workflows())
def test_find_cycles_match_networkx(workflow):
    cycles = find_cycles(workflow)
    expected = sorted(smallest_first(c) for c in nx.simple_cycles(to_networkx(workflow)))
    assert sorted(smallest_first(c) for c in cycles) == expected
    rank = {name: index for index, name in enumerate(workflow.processors)}
    starts = [rank[cycle[0]] for cycle in cycles]
    assert all(rank[name] >= rank[cycle[0]] for cycle in cycles for name in cycle)
    assert starts == sorted(starts)


def _figure2():
    engine = Engine()

    def factory(name, inputs, outputs):
        return LocalService(engine, name, tuple(inputs), tuple(outputs), duration=1.0)

    return figure2_workflow(factory)


def test_figure2_loop_rotation():
    # networkx's simple_cycles picks each search root from a set, so the
    # loop's rotation varied with PYTHONHASHSEED; this is the rotation it
    # gave under PYTHONHASHSEED=5, which the stdlib search fixes.
    assert find_cycles(_figure2()) == [["P2", "P3"]]


def test_figure2_barrier_on_loop_message():
    figure2 = _figure2()
    workflow = Workflow(name=figure2.name)
    for processor in figure2.processors.values():
        if processor.name == "P2":
            processor = replace(processor, synchronization=True)
        workflow.add_processor(processor)
    for link in figure2.links:
        workflow.add_link(link.source, link.target)
    issues = [str(issue) for issue in validate_workflow(workflow)]
    assert issues == ["[error] P2: synchronization processor lies on a cycle (P2 -> P3)"]
    with pytest.raises(ValueError) as excinfo:
        require_valid(workflow)
    assert str(excinfo.value) == (
        "workflow 'figure2' is invalid: "
        "[error] P2: synchronization processor lies on a cycle (P2 -> P3)"
    )
