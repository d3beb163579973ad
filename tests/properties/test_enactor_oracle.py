"""Differential oracle: the production enactor against a reference enactor.

:class:`ReferenceEnactor` below is the specification of *what* an
enactment computes, with everything that makes the production enactor
hard to get right taken out: no engine and no simulated time, so no
service or data parallelism and no arrival races; no cache, journal or
failure containment.  It walks the processors in topological order and
hands each one its *whole* input streams at once — a dot product pairs
the lineage-compatible tokens, a cross product takes all pairs, a
synchronization barrier is one call over the whole streams — deriving
every output history with :meth:`HistoryTree.derive`.

Every policy of :class:`MoteurEnactor` must collect, at every sink, the
reference's multiset of ``(value, history.label(), history tree)`` on
random workflows whose per-item durations make DP and SP deliver tokens
out of order.  (A barrier's parents are compared as a multiset: their
order within a port is the arrival order, which only the production
enactor has.  ``LocalService`` chains never group, so the ``+JG`` run
checks that the grouping pass leaves such a workflow alone.)

Hand mutants of ``src/repro/core/enactor.py``, each killed by this test:

1. derive an invocation's history from the binding's own (arrival) port
   order instead of ``sorted(binding)``;
2. drop the last token of each barrier port's stream from the inputs;
3. a barrier that does not wait for its predecessors to drain;
4. derive output histories from the first parent only (lineage lost, so
   downstream dot products pair the wrong tokens or none);
5. ``_check_drained`` marking a stream drained one invocation early
   (``done + 1 >= expected``), which releases a downstream barrier
   before its stream is complete.

(Reversing the *port* order of a barrier's parents survives: the flat
parent tuple is compared as a multiset, see above.)
"""

import zlib
from collections import Counter
from itertools import product

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MoteurEnactor, OptimizationConfig
from repro.core.provenance import HistoryTree, compatible
from repro.services.base import LocalService
from repro.sim.engine import Engine
from repro.workflow.graph import Processor, ProcessorKind, Workflow


class ReferenceEnactor:
    """Whole stream per processor, processors in topological order.

    A stream is a list of ``(value, history)`` pairs; *functions* maps a
    service name to the plain callable it computes.
    """

    def __init__(self, workflow, functions):
        self.workflow = workflow
        self.functions = functions

    def run(self, dataset):
        workflow = self.workflow
        emitted = {}  # (processor, output port) -> stream
        collected = {}  # sink -> stream
        for name in nx.topological_sort(workflow.to_networkx()):
            processor = workflow.processor(name)
            if processor.kind is ProcessorKind.SOURCE:
                emitted[name, processor.output_ports[0]] = [
                    (value, HistoryTree.leaf(name, index))
                    for index, value in enumerate(dataset[name])
                ]
                continue
            streams = {
                port: [
                    token
                    for link in workflow.links_into(name, port)
                    for token in emitted[link.source.processor, link.source.port]
                ]
                for port in processor.effective_input_ports()
            }
            if processor.kind is ProcessorKind.SINK:
                collected[name] = [t for stream in streams.values() for t in stream]
            elif processor.synchronization:
                emitted[name, "out"] = [self._barrier(name, streams)]
            else:
                pair = self._dot if processor.iteration_strategy == "dot" else self._cross
                emitted[name, "out"] = [
                    self._invoke(name, binding) for binding in pair(streams)
                ]
        return collected

    def _invoke(self, name, binding):
        """One ordinary invocation: one token per port."""
        value = self.functions[name](**{port: v for port, (v, _) in binding.items()})["out"]
        parents = tuple(binding[port][1] for port in sorted(binding))
        return value, HistoryTree.derive(name, parents)

    def _barrier(self, name, streams):
        """One invocation over every port's whole stream."""
        value = self.functions[name](
            **{port: [v for v, _ in stream] for port, stream in streams.items()}
        )["out"]
        parents = tuple(h for port in sorted(streams) for _, h in streams[port])
        return value, HistoryTree.derive(name, parents)

    @staticmethod
    def _cross(streams):
        ports = list(streams)
        return [dict(zip(ports, combo)) for combo in product(*streams.values())]

    @staticmethod
    def _dot(streams):
        """Pair the tokens whose lineages agree on every shared source.

        Streams with no source in common pair by position, which is only
        well defined when every policy preserves their order — the
        generator wires such a dot straight from the data sources.
        Otherwise the compatible pairs must form a matching (nobody has
        two candidates), or the outcome would depend on arrival order.
        The assertions guard the generator, not the enactor.
        """
        ports = list(streams)
        if len(ports) == 1:
            return [{ports[0]: token} for token in streams[ports[0]]]
        (a, left), (b, right) = streams.items()
        shared = {s for _, h in left for s in h.lineage} & {
            s for _, h in right for s in h.lineage
        }
        if not shared and all(h.index is not None for _, h in left + right):
            return [{a: l, b: r} for l, r in zip(left, right)]
        pairs = [(l, r) for l in left for r in right if compatible(l[1], r[1])]
        assert len({id(l) for l, _ in pairs}) == len(pairs), "ambiguous dot product"
        assert len({id(r) for _, r in pairs}) == len(pairs), "ambiguous dot product"
        return [{a: l, b: r} for l, r in pairs]


# -- random workflows -----------------------------------------------------------


def compute(name):
    """An injective function of the inputs; a barrier's lists become multisets."""

    def function(**inputs):
        canonical = {
            port: tuple(sorted(value, key=repr)) if isinstance(value, list) else value
            for port, value in inputs.items()
        }
        return {"out": (name, tuple(sorted(canonical.items())))}

    return function


def allowed_strategies(sources, first, second):
    """How a two-port service may combine *first* and *second* unambiguously.

    Equal ancestry: dot (lineages match one to one).  Disjoint ancestry:
    cross — or the paper's positional dot when both are data sources.
    Partly shared ancestry would make the pairing a race.
    """
    (u, lu), (v, lv) = first, second
    if lu == lv:
        return ["dot"]
    if not lu & lv:
        return ["cross", "dot"] if u in sources and v in sources else ["cross"]
    return []


@st.composite
def cases(draw):
    sources = {
        f"S{i}": draw(st.lists(st.integers(0, 3), max_size=3))
        for i in range(draw(st.integers(1, 3)))
    }
    n_services = draw(st.integers(2, 5))
    barrier = draw(st.none() | st.integers(0, n_services - 1))
    nodes = [(name, frozenset({name})) for name in sources]  # (name, ancestry)
    services = []  # (name, {port: upstream}, strategy, synchronization)
    for k in range(n_services):
        name = f"P{k}"
        first = draw(st.sampled_from(nodes))
        inputs, strategy, ancestry = {"a": first[0]}, "dot", first[1]
        if draw(st.booleans()):
            if k == barrier:
                second = draw(st.sampled_from(nodes))
            else:
                second, strategy = draw(
                    st.sampled_from(
                        [
                            (node, s)
                            for node in nodes
                            for s in allowed_strategies(sources, first, node)
                        ]
                    )
                )
            inputs["b"] = second[0]
            ancestry = ancestry | second[1]
        services.append((name, inputs, strategy, k == barrier))
        nodes.append((name, ancestry))
    durations = draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0, 9.0]), min_size=1, max_size=6)
    )
    return sources, services, durations


def build(services, sources, make_service):
    """The workflow of one case; every service output also feeds a sink."""
    workflow = Workflow("oracle")
    for name in sources:
        workflow.add_source(name)
    for name, inputs, strategy, synchronization in services:
        workflow.add_processor(
            Processor(
                name,
                service=make_service(name, tuple(inputs)),
                iteration_strategy=strategy,
                synchronization=synchronization,
            )
        )
        for port, upstream in inputs.items():
            out = "output" if upstream in sources else "out"
            workflow.add_link(f"{upstream}:{out}", f"{name}:{port}")
        workflow.add_sink(f"sink_{name}")
        workflow.add_link(f"{name}:out", f"sink_{name}:input")
    return workflow


class Unbound:
    """Port declarations only: the reference reads the graph, not live services."""

    def __init__(self, name, ports):
        self.input_ports, self.output_ports = ports, ("out",)


def canonical(tree, barriers):
    parents = [canonical(parent, barriers) for parent in tree.parents]
    if tree.producer in barriers:
        parents.sort(key=repr)
    return (tree.producer, tree.index, tree.iteration, tuple(parents))


def multisets(streams, barriers):
    return {
        sink: Counter((value, h.label(), canonical(h, barriers)) for value, h in stream)
        for sink, stream in streams.items()
    }


POLICIES = [
    OptimizationConfig.nop(),
    OptimizationConfig.dp(),
    OptimizationConfig.sp(),
    OptimizationConfig.sp_dp(),
    OptimizationConfig.sp_dp_jg(),
]


@settings(max_examples=200, deadline=None)
@given(cases())
def test_every_policy_matches_the_reference_enactor(case):
    sources, services, durations = case
    barriers = {name for name, _, _, synchronization in services if synchronization}
    functions = {name: compute(name) for name, _, _, _ in services}

    reference = ReferenceEnactor(build(services, sources, Unbound), functions)
    expected = multisets(reference.run(sources), barriers)

    def duration(inputs):
        digest = zlib.crc32(repr(sorted((p, d.value) for p, d in inputs.items())).encode())
        return durations[digest % len(durations)]

    for config in POLICIES:
        engine = Engine()
        workflow = build(
            services,
            sources,
            lambda name, ports: LocalService(
                engine, name, ports, ("out",), function=functions[name], duration=duration
            ),
        )
        result = MoteurEnactor(engine, workflow, config).run(sources)
        got = multisets(
            {
                sink: zip(result.output_values(sink), result.histories[sink])
                for sink in result.outputs
            },
            barriers,
        )
        assert got == expected, config.label
