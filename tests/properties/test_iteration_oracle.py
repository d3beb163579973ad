"""Differential oracle: the indexed dot buffers against the scan they replaced.

The reference below is the specification — for each other port, the
first buffered token (arrival order) that :func:`compatible` accepts
against everything chosen so far.  The engine must produce the same
bindings, token for token, under any arrival sequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.failures import InvocationFailure
from repro.core.iteration import IterationEngine
from repro.core.provenance import HistoryTree, compatible
from repro.core.tokens import DataToken
from repro.services.base import GridData


class ReferenceDot:
    """Scan-and-consume dot product, O(buffered) per offer."""

    def __init__(self, ports):
        self.ports = ports
        self.buffers = {port: [] for port in ports}

    def offer(self, port, token):
        chosen = {port: token}
        for other in self.ports:
            if other == port:
                continue
            for candidate in self.buffers[other]:
                if all(compatible(candidate.history, t.history) for t in chosen.values()):
                    chosen[other] = candidate
                    break
            else:
                self.buffers[port].append(token)
                return []
        for other, found in chosen.items():
            if other != port:
                survivors = self.buffers[other]
                del survivors[next(i for i, t in enumerate(survivors) if t is found)]
        return [chosen]


@st.composite
def histories(draw):
    """Lineages over up to three sources, two indices each, so they collide.

    No source: a no-input firing (compatible with anything).  Several
    sources: a token downstream of an earlier dot product.  Several
    indices on one source: what a synchronization barrier emits.  The
    ``iteration`` makes trees that differ while their lineages do not.
    """
    sources = draw(st.lists(st.sampled_from("STU"), unique=True, max_size=3))
    leaves = [
        HistoryTree.leaf(source, index)
        for source in sources
        for index in draw(st.lists(st.integers(0, 1), unique=True, min_size=1))
    ]
    if not leaves:
        return HistoryTree("generator")
    return HistoryTree.derive("P", tuple(leaves), iteration=draw(st.integers(0, 1)))


FAILURE = InvocationFailure(processor="P", label="D0", lineage={}, error="boom", failed_at=0.0)


@st.composite
def arrivals(draw):
    ports = tuple("abcd"[: draw(st.integers(2, 4))])
    offers = draw(
        st.lists(st.tuples(st.sampled_from(ports), histories(), st.booleans()), max_size=40)
    )
    # Every payload is equal, so tokens with equal histories compare
    # equal and only identity tells them apart.
    return ports, [
        (port, DataToken(GridData(), history, FAILURE if poisoned else None))
        for port, history, poisoned in offers
    ]


@settings(max_examples=300, deadline=None)
@given(arrivals())
def test_indexed_dot_matches_reference_scan(case):
    ports, offers = case
    engine, reference = IterationEngine(ports, "dot"), ReferenceDot(ports)
    for port, token in offers:
        got, want = engine.offer(port, token), reference.offer(port, token)
        assert [list(b) for b in got] == [list(b) for b in want]
        assert all(b[p] is w[p] for b, w in zip(got, want) for p in w)
        assert {p: engine.buffered(p) for p in ports} == {
            p: len(reference.buffers[p]) for p in ports
        }
