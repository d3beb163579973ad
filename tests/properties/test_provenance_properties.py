"""Property-based tests for history trees and iteration strategies."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.iteration import IterationEngine
from repro.core.provenance import HistoryTree, compatible
from repro.core.tokens import DataToken
from repro.services.base import GridData


def token(source, index):
    return DataToken(GridData(value=index), HistoryTree.leaf(source, index))


def derived(producer, base):
    return DataToken(GridData(value=base.value), HistoryTree.derive(producer, (base.history,)))


class TestCompatibilityProperties:
    @given(st.integers(0, 50), st.integers(0, 50))
    def test_reflexive_and_symmetric(self, i, j):
        a = HistoryTree.leaf("S", i)
        b = HistoryTree.leaf("S", j)
        assert compatible(a, a)
        assert compatible(a, b) == compatible(b, a)
        assert compatible(a, b) == (i == j)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    def test_derivation_preserves_compatibility(self, indices):
        # Processing never changes what a datum is derived from.
        leaves = [HistoryTree.leaf("S", i) for i in indices]
        processed = [HistoryTree.derive("P", (leaf,)) for leaf in leaves]
        for leaf, proc in zip(leaves, processed):
            assert compatible(leaf, proc)
        for a, pa in zip(leaves, processed):
            for b, pb in zip(leaves, processed):
                assert compatible(pa, pb) == compatible(a, b)

    @given(st.integers(0, 30), st.integers(2, 8))
    def test_deep_chains_keep_identity(self, index, depth):
        node = HistoryTree.leaf("S", index)
        for level in range(depth):
            node = HistoryTree.derive(f"P{level}", (node,))
        assert node.lineage == {"S": frozenset({index})}
        assert node.label() == f"D{index}"


class TestDotProductProperties:
    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.randoms(use_true_random=False),
    )
    def test_min_cardinality_under_any_arrival_order(self, n, m, rnd):
        """min(n, m) bindings fire no matter how arrivals interleave."""
        eng = IterationEngine(("a", "b"), "dot")
        offers = [("a", derived("P1", token("S", i))) for i in range(n)]
        offers += [("b", derived("P2", token("S", j))) for j in range(m)]
        rnd.shuffle(offers)
        fired = []
        for port, tok in offers:
            fired.extend(eng.offer(port, tok))
        assert len(fired) == min(n, m)
        # and every binding is causally consistent: same source index
        for binding in fired:
            ia = next(iter(binding["a"].history.lineage["S"]))
            ib = next(iter(binding["b"].history.lineage["S"]))
            assert ia == ib

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_independent_sources_min_cardinality(self, n, m):
        eng = IterationEngine(("a", "b"), "dot")
        fired = 0
        for i in range(n):
            fired += len(eng.offer("a", token("A", i)))
        for j in range(m):
            fired += len(eng.offer("b", token("B", j)))
        assert fired == min(n, m)


class TestCrossProductProperties:
    @given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
    def test_cartesian_cardinality_under_any_order(self, n, m, rnd):
        eng = IterationEngine(("a", "b"), "cross")
        offers = [("a", token("A", i)) for i in range(n)]
        offers += [("b", token("B", j)) for j in range(m)]
        rnd.shuffle(offers)
        combos = set()
        for port, tok in offers:
            for binding in eng.offer(port, tok):
                combos.add((binding["a"].value, binding["b"].value))
        assert len(combos) == n * m

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_result_lineage_is_union(self, i, j):
        a = token("A", i)
        b = token("B", j)
        node = HistoryTree.derive("X", (a.history, b.history))
        assert node.lineage == {"A": frozenset({i}), "B": frozenset({j})}


def union_of_lineages(parents):
    """The per-source union of the parents' lineages, one dict per node."""
    merged = {}
    for parent in parents:
        for source, indices in parent.lineage.items():
            merged[source] = merged[source] | indices if source in merged else indices
    return merged


#: a random provenance DAG: leaves, then nodes over 1-3 earlier nodes
leaves = st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 3)), min_size=1, max_size=5)
derivations = st.lists(st.lists(st.integers(0, 50), min_size=1, max_size=3), max_size=12)


class TestSharedLineage:
    @given(leaves, derivations)
    def test_shared_lineage_is_the_union_and_never_mutates_a_parent(self, roots, nodes):
        trees = [HistoryTree.leaf(source, index) for source, index in roots]
        for k, picks in enumerate(nodes):
            parents = tuple(trees[i % len(trees)] for i in picks)
            before = [(p.lineage, dict(p.lineage)) for p in parents]
            node = HistoryTree.derive(f"P{k}", parents)
            expected = union_of_lineages(parents)
            assert list(node.lineage.items()) == list(expected.items())
            for parent, (mapping, snapshot) in zip(parents, before):
                assert parent.lineage is mapping
                assert parent.lineage == snapshot
            if expected == parents[0].lineage:
                assert node.lineage is parents[0].lineage
            for source, indices in node.lineage.items():
                owned = [p.lineage[source] for p in parents if source in p.lineage]
                if all(s == owned[0] for s in owned):
                    # the union of equal sets is one of them, never a new set
                    assert any(indices is s for s in owned)
            trees.append(node)
