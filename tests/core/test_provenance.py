"""Tests for history trees and dot-compatibility."""

import pytest

from repro.core.provenance import HistoryTree, compatible, format_indices


class TestConstruction:
    def test_leaf(self):
        leaf = HistoryTree.leaf("images", 3)
        assert leaf.lineage == {"images": frozenset({3})}
        assert leaf.depth == 0
        assert leaf.size == 1

    def test_derive(self):
        a = HistoryTree.leaf("A", 0)
        b = HistoryTree.leaf("B", 1)
        node = HistoryTree.derive("P", (a, b))
        assert node.lineage == {"A": frozenset({0}), "B": frozenset({1})}
        assert node.depth == 1
        assert node.size == 3

    def test_leaf_with_parents_rejected(self):
        leaf = HistoryTree.leaf("A", 0)
        with pytest.raises(ValueError):
            HistoryTree("X", parents=(leaf,), index=1)

    def test_equality_and_hash(self):
        a1 = HistoryTree.derive("P", (HistoryTree.leaf("A", 0),))
        a2 = HistoryTree.derive("P", (HistoryTree.leaf("A", 0),))
        b = HistoryTree.derive("P", (HistoryTree.leaf("A", 1),))
        assert a1 == a2 and hash(a1) == hash(a2)
        assert a1 != b

    def test_iteration_disambiguates_loop_rounds(self):
        parent = HistoryTree.leaf("A", 0)
        first = HistoryTree.derive("P", (parent,), iteration=0)
        second = HistoryTree.derive("P", (parent,), iteration=1)
        assert first != second


class TestLineage:
    def test_union_of_parents(self):
        a0 = HistoryTree.leaf("A", 0)
        a1 = HistoryTree.leaf("A", 1)
        node = HistoryTree.derive("P", (a0, a1))
        assert node.lineage == {"A": frozenset({0, 1})}

    def test_deep_chain_preserves_leaf(self):
        node = HistoryTree.leaf("S", 7)
        for step in range(10):
            node = HistoryTree.derive(f"P{step}", (node,))
        assert node.lineage == {"S": frozenset({7})}
        assert node.depth == 10


class TestCompatibility:
    def test_same_index_same_source_compatible(self):
        a = HistoryTree.derive("P1", (HistoryTree.leaf("S", 2),))
        b = HistoryTree.derive("P2", (HistoryTree.leaf("S", 2),))
        assert compatible(a, b)

    def test_different_index_same_source_incompatible(self):
        a = HistoryTree.derive("P1", (HistoryTree.leaf("S", 2),))
        b = HistoryTree.derive("P2", (HistoryTree.leaf("S", 3),))
        assert not compatible(a, b)

    def test_disjoint_sources_always_compatible(self):
        a = HistoryTree.leaf("A", 0)
        b = HistoryTree.leaf("B", 99)
        assert compatible(a, b)

    def test_partial_overlap_checks_common_source_only(self):
        # derived from (A0, B1) vs derived from (A0, C5): common source A agrees
        left = HistoryTree.derive("P", (HistoryTree.leaf("A", 0), HistoryTree.leaf("B", 1)))
        right = HistoryTree.derive("Q", (HistoryTree.leaf("A", 0), HistoryTree.leaf("C", 5)))
        assert compatible(left, right)

    def test_partial_overlap_conflict(self):
        left = HistoryTree.derive("P", (HistoryTree.leaf("A", 0), HistoryTree.leaf("B", 1)))
        right = HistoryTree.derive("Q", (HistoryTree.leaf("A", 7),))
        assert not compatible(left, right)

    def test_symmetric(self):
        a = HistoryTree.derive("P", (HistoryTree.leaf("A", 0), HistoryTree.leaf("B", 1)))
        b = HistoryTree.leaf("A", 0)
        assert compatible(a, b) == compatible(b, a)

    def test_bronze_standard_case(self):
        # crestMatch's output for pair 3 must pair with the images of
        # pair 3, never pair 4, regardless of completion order.
        floating3 = HistoryTree.leaf("floatingImage", 3)
        reference3 = HistoryTree.leaf("referenceImage", 3)
        crest3 = HistoryTree.derive("crestLines", (floating3, reference3))
        transform3 = HistoryTree.derive("crestMatch", (crest3,))
        floating4 = HistoryTree.leaf("floatingImage", 4)
        assert compatible(transform3, floating3)
        assert not compatible(transform3, floating4)


class TestLabels:
    def test_source_item_label(self):
        assert HistoryTree.leaf("S", 0).label() == "D0"

    def test_pipeline_preserves_label(self):
        node = HistoryTree.derive("P1", (HistoryTree.leaf("S", 2),))
        assert node.label() == "D2"

    def test_multi_source_same_index(self):
        node = HistoryTree.derive(
            "P", (HistoryTree.leaf("A", 1), HistoryTree.leaf("B", 1))
        )
        assert node.label() == "D1"

    def test_cross_pair_label(self):
        node = HistoryTree.derive(
            "P", (HistoryTree.leaf("A", 0), HistoryTree.leaf("B", 2))
        )
        assert node.label() == "D0x2"

    def test_synchronization_label_compressed(self):
        parents = tuple(HistoryTree.leaf("S", i) for i in range(12))
        node = HistoryTree.derive("MTT", parents)
        assert node.label() == "D(0-11)"

    def test_empty_lineage_label(self):
        node = HistoryTree("generator")
        assert node.label() == "generator()"

    def test_label_computed_once(self):
        # The tree is immutable; the enactor asks for the label of every
        # invocation at least twice (trace entry and span).
        parents = tuple(HistoryTree.leaf("S", i) for i in range(12))
        node = HistoryTree.derive("MTT", parents)
        assert node.label() is node.label()

    def test_describe_renders_tree(self):
        node = HistoryTree.derive("P", (HistoryTree.leaf("S", 0),))
        text = node.describe()
        assert "P" in text and "S[0]" in text


class TestFormatIndices:
    def test_runs_compressed(self):
        assert format_indices([0, 1, 2, 3, 7, 9, 10, 11]) == "0-3,7,9-11"

    def test_single(self):
        assert format_indices([5]) == "5"

    def test_empty(self):
        assert format_indices([]) == ""
