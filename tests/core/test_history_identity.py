"""HistoryTree identity semantics: equality, hashing, label round-trips.

The result cache keys on history trees, so their value semantics are
load-bearing: two trees built independently from the same provenance
must be equal, hash equal, and render the same label — and any
structural difference (index, iteration, parent order) must break all
three.
"""


from repro.core.provenance import HistoryTree


def pair_tree(i, j, producer="match"):
    """A typical two-parent derivation: match(imgs[i], refs[j])."""
    return HistoryTree.derive(
        producer, (HistoryTree.leaf("imgs", i), HistoryTree.leaf("refs", j))
    )


class TestEqualityHashContract:
    def test_independently_built_trees_are_interchangeable(self):
        a, b = pair_tree(0, 0), pair_tree(0, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_usable_as_dict_keys(self):
        table = {pair_tree(i, i): f"result-{i}" for i in range(4)}
        # a freshly built equal tree finds the stored value
        assert table[pair_tree(2, 2)] == "result-2"
        assert len(table) == 4

    def test_structural_differences_break_equality(self):
        base = pair_tree(0, 0)
        assert base != pair_tree(1, 0)  # different leaf index
        assert base != pair_tree(0, 0, producer="other")  # different producer
        # different parent order is a different dot-product pairing
        swapped = HistoryTree.derive(
            "match", (HistoryTree.leaf("refs", 0), HistoryTree.leaf("imgs", 0))
        )
        assert base != swapped

    def test_iteration_participates_in_identity(self):
        parents = (HistoryTree.leaf("s", 0),)
        round0 = HistoryTree.derive("loop", parents, iteration=0)
        round1 = HistoryTree.derive("loop", parents, iteration=1)
        assert round0 != round1
        assert len({round0, round1}) == 2

    def test_not_equal_to_foreign_types(self):
        assert HistoryTree.leaf("s", 0) != ("s", 0)
        assert HistoryTree.leaf("s", 0) != "s[0]"

    def test_deep_trees_compare_recursively(self):
        def deep():
            t = HistoryTree.leaf("src", 3)
            for stage in ("a", "b", "c", "d"):
                t = HistoryTree.derive(stage, (t,))
            return t

        assert deep() == deep()
        assert hash(deep()) == hash(deep())


class TestLabelRoundTrips:
    def test_equal_trees_render_equal_labels(self):
        assert pair_tree(5, 5).label() == pair_tree(5, 5).label()
        assert pair_tree(5, 5).label() == "D5"

    def test_label_is_stable_under_rederivation(self):
        """Processing a datum further never changes its item label."""
        tree = HistoryTree.leaf("imgs", 7)
        labels = {tree.label()}
        for stage in ("crestLines", "crestMatch", "PFMatchICP"):
            tree = HistoryTree.derive(stage, (tree,))
            labels.add(tree.label())
        assert labels == {"D7"}

    def test_cross_product_label_is_parent_order_insensitive(self):
        """Labels come from lineage (a set), not from tuple order."""
        ab = HistoryTree.derive(
            "P", (HistoryTree.leaf("s", 0), HistoryTree.leaf("t", 1))
        )
        ba = HistoryTree.derive(
            "P", (HistoryTree.leaf("t", 1), HistoryTree.leaf("s", 0))
        )
        assert ab.label() == ba.label() == "D0x1"
        assert ab != ba  # ...even though identity still distinguishes them

    def test_synchronization_label_compresses_ranges(self):
        parents = tuple(
            HistoryTree.derive("stage", (HistoryTree.leaf("imgs", i),))
            for i in range(12)
        )
        merged = HistoryTree.derive("stats", parents)
        assert merged.label() == "D(0-11)"
        rebuilt = HistoryTree.derive("stats", parents)
        assert rebuilt.label() == merged.label()
