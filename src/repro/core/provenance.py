"""Data provenance: history trees (Section 4.1).

"Handling the iteration strategies ... in a service and data parallel
workflow is not straightforward because produced data sets have to be
uniquely identified.  Indeed they are likely to be computed in a
different order in every service, which could lead to wrong dot product
computations. [...] Attached to each processed data segment is a
history tree containing all the intermediate results computed to
process it.  This tree unambiguously identifies the data."

A :class:`HistoryTree` is an immutable tree: leaves are
``(source, index)`` pairs; internal nodes name the processor that
produced the datum and point at the histories of its inputs.  From the
tree we derive the **lineage** — for each ancestor source, the set of
item indices involved — and two tokens are *dot-compatible* exactly
when their lineages agree on every source they share.  That predicate
is what restores causally-correct dot products no matter the completion
order (the paper's data provenance strategy).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

__all__ = ["HistoryTree", "compatible", "format_indices"]

Lineage = Mapping[str, FrozenSet[int]]


class HistoryTree:
    """Immutable provenance tree attached to every data token."""

    __slots__ = ("producer", "index", "parents", "iteration", "_lineage", "_hash", "_label")

    def __init__(
        self,
        producer: str,
        parents: Tuple["HistoryTree", ...] = (),
        index: Optional[int] = None,
        iteration: int = 0,
    ) -> None:
        if index is not None and parents:
            raise ValueError("a history node is a leaf (index) or internal (parents), not both")
        if index is None and not parents and iteration == 0:
            # A no-input service firing: legal, lineage is empty.
            pass
        self.producer = producer
        self.index = index
        self.parents = tuple(parents)
        self.iteration = iteration
        lineage: Dict[str, FrozenSet[int]] = {}
        if index is not None:
            lineage[producer] = frozenset((index,))
        else:
            for parent in self.parents:
                for source, indices in parent.lineage.items():
                    if source in lineage:
                        lineage[source] = lineage[source] | indices
                    else:
                        lineage[source] = indices
        self._lineage: Lineage = lineage
        self._hash = hash(
            (self.producer, self.index, self.parents, self.iteration)
        )
        self._label: Optional[str] = None  # computed on first label()

    # -- constructors ---------------------------------------------------
    @classmethod
    def leaf(cls, source: str, index: int) -> "HistoryTree":
        """History of the *index*-th item emitted by *source*."""
        return cls(producer=source, index=index)

    @classmethod
    def derive(
        cls, producer: str, parents: Tuple["HistoryTree", ...], iteration: int = 0
    ) -> "HistoryTree":
        """History of a datum produced by *producer* from *parents*.

        ``iteration`` disambiguates successive emissions of the same
        processor inside a workflow loop: without it, iteration *k* and
        iteration *k+1* of a loop body would carry identical trees.
        """
        return cls(producer=producer, parents=tuple(parents), iteration=iteration)

    # -- identity ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistoryTree):
            return NotImplemented
        return (
            self.producer == other.producer
            and self.index == other.index
            and self.iteration == other.iteration
            and self.parents == other.parents
        )

    def __hash__(self) -> int:
        return self._hash

    # -- derived views ----------------------------------------------------------
    @property
    def lineage(self) -> Lineage:
        """source name -> frozenset of item indices this datum derives from."""
        return self._lineage

    @property
    def depth(self) -> int:
        """Longest chain of processing steps below this node."""
        if not self.parents:
            return 0
        return 1 + max(parent.depth for parent in self.parents)

    @property
    def size(self) -> int:
        """Total number of nodes in the tree (intermediate results + leaves)."""
        return 1 + sum(parent.size for parent in self.parents)

    def label(self) -> str:
        """Paper-style item label: ``D0`` for single-item lineage, etc.

        Multi-index or multi-source lineages are compressed:
        ``D(0-11)`` for a synchronization result over items 0..11,
        ``D0x1`` for a cross-product pair.
        """
        if self._label is None:
            self._label = self._compute_label()
        return self._label

    def _compute_label(self) -> str:
        lineage = self._lineage
        if not lineage:
            return f"{self.producer}()"
        all_indices = sorted(set().union(*lineage.values()))
        per_source = [sorted(indices) for indices in lineage.values()]
        if all(len(ix) == 1 for ix in per_source):
            distinct = sorted({ix[0] for ix in per_source})
            if len(distinct) == 1:
                return f"D{distinct[0]}"
            return "D" + "x".join(str(i) for i in distinct)
        return f"D({format_indices(all_indices)})"

    def describe(self, indent: int = 0) -> str:
        """Multi-line rendering of the full tree (debugging/reports)."""
        pad = "  " * indent
        if self.index is not None:
            return f"{pad}{self.producer}[{self.index}]"
        suffix = f" @iter{self.iteration}" if self.iteration else ""
        lines = [f"{pad}{self.producer}{suffix}"]
        lines.extend(parent.describe(indent + 1) for parent in self.parents)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<HistoryTree {self.label()} by {self.producer!r}>"


def compatible(a: HistoryTree, b: HistoryTree) -> bool:
    """Dot-product compatibility: lineages agree on every shared source.

    Tokens with disjoint ancestry (independent sources) are always
    compatible — the dot product then degenerates to positional
    pairing, matching the paper's "in their order of definition".
    """
    la, lb = a.lineage, b.lineage
    if len(lb) < len(la):
        la, lb = lb, la
    for source, indices in la.items():
        other = lb.get(source)
        if other is not None and other != indices:
            return False
    return True


def format_indices(indices: "list[int]") -> str:
    """Compress a sorted index list into run notation: ``0-3,7,9-11``."""
    if not indices:
        return ""
    runs = []
    start = prev = indices[0]
    for value in indices[1:]:
        if value == prev + 1:
            prev = value
            continue
        runs.append((start, prev))
        start = prev = value
    runs.append((start, prev))
    return ",".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)
