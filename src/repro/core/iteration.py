"""Iteration strategies: provenance-aware dot and cross products.

Section 2.2: "When a service owns two input ports or more, an iteration
strategy defines the composition rule for the data coming from all
input ports pairwise":

* **dot product** — pair items "in their order of definition",
  producing ``min(n, m)`` results.  Under data+service parallelism,
  items arrive out of order, so the pairing is driven by provenance
  compatibility (:func:`repro.core.provenance.compatible`) rather than
  raw arrival rank — this is exactly the causality problem Section 4.1
  solves with history trees.
* **cross product** — combine every item of each port with every item
  of every other port, producing ``n × m`` results.

:class:`IterationEngine` is the incremental combiner a processor state
owns: tokens are *offered* one at a time and the engine returns the
newly fireable input bindings, deterministically.

Dot buffers are indexed by lineage (see ``_DotBuffer``), so finding the
first compatible token and consuming it cost the same however many
tokens wait: the buffer never scans, and never compares tokens.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import product
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from repro.core.provenance import Lineage
from repro.core.tokens import DataToken

__all__ = ["IterationEngine", "Binding", "expected_bindings"]

#: one fireable set of inputs: port -> token
Binding = Dict[str, DataToken]

#: tokens keyed by arrival sequence, oldest first
_Arrivals = Dict[int, DataToken]


def _project(lineage: Lineage, sources: Tuple[str, ...]) -> tuple:
    """The part of *lineage* on *sources*, as a hashable index key."""
    return tuple([lineage[s] for s in sources])


class _LineageGroup:
    """One port's unconsumed tokens whose lineages span the same sources.

    Sharing a source set means every token of the group shares the same
    sources with any given constraint, so "agrees on every shared
    source" becomes one hash lookup: project the constraint on those
    sources and fetch the tokens with that projection.
    """

    __slots__ = ("sources", "tokens", "_indexes")

    def __init__(self, sources: FrozenSet[str]) -> None:
        self.sources = sources
        # OrderedDict: its first key is O(1) however many older tokens
        # were consumed (a plain dict walks their dead slots).
        self.tokens: _Arrivals = OrderedDict()
        #: shared-source subset -> {lineage projected on it -> tokens};
        #: one per subset probed so far, kept in step by add/remove
        self._indexes: Dict[Tuple[str, ...], Dict[tuple, _Arrivals]] = {}

    def add(self, seq: int, token: DataToken) -> None:
        self.tokens[seq] = token
        lineage = token.history.lineage
        for shared, index in self._indexes.items():
            index.setdefault(_project(lineage, shared), {})[seq] = token

    def remove(self, seq: int) -> None:
        lineage = self.tokens.pop(seq).history.lineage
        for shared, index in self._indexes.items():
            key = _project(lineage, shared)
            bucket = index[key]
            del bucket[seq]
            if not bucket:
                del index[key]

    def oldest_agreeing(self, constraint: Lineage) -> Optional[int]:
        """Arrival sequence of the oldest token agreeing with *constraint*."""
        shared = tuple([s for s in self.sources if s in constraint])
        if not shared:
            # Disjoint ancestry: the paper's positional pairing.
            candidates = self.tokens
        else:
            index = self._indexes.get(shared)
            if index is None:
                index = self._indexes[shared] = {}
                for seq, token in self.tokens.items():
                    key = _project(token.history.lineage, shared)
                    index.setdefault(key, {})[seq] = token
            candidates = index.get(_project(constraint, shared))
        if not candidates:
            return None
        return next(iter(candidates))


class _DotBuffer:
    """One port's unconsumed tokens, grouped by lineage source set."""

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: Dict[FrozenSet[str], _LineageGroup] = {}

    def __len__(self) -> int:
        return sum(len(group.tokens) for group in self._groups.values())

    def _group_of(self, token: DataToken) -> _LineageGroup:
        sources = frozenset(token.history.lineage)
        group = self._groups.get(sources)
        if group is None:
            group = self._groups[sources] = _LineageGroup(sources)
        return group

    def add(self, seq: int, token: DataToken) -> None:
        self._group_of(token).add(seq, token)

    def remove(self, seq: int, token: DataToken) -> None:
        self._group_of(token).remove(seq)

    def first_compatible(self, constraint: Lineage) -> Optional[Tuple[int, DataToken]]:
        """The oldest buffered token compatible with *constraint*.

        *constraint* is the merged lineage of mutually compatible
        tokens, so agreeing with it on every shared source is
        :func:`repro.core.provenance.compatible` with each of them.
        """
        best: Optional[Tuple[int, DataToken]] = None
        for group in self._groups.values():
            seq = group.oldest_agreeing(constraint)
            if seq is not None and (best is None or seq < best[0]):
                best = (seq, group.tokens[seq])
        return best


class IterationEngine:
    """Incremental dot/cross combiner over a processor's input ports."""

    def __init__(self, ports: Tuple[str, ...], strategy: str) -> None:
        if not ports:
            raise ValueError("an iteration engine needs at least one port")
        if len(set(ports)) != len(ports):
            raise ValueError(f"duplicate port names in {tuple(ports)!r}")
        if strategy not in ("dot", "cross"):
            raise ValueError(f"unknown strategy {strategy!r} (expected 'dot' or 'cross')")
        self.ports = tuple(ports)
        self.strategy = strategy
        #: per-port tokens not yet consumed (dot) / all tokens seen (cross)
        self._buffers: Dict[str, Union[_DotBuffer, List[DataToken]]] = {
            port: _DotBuffer() if strategy == "dot" else [] for port in ports
        }
        self.offered = 0
        self.fired = 0

    def offer(self, port: str, token: DataToken) -> List[Binding]:
        """Feed one token; return bindings that just became fireable."""
        if port not in self._buffers:
            raise KeyError(f"unknown port {port!r}; engine ports are {self.ports}")
        self.offered += 1
        if self.strategy == "dot":
            bindings = self._offer_dot(port, token)
        else:
            bindings = self._offer_cross(port, token)
        self.fired += len(bindings)
        return bindings

    # -- dot --------------------------------------------------------------
    def _offer_dot(self, port: str, token: DataToken) -> List[Binding]:
        """Greedy compatibility search seeded by the newly arrived token.

        For each other port, take the first buffered token compatible
        with everything chosen so far (arrival order).  Greedy matching
        is exact for the tree-shaped dataflows of the paper's
        applications, where lineages on shared sources are equal or
        disjoint.
        """
        binding: Binding = {port: token}
        consumed: List[Tuple[_DotBuffer, int, DataToken]] = []
        # Chosen tokens agree on the sources they share, so their
        # lineages merge into one constraint without conflict.
        constraint = dict(token.history.lineage)
        for other in self.ports:
            if other == port:
                continue
            buffer = self._buffers[other]
            match = buffer.first_compatible(constraint)
            if match is None:
                self._buffers[port].add(self.offered, token)
                return []
            seq, found = match
            binding[other] = found
            consumed.append((buffer, seq, found))
            constraint.update(found.history.lineage)
        for buffer, seq, found in consumed:
            buffer.remove(seq, found)
        return [binding]

    # -- cross -------------------------------------------------------------
    def _offer_cross(self, port: str, token: DataToken) -> List[Binding]:
        other_ports = [p for p in self.ports if p != port]
        if not other_ports:
            return [{port: token}]
        pools = [self._buffers[p] for p in other_ports]
        bindings: List[Binding] = []
        if all(pools):
            for combination in product(*pools):
                binding: Binding = {port: token}
                binding.update(dict(zip(other_ports, combination)))
                bindings.append(binding)
        # Record the token *after* combining so it never pairs with itself.
        self._buffers[port].append(token)
        return bindings

    # -- bookkeeping -----------------------------------------------------------
    def buffered(self, port: str) -> int:
        """Unconsumed (dot) / total seen (cross) tokens on *port*."""
        return len(self._buffers[port])

    def __repr__(self) -> str:
        counts = {p: len(b) for p, b in self._buffers.items()}
        return f"<IterationEngine {self.strategy} ports={counts} fired={self.fired}>"


def expected_bindings(strategy: str, per_port_counts: Mapping[str, int]) -> int:
    """How many bindings a full set of streams will produce.

    Dot: ``min`` over ports (the paper's ``min(n, m)``);
    cross: product over ports (the paper's ``n × m``).
    Used by the enactor's stream-completion accounting (barriers and
    synchronization processors need to know when a stream has ended).
    """
    if not per_port_counts:
        return 1  # a no-input service fires exactly once
    counts = list(per_port_counts.values())
    if strategy == "dot":
        return min(counts)
    if strategy == "cross":
        result = 1
        for count in counts:
            result *= count
        return result
    raise ValueError(f"unknown strategy {strategy!r}")
