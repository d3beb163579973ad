"""Provenance-keyed cache keys (deterministic, content-addressed).

A cache key must answer one question: *would re-running this invocation
produce the same outputs?*  For a black-box-but-deterministic service
the answer is yes exactly when

1. the **service identity** is the same — for wrapped services that is
   the executable descriptor (the Figure 8 document fully determines
   the composed command line); for virtual grouped services it is the
   descriptor chain of *all* stages plus the internal wiring; for plain
   in-process services it is the class and port signature,
2. the **inputs** are the same — both their payload values/grid files
   and their :class:`~repro.core.provenance.HistoryTree` lineage.  The
   history tree is what gives dot- and cross-product iterations the
   right granularity: the pair ``(D0, D1)`` and the pair ``(D0, D2)``
   hash differently even when the raw values collide, and a grouped
   service over ``D0`` caches as **one** entry covering all its stages.

Keys are hex SHA-256 digests of a canonical text encoding, so they are
stable across processes and Python versions — the property the
:class:`~repro.cache.store.FileStore` needs for warm re-execution.  A
value enters as its :mod:`repro.util.codec` text, which log lines hold.

Synchronization processors consume their *whole* input streams in one
invocation, and under DP+SP the arrival order of those streams is a
race artifact, not a semantic property.  Their keys therefore encode
each port's tokens as a sorted multiset (``unordered=True``), so a warm
run whose tokens arrive in a different order still hits.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Mapping, Sequence, Tuple

if TYPE_CHECKING:  # runtime import would close a cycle through repro.core
    from repro.core.provenance import HistoryTree
    from repro.services.base import GridData, Service

__all__ = [
    "fingerprint_datum",
    "history_fingerprint",
    "service_fingerprint",
    "invocation_key",
    "TokenFact",
]

#: what the key derivation needs from one input token: lineage + payload
TokenFact = Tuple["HistoryTree", "GridData"]


def fingerprint_datum(datum: GridData) -> str:
    """Fingerprint of one :class:`GridData`: its memoized value text + grid identity."""
    gfn = datum.file.gfn if datum.file is not None else ""
    return f"v={datum.value_text};g={gfn}"


def history_fingerprint(tree: HistoryTree) -> str:
    """Canonical text encoding of a history tree (structure-exact).

    ``'src'[3]`` for a leaf, ``'P'@2(<parents>)`` for a derived node
    (``@iteration`` only when nonzero).  Memoized in each node's
    ``_fingerprint`` slot and built post-order without recursion: a node
    whose parents are already encoded costs one join, not a walk of the
    whole lineage, and a loop's lineage of any depth encodes without
    touching the recursion limit.
    """
    stack = [tree]
    while stack:
        node = stack[-1]
        if node._fingerprint is not None:
            stack.pop()
        elif node.index is not None:
            node._fingerprint = f"{node.producer!r}[{node.index}]"
            stack.pop()
        else:
            pending = [p for p in node.parents if p._fingerprint is None]
            if pending:
                stack.extend(pending)
                continue
            iteration = f"@{node.iteration}" if node.iteration else ""
            inner = ",".join([p._fingerprint for p in node.parents])
            node._fingerprint = f"{node.producer!r}{iteration}({inner})"
            stack.pop()
    return tree._fingerprint


def service_fingerprint(service: Service) -> str:
    """Identity of the computation a service performs.

    Services that can describe their executable (the generic wrapper,
    grouped composites) override
    :meth:`~repro.services.base.Service.cache_fingerprint` with a
    descriptor-derived identity; everything else is identified by class
    and port signature.  Caching assumes services are deterministic
    functions of their inputs — the same black-box-referential-
    transparency hypothesis the paper's re-execution language rests on.
    """
    return service.cache_fingerprint()


def invocation_key(
    service: Service,
    bindings: Mapping[str, Sequence[TokenFact]],
    unordered: bool = False,
) -> str:
    """Derive the cache key of one invocation.

    Parameters
    ----------
    service:
        The service about to be invoked (or the virtual grouped
        service; its fingerprint covers every stage).
    bindings:
        Input port -> the token facts consumed on that port.  Ordinary
        invocations bind exactly one token per port; synchronization
        invocations bind the whole stream.
    unordered:
        Encode each port's tokens as a sorted multiset.  Used for
        synchronization barriers, whose stream arrival order is
        nondeterministic under DP+SP and not semantically meaningful.
    """
    parts = [f"service:{service_fingerprint(service)}"]
    for port in sorted(bindings):
        token_fps = [
            f"h={history_fingerprint(history)};{fingerprint_datum(datum)}"
            for history, datum in bindings[port]
        ]
        if unordered:
            token_fps = sorted(token_fps)
        parts.append(f"port:{port}=[" + "|".join(token_fps) + "]")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest
