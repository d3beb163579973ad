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
:class:`~repro.cache.store.FileStore` needs for warm re-execution.

Synchronization processors consume their *whole* input streams in one
invocation, and under DP+SP the arrival order of those streams is a
race artifact, not a semantic property.  Their keys therefore encode
each port's tokens as a sorted multiset (``unordered=True``), so a warm
run whose tokens arrive in a different order still hits.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # runtime import would close a cycle through repro.core
    from repro.core.provenance import HistoryTree
    from repro.services.base import GridData, Service

__all__ = [
    "fingerprint_value",
    "fingerprint_datum",
    "history_fingerprint",
    "service_fingerprint",
    "invocation_key",
    "TokenFact",
]

#: what the key derivation needs from one input token: lineage + payload,
#: the payload either as the datum or as its :func:`fingerprint_datum`
#: (the enactor passes the one its token memoized)
TokenFact = Tuple["HistoryTree", Union["GridData", str]]


def fingerprint_value(value: Any) -> str:
    """Canonical, process-stable text encoding of a payload value.

    Handles the value vocabulary that actually flows through the
    workflows (scalars, strings, containers, numpy arrays, frozen
    dataclasses like ``RigidTransform``/``ImagePair``) structurally;
    anything else falls back to ``repr``, which is deterministic for
    every remaining type used in the repository.
    """
    if value is None:
        return "none"
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, bytes):
        return f"y:{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"nd:{value.dtype}:{value.shape}:{digest}"
    if isinstance(value, np.generic):
        return f"ns:{value.dtype}:{value.item()!r}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(fingerprint_value(item) for item in value)
        tag = "l" if isinstance(value, list) else "t"
        return f"{tag}:[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(fingerprint_value(item) for item in value))
        return f"set:[{inner}]"
    if isinstance(value, Mapping):
        inner = ",".join(
            f"{fingerprint_value(k)}={fingerprint_value(v)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return f"m:{{{inner}}}"
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        inner = ",".join(
            f"{f.name}={fingerprint_value(getattr(value, f.name))}" for f in fields(value)
        )
        return f"dc:{cls.__module__}.{cls.__qualname__}({inner})"
    return f"r:{type(value).__module__}.{type(value).__qualname__}:{value!r}"


def fingerprint_datum(datum: GridData) -> str:
    """Fingerprint of one :class:`GridData`: payload value + grid identity."""
    gfn = datum.file.gfn if datum.file is not None else ""
    return f"v={fingerprint_value(datum.value)};g={gfn}"


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
        invocations bind the whole stream.  A fact's payload may be
        given pre-fingerprinted; the key is the same either way.
    unordered:
        Encode each port's tokens as a sorted multiset.  Used for
        synchronization barriers, whose stream arrival order is
        nondeterministic under DP+SP and not semantically meaningful.
    """
    parts = [f"service:{service_fingerprint(service)}"]
    for port in sorted(bindings):
        token_fps = [
            f"h={history_fingerprint(history)};"
            f"{datum if isinstance(datum, str) else fingerprint_datum(datum)}"
            for history, datum in bindings[port]
        ]
        if unordered:
            token_fps = sorted(token_fps)
        parts.append(f"port:{port}=[" + "|".join(token_fps) + "]")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest
