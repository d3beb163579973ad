"""Differential oracle: the cache keys and the codec against the key derivation they replaced.

The reference below is the structural key derivation, kept verbatim:
``fingerprint_value`` walks one ``isinstance`` chain per value,
``history_fingerprint`` re-encodes the whole tree recursively, and
``invocation_key`` fingerprints every payload and the service on every
call.  Production now encodes a payload value once, as its
:mod:`repro.util.codec` canonical text (memoized on the datum), and the
history and descriptor fingerprints are memoized too.  So:

* canonical texts are equal exactly when the reference fingerprints are
  (keys collide exactly as before);
* a production key is the reference key with the value fingerprint
  swapped for the canonical text, whatever was keyed before, ordered and
  unordered;
* ``decode(encode(v))`` is *v*, bit for bit and of the same type (an int
  or list subclass comes back as its base type, a set as a frozenset);
* a dataclass nobody registered is refused at encode time.

Hand mutants of the production code, each killed by this test:

1. a parent left out of a derived node's join in
   ``keys.history_fingerprint`` (``node.parents[1:]``);
2. ``keys.history_fingerprint`` pushing only the first unencoded parent
   (``node.parents[:1]`` when collecting ``pending``), so a second
   parent is joined before it is encoded;
3. the iteration tag dropped from a derived node (``iteration = ""``);
4. the key reading the ``GridData.value_text`` memo alone, dropping the
   grid file (``keys.fingerprint_datum`` returning ``g=`` empty);
5. the wrapper's descriptor digest memo kept when ``descriptor`` is
   replaced (``if memo is None:`` only);
6. ``if unordered: token_fps = sorted(token_fps)`` dropped.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Mapping, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import keys
from repro.core.provenance import HistoryTree
from repro.core.tokens import DataToken
from repro.grid.storage import LogicalFile
from repro.grid.testbeds import ideal_testbed
from repro.services.base import GridData, LocalService
from repro.services.descriptor import AccessMethod, ExecutableDescriptor, InputSpec, OutputSpec
from repro.services.wrapper import GenericWrapperService
from repro.sim.engine import Engine
from repro.util import codec

TokenFact = Tuple["HistoryTree", "GridData"]


# -- the reference: the un-memoized encoder, verbatim ------------------------
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
    """Canonical text encoding of a history tree (structure-exact)."""
    if tree.index is not None:
        return f"{tree.producer!r}[{tree.index}]"
    inner = ",".join(history_fingerprint(parent) for parent in tree.parents)
    iteration = f"@{tree.iteration}" if tree.iteration else ""
    return f"{tree.producer!r}{iteration}({inner})"


def wrapper_fingerprint(self) -> str:
    """Descriptor-derived identity: the Figure 8 document fully
    determines the composed command line, so its serialized form
    (plus the declared output sizes) is the computation's identity."""
    from repro.services.descriptor import descriptor_to_xml

    digest = hashlib.sha256(
        descriptor_to_xml(self.descriptor).encode("utf-8")
    ).hexdigest()
    sizes = ",".join(f"{port}={self.output_size(port)}" for port in self.output_ports)
    return f"wrapper:{self.name}:{digest}:sizes={sizes}"


def service_fingerprint(service) -> str:
    # GenericWrapperService.cache_fingerprint is memoized now, so the
    # reference encodes the wrapper itself; other services are unchanged.
    if isinstance(service, GenericWrapperService):
        return wrapper_fingerprint(service)
    return service.cache_fingerprint()


def invocation_key(
    service,
    bindings: Mapping[str, Sequence[TokenFact]],
    unordered: bool = False,
) -> str:
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


# -- payload vocabulary ------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Count(int):
    """An int subclass."""


class Words(list):
    """A list subclass."""


@codec.register("oracle.Point")
@dataclass(frozen=True)
class Point:
    x: Any
    y: Any


@codec.register("oracle.Point3")
@dataclass(frozen=True)
class Point3(Point):
    """A dataclass subclass: its own name and one more field."""

    z: Any = 0


@codec.register("oracle.Boxed")
@dataclass(frozen=True)
class Boxed:
    inner: Any


@dataclass(frozen=True)
class Unregistered:
    inner: Any


DTYPES = ["int32", "int64", "float32", "float64", "bool", ">f8", "complex128", "uint8"]


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES + [[("a", "<i4")]])))
    shape = draw(st.sampled_from([(0,), (3,), (2, 3), (4, 2)]))
    base = (np.arange(int(np.prod(shape))) * draw(st.integers(1, 5))).reshape(shape)
    if dtype.fields is not None:
        array = np.zeros(shape, dtype=dtype)
        array["a"] = base
    else:
        array = base.astype(dtype)
    view = draw(st.sampled_from(["plain", "strided", "transposed"]))
    if view == "strided":
        return array[::2]
    if view == "transposed":
        return array.T
    return array


numpy_scalars = st.one_of(
    st.integers(-5, 5).map(np.int32),
    st.integers(-5, 5).map(np.int64),
    st.floats(-2, 2, allow_nan=False).map(np.float64),
    st.floats(-2, 2, allow_nan=False).map(np.float32),
    st.booleans().map(np.bool_),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.sampled_from(list(Level)),
    st.integers(0, 9).map(Count),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.binary(max_size=4),
    numpy_scalars,
    arrays(),
)

hashables = st.one_of(st.booleans(), st.integers(-3, 3), st.text(max_size=2), st.binary(max_size=2))


def grid_data(values):
    files = st.one_of(
        st.none(),
        st.builds(LogicalFile, st.sampled_from(["gfn://a", "gfn://b/1"]), st.integers(0, 9)),
    )
    return st.builds(GridData, values, files)


payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(Words),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)), inner, max_size=3),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
        st.builds(Point, inner, inner),
        st.builds(Point3, inner, inner, inner),
        st.builds(Boxed, inner),
        grid_data(inner),
    ),
    max_leaves=8,
)


# -- history DAGs --------------------------------------------------------------
@st.composite
def history_pools(draw):
    """Nodes built bottom-up, each derived node drawing 1-3 parents from the
    pool (with repeats), so subtrees are shared and parents multiple."""
    pool = [
        HistoryTree.leaf(draw(st.sampled_from(["s", "t", "it's"])), draw(st.integers(0, 3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        pool.append(HistoryTree("generator"))  # a no-input firing
    for _ in range(draw(st.integers(0, 6))):
        parents = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        pool.append(
            HistoryTree.derive(
                draw(st.sampled_from(["P", "Q", "crest\\Lines"])),
                tuple(parents),
                iteration=draw(st.sampled_from([0, 0, 1, 7])),
            )
        )
    return pool


# -- services --------------------------------------------------------------------
ENGINE = Engine()
GRID = ideal_testbed(ENGINE)


def descriptor(option: str) -> ExecutableDescriptor:
    return ExecutableDescriptor(
        name="wrapped",
        access=AccessMethod("URL", path="http://x"),
        value="prog.pl",
        inputs=(InputSpec(name="a", option=option, access=AccessMethod("GFN")),),
        outputs=(OutputSpec(name="out", option="-o"),),
    )


# -- properties ------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(history_pools(), st.randoms(use_true_random=False))
def test_history_encodings_match_the_reference(pool, rng):
    # Memoize in a random order: some nodes are asked for after their
    # descendants already filled their slots, some before.
    order = list(pool)
    rng.shuffle(order)
    for node in order:
        assert keys.history_fingerprint(node) == history_fingerprint(node)


@settings(max_examples=200, deadline=None)
@given(
    history_pools(),
    st.lists(st.tuples(st.sampled_from("xyz"), grid_data(payloads)), min_size=1, max_size=6),
    st.sampled_from(["local", "wrapper", "replaced"]),
    st.randoms(use_true_random=False),
)
def test_invocation_keys_match_the_reference(pool, bound, kind, rng):
    if kind == "local":
        service = LocalService(ENGINE, "S", ("x", "y", "z"), ("out",))
    else:
        service = GenericWrapperService(ENGINE, GRID, descriptor("-a"))
        service.cache_fingerprint()  # memoize the first descriptor
        if kind == "replaced":
            service.descriptor = descriptor("-b")
    bindings = {}
    for port, datum in bound:
        bindings.setdefault(port, []).append((rng.choice(pool), datum))
    # the enactor's route: the tokens' data, the key reading each one's memo
    tokens = {
        port: [DataToken(datum, history) for history, datum in facts]
        for port, facts in bindings.items()
    }
    memoized = {port: [(t.history, t.data) for t in ts] for port, ts in tokens.items()}
    for unordered in (False, True):
        expected = translated_key(service, bindings, unordered)
        assert keys.invocation_key(service, bindings, unordered=unordered) == expected
        assert keys.invocation_key(service, memoized, unordered=unordered) == expected
        shuffled = {port: rng.sample(facts, len(facts)) for port, facts in memoized.items()}
        if unordered:
            assert keys.invocation_key(service, shuffled, unordered=True) == expected


def text(value) -> str:
    return codec.canonical(codec.encode(value))


def translated_key(service, bindings, unordered):
    """The reference key with its value fingerprint swapped for the canonical text."""
    global fingerprint_value
    reference = fingerprint_value
    fingerprint_value = text
    try:
        return invocation_key(service, bindings, unordered=unordered)
    finally:
        fingerprint_value = reference


@settings(max_examples=300, deadline=None)
@given(st.lists(payloads, min_size=2, max_size=6))
def test_canonical_texts_collide_exactly_when_the_reference_fingerprints_do(values):
    references = [fingerprint_value(value) for value in values]
    texts = [text(value) for value in values]
    for i, j in itertools.combinations(range(len(values)), 2):
        assert (texts[i] == texts[j]) == (references[i] == references[j]), (values[i], values[j])


def assert_same(back, value):
    """*back* is *value*, bit for bit and of the same type (up to the base types above)."""
    if isinstance(value, (set, frozenset)):
        assert type(back) is frozenset and back == value
        return
    expected = type(value)
    if isinstance(value, int) and not isinstance(value, (bool, np.generic)):
        expected = int
    elif isinstance(value, list):
        expected = list
    assert type(back) is expected, (back, value)
    if isinstance(value, (np.ndarray, np.generic)):
        assert (back.dtype, back.shape) == (value.dtype, value.shape)
        assert back.tobytes() == value.tobytes()
    elif isinstance(value, float):
        assert repr(back) == repr(value)  # nan is nan, -0.0 is not 0.0
    elif isinstance(value, (list, tuple)):
        assert len(back) == len(value)
        for b, v in zip(back, value):
            assert_same(b, v)
    elif isinstance(value, dict):
        assert back.keys() == value.keys()
        for key in value:
            assert_same(back[key], value[key])
    elif is_dataclass(value):
        for f in fields(value):
            assert_same(getattr(back, f.name), getattr(value, f.name))
    else:
        assert back == value


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_decode_inverts_encode(value):
    tree = codec.encode(value)
    assert_same(codec.decode(json.loads(codec.canonical(tree))), value)
    assert_same(codec.decode(tree), value)


def test_an_unregistered_dataclass_is_refused():
    with pytest.raises(codec.CodecError, match="Unregistered"):
        codec.encode([1, Unregistered(2)])
    with pytest.raises(codec.CodecError, match="oracle.Nowhere"):
        codec.decode({"oracle.Nowhere": {}})
