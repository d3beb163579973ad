"""The one canonical encoding of data values: the cache key's text, the log's bytes.

:func:`encode` turns a value into a tagged, JSON-plain tree, :func:`decode`
inverts it, and :func:`canonical` dumps a tree with sorted keys and
compact separators, so equal values give equal text in any process.
``None``, bool, int (subclasses too), finite float, str and list encode
as themselves, any other value as a one-key object naming its tag
(DESIGN.md lists them), and a registered class as ``{tag: {field:
value}}``.  Anything else, and a tag no class registered, raises
:class:`CodecError`.  Decoding imports nothing and builds registered
instances field by field, without running ``__init__``.
"""

from __future__ import annotations

import json
import math
from binascii import a2b_base64, b2a_base64
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Mapping, Tuple

import numpy as np
from numpy.lib.format import descr_to_dtype, dtype_to_descr

__all__ = ["CodecError", "register", "encode", "decode", "canonical"]


class CodecError(TypeError):
    """A value outside the vocabulary, or a tag no class registered."""


#: the tree's canonical text
canonical: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
).encode

#: tag -> (registered class, its field names)
_CLASSES: Dict[str, Tuple[type, Tuple[str, ...]]] = {}


def register(tag: str) -> Callable[[type], type]:
    """Class decorator: a frozen dataclass (or a stateless sentinel) encodes as *tag*."""

    def add(cls: type) -> type:
        if tag in _CLASSES or tag in _DECODERS or cls in _ENCODERS:
            raise ValueError(f"codec tag {tag!r} or class {cls.__qualname__} already taken")
        names = tuple(f.name for f in fields(cls)) if is_dataclass(cls) else ()
        _CLASSES[tag] = (cls, names)
        _ENCODERS[cls] = lambda value: {tag: {name: _walk(getattr(value, name)) for name in names}}
        return cls

    return add


def encode(value: Any) -> Any:
    """The tagged, JSON-plain tree of *value*."""
    return _walk(value)


def _walk(value: Any) -> Any:
    kind = type(value)
    if kind is str or kind is int or kind is bool or value is None:
        return value
    if kind is float:
        return value if math.isfinite(value) else {"f": repr(value)}
    encoder = _ENCODERS.get(kind)
    if encoder is not None:
        return encoder(value)
    # subclasses, in the order the keys have always told them apart
    for base in (int, str, bytes, np.generic, float, np.ndarray, list, tuple, frozenset, set):
        if isinstance(value, base):  # np.generic before float: np.float64 is one
            return _ENCODERS[base](value)
    if isinstance(value, Mapping):
        return _mapping(value)
    raise CodecError(
        f"cannot encode a {kind.__module__}.{kind.__qualname__}: not in the codec's "
        "vocabulary (register its class with repro.util.codec.register)"
    )


def _raw(value: "np.ndarray | np.generic") -> list:
    if value.dtype.hasobject:
        raise CodecError(f"cannot encode objects in a numpy {value.dtype}")
    return [dtype_to_descr(value.dtype), b2a_base64(value.tobytes(), newline=False).decode()]


def _mapping(value: Mapping) -> dict:
    pairs = [[_walk(key), _walk(item)] for key, item in value.items()]
    return {"m": sorted(pairs, key=lambda pair: canonical(pair[0]))}


def _set(value) -> dict:
    return {"s": sorted((_walk(item) for item in value), key=canonical)}


#: exact type -> encoder (registered classes join at registration)
_ENCODERS: Dict[type, Callable[[Any], Any]] = {
    int: int,
    str: str.__str__,
    float: lambda value: _walk(float(value)),
    bytes: lambda value: {"y": b2a_base64(value, newline=False).decode()},
    list: lambda value: [_walk(item) for item in value],
    tuple: lambda value: {"t": [_walk(item) for item in value]},
    set: _set,
    frozenset: _set,
    dict: _mapping,
    np.ndarray: lambda value: {"nd": [*_raw(value), list(value.shape)]},
    np.generic: lambda value: {"ns": _raw(value)},
}


def decode(tree: Any) -> Any:
    """The value *tree* encodes; a tree of no known shape raises ``ValueError``."""
    kind = type(tree)
    if kind is list:
        return [decode(item) for item in tree]
    if kind is not dict:
        return tree
    if len(tree) != 1:
        raise ValueError(f"not a tagged value: an object with keys {sorted(tree)}")
    ((tag, body),) = tree.items()
    reader = _DECODERS.get(tag)
    if reader is not None:
        return reader(body)
    if tag not in _CLASSES:
        raise CodecError(f"no class is registered for the codec tag {tag!r}")
    cls, names = _CLASSES[tag]
    if len(body) != len(names):
        raise ValueError(f"{tag} has fields {sorted(body)}, expected {sorted(names)}")
    instance = cls.__new__(cls)
    for name in names:
        object.__setattr__(instance, name, decode(body[name]))
    return instance


def _array_of(descr: Any, data: str, shape: Any = ()) -> np.ndarray:
    array = np.frombuffer(a2b_base64(data), dtype=descr_to_dtype(descr))
    return array.reshape(shape).copy()  # owns its bytes and is writable, like the original


_DECODERS: Dict[str, Callable[[Any], Any]] = {
    "f": float,
    "y": a2b_base64,
    "t": lambda body: tuple(decode(item) for item in body),
    "s": lambda body: frozenset(decode(item) for item in body),
    "m": lambda body: {decode(key): decode(item) for key, item in body},
    "nd": lambda body: _array_of(*body),
    "ns": lambda body: _array_of(*body)[()],
}
