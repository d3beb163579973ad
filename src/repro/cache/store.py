"""Result stores: where cached invocation outputs live.

Two implementations behind one small contract:

* :class:`InMemoryStore` — a thread-safe in-process map.  The right
  store for long-lived enactor processes that re-run workflows within
  one session (and for tests).
* :class:`FileStore` — every entry as one line of an append-only log,
  ``<directory>/entries.jsonl``, under the crash-tolerant line
  discipline the enactment journal shares (:mod:`repro.util.linelog`),
  so a crashed run never serves a torn entry.  This is the store that
  makes **warm re-execution across processes** work: a cold run
  persists every result, a later run with the same provenance keys
  replays them without submitting a single grid job — the operational
  payoff of the paper's "save and store the input data set in order to
  be able to re-execute workflows on the same data set".

A store keeps every entry it is given: nothing expires and nothing is
evicted, so a put costs the same at any store size.

Payload values are JSON when they are plain scalars and pickled
(base64, fixed protocol) otherwise, so arbitrary data products — rigid
transforms, numpy arrays — round-trip bit-exactly.
"""

from __future__ import annotations

import base64
import json
import math
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Protocol, Tuple, runtime_checkable

from repro.grid.storage import LogicalFile
from repro.services.base import GridData
from repro.util.linelog import append_line, complete_lines, open_log

__all__ = [
    "CacheEntry",
    "ResultStore",
    "InMemoryStore",
    "FileStore",
    "CacheStoreError",
    "estimate_entry_bytes",
    "encode_datum",
    "decode_datum",
]

#: pinned pickle protocol so FileStore entries are portable across the
#: Python versions CI runs (protocol 4 loads on every supported version)
_PICKLE_PROTOCOL = 4


class CacheStoreError(RuntimeError):
    """A store operation failed (unwritable directory, corrupt entry...)."""


@dataclass(frozen=True)
class CacheEntry:
    """One cached invocation result."""

    key: str
    service: str
    outputs: Dict[str, GridData] = field(default_factory=dict)


def estimate_entry_bytes(outputs: Dict[str, GridData]) -> int:
    """Approximate payload size of an outputs dict (for the byte stats)."""
    try:
        return len(pickle.dumps(outputs, protocol=_PICKLE_PROTOCOL))
    except Exception:
        return len(repr(outputs).encode("utf-8", errors="replace"))


@runtime_checkable
class ResultStore(Protocol):
    """What the cache needs from a store implementation."""

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry under *key*, else None."""
        ...

    def put(self, entry: CacheEntry) -> None:
        """Insert (or overwrite) an entry."""
        ...

    def clear(self) -> None:
        """Drop every entry."""
        ...

    def __len__(self) -> int: ...


class InMemoryStore:
    """Thread-safe in-process store: a dict from key to entry."""

    def __init__(self) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[CacheEntry]:
        with self._lock:
            return self._entries.get(key)

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.key] = entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return f"<InMemoryStore entries={len(self)}>"


# -- JSON (de)serialization --------------------------------------------------

def _json_scalar(value: object) -> bool:
    if value is None or isinstance(value, (bool, int, str)):
        return True
    return isinstance(value, float) and math.isfinite(value)


def _encode_datum(datum: GridData) -> dict:
    doc: dict = {}
    if datum.file is not None:
        doc["file"] = {"gfn": datum.file.gfn, "size": datum.file.size}
    value = datum.value
    if _json_scalar(value):
        doc["value"] = {"kind": "json", "data": value}
    else:
        blob = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        doc["value"] = {"kind": "pickle", "data": base64.b64encode(blob).decode("ascii")}
    return doc


def _decode_datum(doc: dict) -> GridData:
    file_doc = doc.get("file")
    file = LogicalFile(file_doc["gfn"], size=file_doc["size"]) if file_doc else None
    value_doc = doc["value"]
    if value_doc["kind"] == "json":
        value = value_doc["data"]
    else:
        value = pickle.loads(base64.b64decode(value_doc["data"]))
    return GridData(value=value, file=file)


#: public datum codec: the enactment journal (repro.core.journal) shares
#: this wire format so journaled outputs round-trip exactly like cached ones
encode_datum = _encode_datum
decode_datum = _decode_datum


def entry_to_document(entry: CacheEntry) -> dict:
    """The JSON-serializable form of one entry."""
    return {
        "key": entry.key,
        "service": entry.service,
        "outputs": {port: _encode_datum(d) for port, d in entry.outputs.items()},
    }


def entry_from_document(doc: dict) -> CacheEntry:
    """Rebuild an entry from its JSON form.

    Other keys are ignored, so documents that still carry the old
    ``created_at`` / ``size_bytes`` fields load and hit.
    """
    return CacheEntry(
        key=doc["key"],
        service=doc["service"],
        outputs={port: _decode_datum(d) for port, d in doc["outputs"].items()},
    )


class FileStore:
    """Every entry as one line of ``<directory>/entries.jsonl``.

    A line is the entry's JSON document — the key, the service and the
    outputs, nothing that depends on when it was written — so the same
    result is the same bytes.  A put is one appended line; an in-memory
    index maps each key to its line's (offset, length), so a hit is one
    positional read.  A miss first indexes the lines other instances or
    processes appended since the last look; a later line for a key
    wins.  A line that is torn or does not parse is never indexed, and a
    read whose line turns out not to carry the key asked for (the log was
    cleared under a stale index) is a miss: neither ever crashes.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheStoreError(f"cannot create cache directory {directory}: {exc}") from exc
        self.path = self.directory / "entries.jsonl"
        self._lock = threading.Lock()
        self._handle: Optional[BinaryIO] = None
        #: key -> (offset, length) of its latest line, "\n" excluded
        self._index: Dict[str, Tuple[int, int]] = {}
        #: every complete line before this offset is indexed
        self._scanned = 0

    def get(self, key: str) -> Optional[CacheEntry]:
        with self._lock:
            span = self._index.get(key)
            if span is None:
                self._refresh()
                span = self._index.get(key)
                if span is None:
                    return None
            offset, length = span
            line = os.pread(self._open().fileno(), length, offset)
        try:
            entry = entry_from_document(json.loads(line))
        except Exception:
            entry = None  # a corrupt entry is a miss, never a crash
        if entry is not None and entry.key == key:
            return entry
        with self._lock:
            if self._index.get(key) == span:
                # stale offsets (another instance cleared the log): the
                # next lookup re-indexes from the start
                self._forget()
        return None

    def put(self, entry: CacheEntry) -> None:
        line = json.dumps(entry_to_document(entry)).encode("utf-8")
        with self._lock:
            try:
                end = append_line(self._open(), line)
            except OSError as exc:
                raise CacheStoreError(f"cannot write cache entry {entry.key}: {exc}") from exc
            start = end - len(line) - 1
            self._index[entry.key] = (start, len(line))
            if self._scanned == start:
                self._scanned = end

    def clear(self) -> None:
        with self._lock:
            self._open().truncate(0)
            self._forget()

    def close(self) -> None:
        """Release the log handle; the next operation reopens and re-indexes."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._forget()

    def keys(self) -> List[str]:
        """Keys in the log."""
        with self._lock:
            self._refresh()
            return list(self._index)

    def __len__(self) -> int:
        with self._lock:
            self._refresh()
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._refresh()
            return key in self._index

    # -- internals (call with the lock held) ---------------------------
    def _open(self) -> BinaryIO:
        if self._handle is None:
            try:
                self._handle = open_log(self.path)
            except OSError as exc:
                raise CacheStoreError(f"cannot open cache log {self.path}: {exc}") from exc
        return self._handle

    def _forget(self) -> None:
        self._index.clear()
        self._scanned = 0

    def _refresh(self) -> None:
        """Index the complete lines appended since the last scan."""
        handle = self._open()
        if os.fstat(handle.fileno()).st_size < self._scanned:
            self._forget()  # truncated by another instance's clear()
        for offset, line in complete_lines(handle, self._scanned):
            self._scanned = offset + len(line) + 1
            try:
                key = json.loads(line)["key"]
            except (ValueError, TypeError, KeyError):
                continue  # torn or corrupt: never indexed, reads as a miss
            if isinstance(key, str):
                self._index[key] = (offset, len(line))

    def __repr__(self) -> str:
        return f"<FileStore dir={str(self.directory)!r} entries={len(self)}>"
