"""Result stores: where completed invocations' outputs live.

Two implementations behind one small contract:

* :class:`InMemoryStore` — a thread-safe in-process map.  The right
  store for long-lived enactor processes that re-run workflows within
  one session (and for tests).
* :class:`EntryLog` — every entry as one line of an append-only log
  under a crash-tolerant line discipline, so a crashed run never serves
  a torn entry.  It is the one record of
  completed work: :class:`FileStore` is the log at
  ``<directory>/entries.jsonl``, the result cache's durable store, and
  the enactment journal (:mod:`repro.core.journal`) is the log at the
  journal's path plus run markers and group commit.  This is what
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
import fcntl
import json
import math
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.grid.storage import LogicalFile
from repro.services.base import GridData

__all__ = [
    "CacheEntry",
    "ResultStore",
    "InMemoryStore",
    "FileStore",
    "CacheStoreError",
    "EntryLog",
    "estimate_entry_bytes",
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
    """Thread-safe in-process store: a dict from key to entry.

    Not a log over a buffer: a hit returns the stored objects with no
    encode or decode, which is what an in-process cache is for.
    """

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


def entry_to_document(entry: CacheEntry) -> dict:
    """The JSON-serializable form of one entry, tagged as one completed invocation."""
    return {
        "event": "invocation",
        "key": entry.key,
        "service": entry.service,
        "outputs": {port: _encode_datum(d) for port, d in entry.outputs.items()},
    }


def entry_from_document(doc: dict) -> CacheEntry:
    """Rebuild an entry from its JSON form.

    Other keys are ignored, so documents without the ``event`` tag or
    with the old ``created_at`` / ``size_bytes`` fields load and hit.
    """
    return CacheEntry(
        key=doc["key"],
        service=doc["service"],
        outputs={port: _decode_datum(d) for port, d in doc["outputs"].items()},
    )


class EntryLog:
    """Completed invocations as one append-only log of JSON lines at *path*.

    A line is an entry's JSON document — the key, the service and the
    outputs, nothing that depends on when it was written — so the same
    result is the same bytes.  A put is one appended line; an in-memory
    index maps each key to its line's (offset, length), so a hit is one
    positional read.  A miss first indexes the lines other instances or
    processes appended since the last look; a later line for a key
    wins.  A line that is torn, does not parse or carries no key is never
    indexed, and a read whose line turns out not to carry the key asked
    for (the log was cleared under a stale index) is a miss: neither ever
    crashes.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
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
        document = _parse(line)
        if document is not None and document.get("key") == key:
            try:
                return entry_from_document(document)
            except Exception:
                return None  # a corrupt entry is a miss, never a crash
        with self._lock:
            if self._index.get(key) == span:
                # stale offsets (another instance cleared the log): the
                # next lookup re-indexes from the start
                self._forget()
        return None

    def put(self, entry: CacheEntry) -> None:
        self._append(entry_to_document(entry))

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

    def __enter__(self) -> "EntryLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def keys(self) -> List[str]:
        """Keys in the log, in the order each first appears."""
        with self._lock:
            self._refresh()
            return list(self._index)

    def documents(self) -> List[dict]:
        """Every line that parses as a JSON object, oldest first."""
        with self._lock:
            documents = (_parse(line) for _, line in _complete_lines(self._open()))
            return [document for document in documents if document is not None]

    def __len__(self) -> int:
        with self._lock:
            self._refresh()
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._refresh()
            return key in self._index

    # -- internals -----------------------------------------------------
    def _append(self, document: dict) -> None:
        """Append *document* as one line, indexed under its ``key`` if it has one."""
        line = json.dumps(document).encode("utf-8")
        key = document.get("key")
        with self._lock:
            try:
                end = _append_line(self._open(), line)
            except OSError as exc:
                raise CacheStoreError(f"cannot append to {self.path}: {exc}") from exc
            start = end - len(line) - 1
            if key is not None:
                self._index[key] = (start, len(line))
            if self._scanned == start:
                self._scanned = end

    # (the methods below run with the lock held)
    def _open(self) -> BinaryIO:
        if self._handle is None:
            try:
                self._handle = _open_log(self.path)
            except OSError as exc:
                raise CacheStoreError(f"cannot open log {self.path}: {exc}") from exc
        return self._handle

    def _forget(self) -> None:
        self._index.clear()
        self._scanned = 0

    def _refresh(self) -> None:
        """Index the complete lines appended since the last scan.

        Opening the log ends a torn tail, so a final line that lost only
        its newline to a crash is indexed and a torn one never is.
        """
        handle = self._open()
        if os.fstat(handle.fileno()).st_size < self._scanned:
            self._forget()  # truncated by another instance's clear()
        for offset, line in _complete_lines(handle, self._scanned):
            self._scanned = offset + len(line) + 1
            document = _parse(line)
            key = document.get("key") if document is not None else None
            if isinstance(key, str):
                self._index[key] = (offset, len(line))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {str(self.path)!r} entries={len(self)}>"


# -- the line discipline ----------------------------------------------------
# A log is a file of newline-terminated lines.  One ``write`` per line on
# an ``O_APPEND`` handle: when it returns, every other reader sees the
# line, and concurrent writers never interleave their bytes.  No
# ``fsync``: durability past an OS crash is the caller's choice.  Appends
# and the torn-tail check hold an exclusive ``flock`` on the log, so the
# check never mistakes another writer's line, still being copied in, for
# a torn one.

def _open_log(path: Path) -> BinaryIO:
    """An unbuffered append handle on *path*, its torn tail (if any) ended.

    If the file ends mid-line (a crash cut the last write short), the
    fragment gets its ``"\\n"`` first, so a new line is never glued onto
    it; it then reads as one line that does not parse, or, if the crash
    cut only its newline, as the whole line it is.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+b", buffering=0)
    try:
        fd = handle.fileno()
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            handle.write(b"\n")
        fcntl.flock(fd, fcntl.LOCK_UN)
    except BaseException:
        handle.close()  # which also drops the lock
        raise
    return handle


def _append_line(handle: BinaryIO, line: bytes) -> int:
    """Append *line* plus ``"\\n"``; return the offset just past it."""
    data = memoryview(line + b"\n")
    fcntl.flock(handle, fcntl.LOCK_EX)
    try:
        while data:
            data = data[handle.write(data):]
        return handle.tell()
    finally:
        fcntl.flock(handle, fcntl.LOCK_UN)


def _complete_lines(handle: BinaryIO, start: int = 0) -> Iterator[Tuple[int, bytes]]:
    """``(offset, line)`` for each complete line at or after *start*.

    The line comes without its ``"\\n"``; a final fragment with no
    ``"\\n"`` is not yielded, so a reader never sees half a line.  Reads
    through the file descriptor at explicit offsets, so the handle's own
    position never moves.
    """
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    data = os.pread(fd, size - start, start) if size > start else b""
    begin = 0
    while (end := data.find(b"\n", begin)) >= 0:
        yield start + begin, data[begin:end]
        begin = end + 1


def _parse(line: bytes) -> Optional[dict]:
    """The JSON object on *line*, else None (torn or corrupt)."""
    try:
        document = json.loads(line)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


class FileStore(EntryLog):
    """The durable result store: an :class:`EntryLog` at ``<directory>/entries.jsonl``."""

    def __init__(self, directory: "str | Path") -> None:
        super().__init__(Path(directory) / "entries.jsonl")
