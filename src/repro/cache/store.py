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

A line is canonical JSON, each value a :mod:`repro.util.codec` tree.
Older lines hold a ``{"kind", "data"}`` object (executable serialization)
where the value goes: no codec tree, so they read as misses, never run.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from repro.grid.storage import LogicalFile
from repro.services.base import GridData
from repro.util.codec import CodecError, canonical, decode

__all__ = [
    "CacheEntry",
    "ResultStore",
    "InMemoryStore",
    "FileStore",
    "CacheStoreError",
    "EntryLog",
]


class CacheStoreError(RuntimeError):
    """A store operation failed (unwritable directory, corrupt entry...)."""


@dataclass(frozen=True)
class CacheEntry:
    """One cached invocation result."""

    key: str
    service: str
    outputs: Dict[str, GridData] = field(default_factory=dict)

    @cached_property
    def outputs_text(self) -> str:
        """``{port: {"file": ..., "value": ...}}`` as canonical JSON, from the data's memos."""
        parts = []
        for port in sorted(self.outputs):
            datum = self.outputs[port]
            file = datum.file
            where = "" if file is None else (
                f'"file":{{"gfn":{_string(file.gfn)},"size":{file.size}}},'
            )
            parts.append(f'{_string(port)}:{{{where}"value":{datum.value_text}}}')
        return "{" + ",".join(parts) + "}"


@runtime_checkable
class ResultStore(Protocol):
    """What the cache needs from a store implementation."""

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry under *key*, else None."""
        ...

    def put(self, entry: CacheEntry) -> None:
        """Insert (or overwrite) an entry."""
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


# -- the line of one entry ---------------------------------------------------

def entry_line(entry: CacheEntry) -> str:
    """The entry's log line: its document as canonical JSON, ``"\\n"`` excluded."""
    return (
        f'{{"event":"invocation","key":{_string(entry.key)},'
        f'"outputs":{entry.outputs_text},"service":{_string(entry.service)}}}'
    )


def entry_to_document(entry: CacheEntry) -> dict:
    """The JSON document of one entry (its line, parsed), tagged as one completed invocation."""
    return json.loads(entry_line(entry))


def entry_from_document(doc: dict) -> CacheEntry:
    """Rebuild an entry from its JSON document.

    Other keys are ignored, so documents with the old ``created_at`` /
    ``size_bytes`` fields load and hit.
    """
    return CacheEntry(
        key=doc["key"],
        service=doc["service"],
        outputs={port: _datum(d) for port, d in doc["outputs"].items()},
    )


def _datum(doc: dict) -> GridData:
    tree = doc["value"]
    file = doc.get("file")
    datum = GridData(decode(tree), None if file is None else LogicalFile(file["gfn"], file["size"]))
    vars(datum)["value_text"] = canonical(tree)  # the memo, so keys reading it walk nothing
    return datum


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
    crashes, but a codec tag no class registered (a missing import)
    raises :class:`~repro.util.codec.CodecError`.  Reads open the log
    read-only and a missing log reads empty; only a put or a clear
    creates it.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle: Optional[BinaryIO] = None
        #: whether _handle is the append handle (else read-only)
        self._appending = False
        #: key -> (offset, length) of its latest line, "\n" excluded
        self._index: Dict[str, Tuple[int, int]] = {}
        #: every line before this offset is indexed
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
            line = os.pread(self._handle.fileno(), length, offset)
        document = _parse(line)
        if document is not None and document.get("key") == key:
            try:
                return entry_from_document(document)
            except CodecError:
                raise
            except Exception:
                return None  # a corrupt entry is a miss, never a crash
        with self._lock:
            if self._index.get(key) == span:
                # stale offsets (another instance cleared the log): the
                # next lookup re-indexes from the start
                self._forget()
        return None

    def put(self, entry: CacheEntry) -> None:
        self._append(entry_line(entry), entry.key)

    def clear(self) -> None:
        with self._lock:
            self._writer().truncate(0)
            self._forget()

    def close(self) -> None:
        """Release the log handle; the next operation reopens and re-indexes."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._appending = False
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
            handle = self._reader()
            lines = _lines(handle.fileno()) if handle is not None else ()
            documents = [_parse(line) for _, line, _ in lines]
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
    @contextmanager
    def _one_shot(self) -> Iterator[None]:
        """Close again the handle a read inside opens."""
        held = self._handle is not None
        try:
            yield
        finally:
            if not held:
                self.close()

    def _append(self, line: str, key: Optional[str]) -> None:
        """Append *line*, indexed under *key* if it has one."""
        data = line.encode("utf-8")
        with self._lock:
            try:
                end = _append_line(self._writer(), data)
            except OSError as exc:
                raise CacheStoreError(f"cannot append to {self.path}: {exc}") from exc
            start = end - len(data) - 1
            if key is not None:
                self._index[key] = (start, len(data))
            if self._scanned == start:
                self._scanned = end

    # (the methods below run with the lock held)
    def _writer(self) -> BinaryIO:
        if not self._appending:
            try:
                handle = _open_log(self.path)
            except OSError as exc:
                raise CacheStoreError(f"cannot open log {self.path}: {exc}") from exc
            if self._handle is not None:
                self._handle.close()  # the read-only one; the index stays valid
            self._handle, self._appending = handle, True
        return self._handle

    def _reader(self) -> Optional[BinaryIO]:
        """The handle to read through; None while the log does not exist."""
        if self._handle is None:
            try:
                self._handle = open(self.path, "rb", buffering=0)
            except FileNotFoundError:
                return None
            except OSError as exc:
                raise CacheStoreError(f"cannot read log {self.path}: {exc}") from exc
        return self._handle

    def _forget(self) -> None:
        self._index.clear()
        self._scanned = 0

    def _refresh(self) -> None:
        """Index the lines appended since the last scan.

        A final line without its ``"\\n"`` counts if it parses (a crash
        cut only its newline); else it is torn or still being written.
        """
        handle = self._reader()
        if handle is None:
            return
        if os.fstat(handle.fileno()).st_size < self._scanned:
            self._forget()  # truncated by another instance's clear()
        for offset, line, complete in _lines(handle.fileno(), self._scanned):
            document = _parse(line)
            if document is None and not complete:
                break
            self._scanned = offset + len(line) + complete
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


def _lines(fd: int, start: int = 0) -> Iterator[Tuple[int, bytes, bool]]:
    """``(offset, line, complete)`` for each line at or after *start*.

    The line comes without its ``"\\n"``; a final fragment with no
    ``"\\n"`` comes last, with *complete* False, for the caller to judge.
    Reads at explicit offsets, so no handle's position ever moves.
    """
    size = os.fstat(fd).st_size
    data = os.pread(fd, size - start, start) if size > start else b""
    begin = 0
    while (end := data.find(b"\n", begin)) >= 0:
        yield start + begin, data[begin:end], True
        begin = end + 1
    if begin < len(data):
        yield start + begin, data[begin:], False


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
