"""Result stores: where cached invocation outputs live.

Two implementations behind one small contract:

* :class:`InMemoryStore` — a thread-safe in-process map.  The right
  store for long-lived enactor processes that re-run workflows within
  one session (and for tests).
* :class:`FileStore` — one JSON document per entry under a directory,
  written atomically (``tmp`` + ``os.replace``) so a crashed run never
  leaves a torn entry behind.  This is the store that makes **warm
  re-execution across processes** work: a cold run persists every
  result, a later run with the same provenance keys replays them
  without submitting a single grid job — the operational payoff of the
  paper's "save and store the input data set in order to be able to
  re-execute workflows on the same data set".

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
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Protocol, runtime_checkable

from repro.grid.storage import LogicalFile
from repro.services.base import GridData

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
    """One JSON file per entry under *directory*, written atomically.

    A document holds the key, the service and the outputs, nothing that
    depends on when it was written: the same result is the same bytes.
    """

    def __init__(self, directory: "str | Path") -> None:
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheStoreError(f"cannot create cache directory {directory}: {exc}") from exc

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[CacheEntry]:
        return self._read(self._path(key))

    def put(self, entry: CacheEntry) -> None:
        document = json.dumps(entry_to_document(entry))
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(document)
            os.replace(tmp_name, self._path(entry.key))
        except OSError as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise CacheStoreError(f"cannot write cache entry {entry.key}: {exc}") from exc

    def clear(self) -> None:
        for path in self.directory.glob("*.json"):
            self._remove(path)

    def keys(self) -> List[str]:
        """Keys currently on disk."""
        return [path.stem for path in self.directory.glob("*.json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    # -- internals -----------------------------------------------------
    def _read(self, path: Path) -> Optional[CacheEntry]:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return entry_from_document(json.loads(text))
        except Exception:
            # A torn/corrupt entry is a miss, never a crash.
            self._remove(path)
            return None

    def _remove(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        return f"<FileStore dir={str(self.directory)!r} entries={len(self)}>"
