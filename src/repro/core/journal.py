"""Crash-safe enactment journal: an append-only WAL of completed work.

An interrupted enactment used to restart from zero.  The journal fixes
that: the enactor appends one line per *completed* invocation —
provenance key, trace metadata, and the produced outputs in the result
cache's wire format — before the outputs become visible to the
dataflow.  ``MoteurEnactor.resume`` loads the journal and replays every
recorded invocation instantly (``kind="replayed"`` trace events, zero
grid jobs), so the run continues exactly where the crash cut it off and
the final outputs match an uninterrupted run.

Durability is two-level (group commit):

* **Every line reaches the OS before its outputs are emitted**: each
  append is written and flushed, so a killed process loses nothing it
  has published downstream.
* **``os.fsync`` runs in** :meth:`EnactmentJournal.commit`: once every
  :data:`GROUP_COMMIT_LINES` unsynced lines, on :meth:`close`, and —
  because the enactor closes its journal just before its completion
  event triggers — before the caller, the service's store or the CLI
  can act on the run's result.  An OS crash or power loss can
  therefore drop only an unsynced tail whose effects lived in memory
  that died with it; those invocations simply re-execute, with
  identical outputs under the input-keyed RNG.

A torn final line (the crash hit mid write) is detected on load and
skipped — that invocation re-executes too.

Failed invocations are never journaled: a resumed run retries them,
which is exactly what you want after fixing whatever killed the run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, IO, List, Mapping, Optional, Tuple

from repro.cache.store import decode_datum, encode_datum
from repro.services.base import GridData

__all__ = ["EnactmentJournal", "JournalEntry", "SimulatedCrash"]

#: unsynced lines that force an ``os.fsync`` (group commit batch size)
GROUP_COMMIT_LINES = 64


class SimulatedCrash(RuntimeError):
    """Injected mid-run crash (``crash_after_n_invocations``).

    Propagates through the enactment completion *unwrapped* so crash
    tests can tell a simulated interrupt from a real enactment error.
    """

    def __init__(self, completed: int) -> None:
        super().__init__(f"simulated crash after {completed} completed invocations")
        self.completed = completed


@dataclass(frozen=True)
class JournalEntry:
    """One completed invocation as recorded in (or loaded from) the WAL."""

    key: str
    processor: str
    label: str
    kind: str
    started: float
    finished: float
    job_ids: Tuple[int, ...] = ()
    outputs: Mapping[str, GridData] = field(default_factory=dict)

    def to_document(self) -> dict:
        return {
            "event": "invocation",
            "key": self.key,
            "processor": self.processor,
            "label": self.label,
            "kind": self.kind,
            "started": self.started,
            "finished": self.finished,
            "job_ids": list(self.job_ids),
            "outputs": {port: encode_datum(d) for port, d in self.outputs.items()},
        }

    @classmethod
    def from_document(cls, doc: Mapping) -> "JournalEntry":
        return cls(
            key=doc["key"],
            processor=doc["processor"],
            label=doc["label"],
            kind=doc["kind"],
            started=float(doc["started"]),
            finished=float(doc["finished"]),
            job_ids=tuple(int(j) for j in doc["job_ids"]),
            outputs={port: decode_datum(d) for port, d in doc["outputs"].items()},
        )


class EnactmentJournal:
    """Append-only JSONL journal at *path*; safe to reopen and resume."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None
        #: entries appended by THIS process (not counting loaded ones)
        self.appended = 0
        self._unsynced = 0

    # -- writing -------------------------------------------------------
    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def _write(self, doc: dict) -> None:
        handle = self._ensure_open()
        handle.write(json.dumps(doc, sort_keys=True) + "\n")
        # WAL semantics: the line reaches the OS before the enactor lets
        # the recorded outputs take effect downstream; fsync is batched.
        handle.flush()
        self.appended += 1
        self._unsynced += 1
        if self._unsynced >= GROUP_COMMIT_LINES:
            self.commit()

    def append_run(self, workflow: str, config_label: str, at: float) -> None:
        """Mark the start of one enactment (sanity anchor for load())."""
        self._write(
            {"event": "run", "workflow": workflow, "config": config_label, "at": at}
        )

    def append_invocation(self, entry: JournalEntry) -> None:
        """Record one completed invocation (outputs included)."""
        self._write(entry.to_document())

    def commit(self) -> None:
        """Make every line written so far durable (one ``os.fsync``)."""
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def close(self) -> None:
        """Commit, then release the file handle (reopened on next append)."""
        if self._handle is not None:
            self.commit()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EnactmentJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------
    def load(self) -> Dict[str, JournalEntry]:
        """Replay map ``provenance key -> entry`` from the journal file.

        Corrupt or torn lines (typically the very last one, cut by the
        crash) are skipped: losing one entry only means re-executing
        one invocation.  Later entries win on key collisions, so a
        journal spanning several runs replays the freshest results.
        """
        entries: Dict[str, JournalEntry] = {}
        if not self.path.exists():
            return entries
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    if doc.get("event") != "invocation":
                        continue
                    entry = JournalEntry.from_document(doc)
                except (ValueError, KeyError, TypeError):
                    continue  # torn/corrupt line: re-execute that invocation
                entries[entry.key] = entry
        return entries

    def runs(self) -> List[dict]:
        """The run-start markers present in the journal, oldest first."""
        markers: List[dict] = []
        if not self.path.exists():
            return markers
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue
                if doc.get("event") == "run":
                    markers.append(doc)
        return markers

    def __repr__(self) -> str:
        return f"<EnactmentJournal {str(self.path)!r} appended={self.appended}>"
