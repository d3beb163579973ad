"""Crash-safe enactment journal: an append-only WAL of completed work.

An interrupted enactment used to restart from zero.  The journal fixes
that: the enactor appends one line per *completed* invocation — the
result cache's entry for it (provenance key, service, outputs) — before
the outputs become visible to the dataflow.  ``MoteurEnactor.resume``
loads the journal and replays every recorded invocation instantly
(``kind="replayed"`` trace events, zero grid jobs), so the run continues
exactly where the crash cut it off and the final outputs match an
uninterrupted run.

The journal *is* the result cache's log (:class:`~repro.cache.store.EntryLog`)
at the journal's path: an invocation line is byte for byte the line
``FileStore.put`` writes for the same entry, and :meth:`EnactmentJournal.load`
is the log's own index, under the log's torn-line rules.  The journal
adds only run markers, group commit and the replay map.  Durability is
two-level:

* **Every line reaches the OS before its outputs are emitted**: each
  append is one unbuffered ``write``, so a killed process loses nothing
  it has published downstream.
* **``os.fsync`` runs in** :meth:`EnactmentJournal.commit`: once every
  :data:`GROUP_COMMIT_LINES` unsynced lines, on :meth:`close`, and —
  because the enactor closes its journal just before its completion
  event triggers — before the caller, the service's store or the CLI
  can act on the run's result.  An OS crash or power loss can
  therefore drop only an unsynced tail whose effects lived in memory
  that died with it; those invocations simply re-execute, with
  identical outputs under the input-keyed RNG.

Failed invocations are never journaled: a resumed run retries them,
which is exactly what you want after fixing whatever killed the run.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

from repro.cache.store import CacheEntry, EntryLog

__all__ = ["EnactmentJournal", "SimulatedCrash"]

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


class EnactmentJournal(EntryLog):
    """The completed-work log at *path*, with run markers and group commit."""

    def __init__(self, path: "str | Path") -> None:
        super().__init__(path)
        #: lines appended by THIS process (not counting loaded ones)
        self.appended = 0
        self._unsynced = 0

    def _append(self, document: dict) -> None:
        # WAL semantics: the line reaches the OS before the enactor lets
        # the recorded outputs take effect downstream; fsync is batched.
        super()._append(document)
        self.appended += 1
        self._unsynced += 1
        if self._unsynced >= GROUP_COMMIT_LINES:
            self.commit()

    def append_run(self, workflow: str, config_label: str, at: float) -> None:
        """Mark the start of one enactment (a line with no key: never replayed)."""
        self._append({"event": "run", "workflow": workflow, "config": config_label, "at": at})

    def append_invocation(self, entry: CacheEntry) -> None:
        """Record one completed invocation (outputs included)."""
        self.put(entry)

    def commit(self) -> None:
        """Make every line written so far durable (one ``os.fsync``)."""
        if self._handle is not None and self._unsynced:
            os.fsync(self._handle.fileno())
            self._unsynced = 0

    def close(self) -> None:
        """Commit, then release the file handle (reopened on next append)."""
        self.commit()
        super().close()

    def load(self) -> Dict[str, CacheEntry]:
        """Replay map ``provenance key -> entry`` from the journal file.

        Corrupt or torn lines (typically the very last one, cut by the
        crash) are skipped: losing one entry only means re-executing
        one invocation.  Later entries win on key collisions, so a
        journal spanning several runs replays the freshest results.
        """
        entries = {key: self.get(key) for key in self.keys()}
        return {key: entry for key, entry in entries.items() if entry is not None}

    def runs(self) -> List[dict]:
        """The run-start markers present in the journal, oldest first."""
        return [doc for doc in self.documents() if doc.get("event") == "run"]
