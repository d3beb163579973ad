"""The run-history store: one JSON summary per run, compared across runs.

A workflow *platform* (as opposed to a mere enactor) remembers what it
did: every enactment leaves a :class:`RunSummary` — policy, makespan,
critical-path phase totals, drift, cache and job counters — in an
append-only :class:`RunStore` (one JSON file per run, monotonically
numbered).  A seeded enactment reproduces exactly, so a summary is a
golden: :func:`compare` names every key whose value differs between a
baseline and a candidate (:class:`KeyChange`), and the CLI's
``compare-runs`` exits non-zero on any change, an improvement included.
An intended behaviour change is acknowledged by re-recording the
baseline.  Summaries hold simulated quantities only; host cost (wall
time, call counts that vary with the interpreter) belongs to the
trajectory benchmark and to saved profiles.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

try:  # POSIX advisory file locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback path
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "RunStoreError",
    "RunSummary",
    "RunStore",
    "KeyChange",
    "RunComparison",
    "summarize_run",
    "compare",
]


class RunStoreError(ValueError):
    """Malformed summaries, unknown run references, invalid comparisons."""


@dataclass
class RunSummary:
    """Everything worth remembering about one enactment.

    All fields are JSON-plain.  ``created_at`` is wall-clock provenance
    only — comparisons never read it, so determinism is untouched.
    """

    workflow: str
    policy: str
    makespan: float
    run_id: str = ""
    n_items: int = 0
    seed: Optional[int] = None
    #: critical-path phase buckets -> seconds (see critical_path.PHASE_KEYS)
    phase_totals: Dict[str, float] = field(default_factory=dict)
    #: distinct gating services, first-appearance order
    critical_path: Tuple[str, ...] = ()
    #: drift-report excerpt: relative_error, predicted, y_intercept, slope
    drift: Dict[str, float] = field(default_factory=dict)
    #: cache excerpt: hits, misses, coalesced, hit_rate
    cache: Dict[str, float] = field(default_factory=dict)
    #: metrics counters (jobs submitted/completed/retries, bytes...)
    counters: Dict[str, float] = field(default_factory=dict)
    note: str = ""
    created_at: str = ""

    def to_dict(self) -> Dict[str, object]:
        """The JSON document this summary is stored as."""
        return {
            "run_id": self.run_id,
            "workflow": self.workflow,
            "policy": self.policy,
            "makespan": self.makespan,
            "n_items": self.n_items,
            "seed": self.seed,
            "phase_totals": dict(self.phase_totals),
            "critical_path": list(self.critical_path),
            "drift": dict(self.drift),
            "cache": dict(self.cache),
            "counters": dict(self.counters),
            "note": self.note,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunSummary":
        """Rebuild a summary from its :meth:`to_dict` form."""

        def floats(key: str) -> Dict[str, float]:
            return {str(k): float(v) for k, v in (payload.get(key) or {}).items()}  # type: ignore[union-attr]

        try:
            return cls(
                workflow=str(payload["workflow"]),
                policy=str(payload["policy"]),
                makespan=float(payload["makespan"]),  # type: ignore[arg-type]
                run_id=str(payload.get("run_id", "")),
                n_items=int(payload.get("n_items", 0)),  # type: ignore[arg-type]
                seed=(None if payload.get("seed") is None else int(payload["seed"])),  # type: ignore[arg-type]
                phase_totals=floats("phase_totals"),
                critical_path=tuple(
                    str(p) for p in (payload.get("critical_path") or ())  # type: ignore[union-attr]
                ),
                drift=floats("drift"),
                cache=floats("cache"),
                counters=floats("counters"),
                note=str(payload.get("note", "")),
                created_at=str(payload.get("created_at", "")),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise RunStoreError(f"malformed run summary: {exc}") from None

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "RunSummary":
        """Load a summary from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise RunStoreError(f"cannot read run summary {os.fspath(path)!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"{os.fspath(path)!r} is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise RunStoreError(f"{os.fspath(path)!r} is not a run-summary document")
        return cls.from_dict(payload)


#: the data-plane and chaos ledgers are part of the row schema: zero-filled,
#: so a run that moved nothing or met no fault still carries every key
LEDGER_KEYS = (
    "bytes.total", "bytes.peer_moved", "bytes.enactor_moved",
    "bytes.intermediate_saved_by_grouping", "bytes.repair",
    "grid.transfer.failures", "grid.transfer.retries", "grid.transfer.outage_waits",
    "grid.repair.transfers", "grid.replicas.lost", "grid.replicas.quarantined",
    "grid.se.outage_windows", "monitor.alerts.se-outage",
    "monitor.alerts.replica-corruption", "monitor.alerts.transfer-storm",
)


def summarize_run(
    result,
    spans: Sequence = (),
    records: Optional[Sequence] = None,
    processors: Optional[Sequence[str]] = None,
    n_items: int = 0,
    seed: Optional[int] = None,
    note: str = "",
) -> RunSummary:
    """Distill one :class:`~repro.core.enactor.EnactmentResult`.

    *spans* (the run's stream) feeds the critical-path phase totals;
    *records* (``grid.completed_records()``) and *processors* feed the
    drift excerpt.  Every part degrades gracefully: without spans the
    phase totals stay empty, without an applicable model the drift
    excerpt does — the makespan and counters always land.
    """
    from repro.observability.critical_path import (
        CriticalPathError,
        observed_critical_path,
    )
    from repro.observability.drift import DriftError, drift_report

    phase_totals: Dict[str, float] = {}
    critical: Tuple[str, ...] = ()
    if spans:
        try:
            observed = observed_critical_path(spans)
            phase_totals = {
                k: round(v, 6) for k, v in observed.phase_totals().items()
            }
            critical = tuple(observed.services())
        except CriticalPathError:
            pass
    drift: Dict[str, float] = {}
    try:
        report = drift_report(result, records=records, processors=processors)
        drift = {
            "relative_error": report.relative_error,
            "predicted": report.predicted_makespan,
            "y_intercept": report.y_intercept_estimate,
            "slope": report.slope_estimate,
        }
    except DriftError:
        pass
    cache: Dict[str, float] = {}
    if result.cache_stats is not None:
        total = result.cache_stats.total
        for name in ("hits", "misses", "coalesced", "hit_rate"):
            cache[name] = float(getattr(total, name))
    counters: Dict[str, float] = {}
    if result.metrics is not None:
        counters = {k: float(v) for k, v in sorted(result.metrics.counters.items())}
    for key in LEDGER_KEYS:
        counters.setdefault(key, 0.0)
    return RunSummary(
        workflow=result.workflow_name,
        policy=result.config.label,
        makespan=float(result.makespan),
        n_items=n_items,
        seed=seed,
        phase_totals=phase_totals,
        critical_path=critical,
        drift=drift,
        cache=cache,
        counters=counters,
        note=note,
        created_at=datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    )


_RUN_FILE = re.compile(r"^run-(\d{4,})\.json$")


class RunStore:
    """Append-only directory of run summaries (``run-0001.json``, ...).

    Appends are safe for concurrent writers — threads in one process
    and separate processes alike: the next run index is claimed under
    an advisory lock (POSIX ``flock`` on ``.lock``; an ``O_EXCL``
    spin lock where ``fcntl`` is unavailable), and each writer stages
    through its own uniquely-named temp file before the atomic rename.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = os.fspath(root)
        self._thread_lock = threading.Lock()

    # -- writing -----------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Advisory cross-process lock over index assignment."""
        lock_path = os.path.join(self.root, ".lock")
        with self._thread_lock:
            if fcntl is not None:
                fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    yield
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                    os.close(fd)
            else:  # pragma: no cover - non-POSIX fallback path
                excl = f"{lock_path}.excl"
                while True:
                    try:
                        os.close(os.open(excl, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                        break
                    except FileExistsError:
                        time.sleep(0.005)
                try:
                    yield
                finally:
                    os.unlink(excl)

    def append(self, summary: RunSummary) -> RunSummary:
        """Assign the next run id, write the summary, return it updated."""
        os.makedirs(self.root, exist_ok=True)
        with self._locked():
            next_index = max(self._indices(), default=0) + 1
            summary.run_id = f"run-{next_index:04d}"
            path = os.path.join(self.root, f"{summary.run_id}.json")
            # unique tmp + rename: a crashed writer never leaves a half
            # summary, and writers never share a staging file
            tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        return summary

    # -- reading -----------------------------------------------------------
    def _indices(self) -> List[int]:
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return [
            int(m.group(1)) for m in (_RUN_FILE.match(n) for n in names) if m
        ]

    def run_ids(self) -> List[str]:
        """Stored run ids, oldest first."""
        return [f"run-{i:04d}" for i in sorted(self._indices())]

    def runs(self) -> List[RunSummary]:
        """Every stored summary, oldest first."""
        return [self.get(run_id) for run_id in self.run_ids()]

    def get(self, run_id: str) -> RunSummary:
        """The summary stored under *run_id*."""
        path = os.path.join(self.root, f"{run_id}.json")
        if not os.path.exists(path):
            raise RunStoreError(
                f"no run {run_id!r} in store {self.root!r} "
                f"(have: {', '.join(self.run_ids()) or 'none'})"
            )
        return RunSummary.from_file(path)

    def latest(self, policy: Optional[str] = None) -> RunSummary:
        """The newest stored summary (optionally of one policy)."""
        for run_id in reversed(self.run_ids()):
            summary = self.get(run_id)
            if policy is None or summary.policy == policy:
                return summary
        raise RunStoreError(
            f"store {self.root!r} has no runs"
            + (f" with policy {policy!r}" if policy else "")
        )

    def resolve(self, reference: str) -> RunSummary:
        """A summary from a flexible reference.

        Accepts a stored run id (``run-0007``), the word ``latest``
        (optionally ``latest:POLICY``), or a path to a summary JSON
        file (anything containing a path separator or ending ``.json``).
        """
        if reference == "latest":
            return self.latest()
        if reference.startswith("latest:"):
            return self.latest(policy=reference.split(":", 1)[1])
        if os.sep in reference or reference.endswith(".json"):
            return RunSummary.from_file(reference)
        return self.get(reference)

    def __len__(self) -> int:
        return len(self._indices())


# -- comparison ------------------------------------------------------------

#: which row and when, never what the run did: not compared
PROVENANCE = ("run_id", "note", "created_at")
#: floats this close are one value: last-bit libm/BLAS differences in
#: the drift fit (a ``y_intercept`` of 6 reads 5.999999999999883)
REL_TOL, ABS_TOL = 1e-9, 1e-12


@dataclass(frozen=True)
class KeyChange:
    """One summary key whose value differs; ``None`` is a missing key."""

    key: str
    baseline: object
    candidate: object


@dataclass(frozen=True)
class RunComparison:
    """The outcome of one baseline-vs-candidate comparison."""

    baseline: RunSummary
    candidate: RunSummary
    #: every compared key of the flattened summaries, sorted
    checked: Tuple[str, ...] = ()
    #: the keys whose values differ, sorted
    changes: Tuple[KeyChange, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the candidate reproduces the baseline (CI exit 0)."""
        return not self.changes


def _flatten(summary: RunSummary) -> Dict[str, object]:
    """The summary as one ``key -> value`` map, provenance left out.

    Mappings flatten one level (``phase_totals.execute``,
    ``counters.bytes.total``); scalars and the critical path keep their
    own key.
    """
    flat: Dict[str, object] = {}
    for key, value in summary.to_dict().items():
        if key in PROVENANCE:
            continue
        if isinstance(value, dict):
            flat.update((f"{key}.{sub}", item) for sub, item in value.items())
        else:
            flat[key] = value
    return flat


def _same(left: object, right: object) -> bool:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return left == right


def compare(baseline: RunSummary, candidate: RunSummary) -> RunComparison:
    """Diff two runs of the *same* configuration: the baseline is a golden.

    Every key of the flattened summaries is compared, keys present on
    one side only included; any difference is a change, an improvement
    as much as a regression, because a seeded run reproduces exactly.
    Raises :class:`RunStoreError` when workflow, policy or input size
    differ: cross-configuration deltas are policy effects, not changes.
    """
    for attribute in ("workflow", "policy"):
        left = getattr(baseline, attribute)
        right = getattr(candidate, attribute)
        if left != right:
            raise RunStoreError(
                f"cannot compare across {attribute}s: "
                f"baseline={left!r} candidate={right!r}"
            )
    if baseline.n_items and candidate.n_items and baseline.n_items != candidate.n_items:
        raise RunStoreError(
            f"cannot compare across input sizes: baseline={baseline.n_items} "
            f"candidate={candidate.n_items} items"
        )
    left_keys, right_keys = _flatten(baseline), _flatten(candidate)
    checked = tuple(sorted(set(left_keys) | set(right_keys)))
    changes = tuple(
        KeyChange(key, left_keys.get(key), right_keys.get(key))
        for key in checked
        if not _same(left_keys.get(key), right_keys.get(key))
    )
    return RunComparison(baseline, candidate, checked, changes)
