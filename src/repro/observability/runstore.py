"""The run-history store: one JSON summary per run, compared across runs.

A workflow *platform* (as opposed to a mere enactor) remembers what it
did: every enactment leaves a :class:`RunSummary` — policy, makespan,
critical-path phase totals, drift, cache and job counters — in an
append-only :class:`RunStore` (one JSON file per run, monotonically
numbered).  :func:`compare` then answers the question the ROADMAP's
"as fast as the hardware allows" goal is unfalsifiable without: *did
this change make the system slower?*  Budgeted comparisons return
structured :class:`Regression` records, and the CLI's ``compare-runs``
exits non-zero when any budget is blown — a regression gate CI can run
on every push.

Summaries are deliberately small and schema-stable (plain dicts of
floats): a baseline committed to the repository keeps comparing cleanly
against candidates produced months later.
"""

from __future__ import annotations

import datetime
import json
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
    "Budgets",
    "Regression",
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
        try:
            return cls(
                workflow=str(payload["workflow"]),
                policy=str(payload["policy"]),
                makespan=float(payload["makespan"]),  # type: ignore[arg-type]
                run_id=str(payload.get("run_id", "")),
                n_items=int(payload.get("n_items", 0)),  # type: ignore[arg-type]
                seed=(None if payload.get("seed") is None else int(payload["seed"])),  # type: ignore[arg-type]
                phase_totals={
                    str(k): float(v)
                    for k, v in (payload.get("phase_totals") or {}).items()  # type: ignore[union-attr]
                },
                critical_path=tuple(
                    str(p) for p in (payload.get("critical_path") or ())
                ),
                drift={
                    str(k): float(v)
                    for k, v in (payload.get("drift") or {}).items()  # type: ignore[union-attr]
                },
                cache={
                    str(k): float(v)
                    for k, v in (payload.get("cache") or {}).items()  # type: ignore[union-attr]
                },
                counters={
                    str(k): float(v)
                    for k, v in (payload.get("counters") or {}).items()  # type: ignore[union-attr]
                },
                note=str(payload.get("note", "")),
                created_at=str(payload.get("created_at", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
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
        cache = {
            "hits": float(total.hits),
            "misses": float(total.misses),
            "coalesced": float(total.coalesced),
            "hit_rate": float(total.hit_rate),
        }
    counters: Dict[str, float] = {}
    if result.metrics is not None:
        counters = {k: float(v) for k, v in sorted(result.metrics.counters.items())}
    # The data-plane ledger is part of the row schema: zero-fill it so
    # every summary carries the enactor-bytes-moved yardstick even when
    # a run moved nothing (or ran without instrumentation).
    for bytes_key in (
        "bytes.total",
        "bytes.peer_moved",
        "bytes.enactor_moved",
        "bytes.intermediate_saved_by_grouping",
        # chaos/durability ledger: always present so pre-chaos baselines
        # and chaotic rows stay schema-comparable (a healthy run simply
        # reports zeros)
        "bytes.repair",
        "grid.transfer.failures",
        "grid.transfer.retries",
        "grid.transfer.outage_waits",
        "grid.repair.transfers",
        "grid.replicas.lost",
        "grid.replicas.quarantined",
        "grid.se.outage_windows",
        "monitor.alerts.se-outage",
        "monitor.alerts.replica-corruption",
        "monitor.alerts.transfer-storm",
    ):
        counters.setdefault(bytes_key, 0.0)
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


@dataclass(frozen=True)
class Budgets:
    """How much worse a candidate may be before it counts as a regression.

    Relative budgets are fractions (0.05 = +5% allowed); ``drift`` and
    ``hit_rate`` are absolute deltas on quantities that are themselves
    ratios.  ``alerts`` is the allowed absolute growth of the live
    monitor's ``monitor.alerts.total`` counter — the default 0.0 means
    any *new* health alert fails the gate.  ``throughput`` (off by
    default: the ``perf.*`` counters are wall-clock measurements, too
    noisy for an always-on gate) bounds the relative *loss* of
    ``perf.events_per_sec`` and growth of ``perf.us_per_invocation``
    when explicitly enabled via ``compare-runs --budget-throughput``.
    ``bytes`` (also opt-in, via ``compare-runs --budget-bytes``) bounds
    the relative *growth* of the data-plane counters ``bytes.total``
    and ``bytes.enactor_moved`` — the enactor-bytes-moved gate that
    catches a change quietly routing more data through the centralized
    enactor, the cost a choreography mode would remove.  Unlike ``perf.*``, byte
    counters are simulated and deterministic, so the budget can be 0.0.
    Phases smaller than ``min_seconds`` in both runs are noise and
    never compared.
    """

    makespan: float = 0.05
    phase: float = 0.10
    drift: float = 0.05
    hit_rate: float = 0.05
    jobs: float = 0.0
    alerts: float = 0.0
    throughput: Optional[float] = None
    bytes: Optional[float] = None
    min_seconds: float = 1.0


@dataclass(frozen=True)
class Regression:
    """One budget check that moved (regressed or improved)."""

    metric: str
    baseline: float
    candidate: float
    budget: float
    #: "relative" change is (cand-base)/base; "absolute" is cand-base
    mode: str = "relative"

    @property
    def change(self) -> float:
        """The measured change, in the budget's own units."""
        if self.mode == "relative":
            denominator = self.baseline if self.baseline > 0 else 1.0
            return (self.candidate - self.baseline) / denominator
        return self.candidate - self.baseline

    def describe(self) -> str:
        """One human line: metric, values, change vs budget."""
        if self.mode == "relative":
            change = f"{self.change:+.1%} (budget {self.budget:+.1%})"
        else:
            change = f"{self.change:+.3f} (budget {self.budget:+.3f})"
        return (
            f"{self.metric}: {self.baseline:.2f} -> {self.candidate:.2f}  {change}"
        )


@dataclass(frozen=True)
class RunComparison:
    """The structured outcome of one baseline-vs-candidate comparison."""

    baseline: RunSummary
    candidate: RunSummary
    budgets: Budgets
    regressions: Tuple[Regression, ...] = ()
    improvements: Tuple[Regression, ...] = ()
    checked: Tuple[str, ...] = ()
    #: one entry per checked metric, in check order — the full
    #: before/after table, not just the budget violations
    deltas: Tuple[Regression, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no budget was blown (the CI exit-0 condition)."""
        return not self.regressions


def _check(
    metric: str,
    baseline: float,
    candidate: float,
    budget: float,
    mode: str,
    regressions: List[Regression],
    improvements: List[Regression],
    deltas: List[Regression],
) -> None:
    entry = Regression(
        metric=metric, baseline=baseline, candidate=candidate, budget=budget, mode=mode
    )
    deltas.append(entry)
    if entry.change > budget:
        regressions.append(entry)
    elif entry.change < -budget:
        improvements.append(entry)


def compare(
    baseline: RunSummary,
    candidate: RunSummary,
    budgets: Optional[Budgets] = None,
) -> RunComparison:
    """Budgeted comparison of two runs of the *same* configuration.

    Raises :class:`RunStoreError` when workflow, policy or input size
    differ — cross-configuration deltas are policy effects, not
    regressions, and comparing them against budgets would mislead.
    """
    budgets = budgets if budgets is not None else Budgets()
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

    regressions: List[Regression] = []
    improvements: List[Regression] = []
    deltas: List[Regression] = []
    checked: List[str] = ["makespan"]
    _check(
        "makespan",
        baseline.makespan,
        candidate.makespan,
        budgets.makespan,
        "relative",
        regressions,
        improvements,
        deltas,
    )
    for phase in sorted(set(baseline.phase_totals) | set(candidate.phase_totals)):
        left = baseline.phase_totals.get(phase, 0.0)
        right = candidate.phase_totals.get(phase, 0.0)
        if max(left, right) < budgets.min_seconds:
            continue
        checked.append(f"phase.{phase}")
        # denominator floored at min_seconds: a phase growing from ~0
        # is judged on absolute growth, not an explosive percentage.
        entry = Regression(
            metric=f"phase.{phase}",
            baseline=max(left, budgets.min_seconds),
            candidate=right,
            budget=budgets.phase,
            mode="relative",
        )
        deltas.append(
            Regression(f"phase.{phase}", left, right, budgets.phase, "relative")
        )
        if entry.change > budgets.phase:
            regressions.append(
                Regression(f"phase.{phase}", left, right, budgets.phase, "relative")
            )
        elif entry.change < -budgets.phase:
            improvements.append(
                Regression(f"phase.{phase}", left, right, budgets.phase, "relative")
            )
    if "relative_error" in baseline.drift and "relative_error" in candidate.drift:
        checked.append("drift.relative_error")
        _check(
            "drift.relative_error",
            baseline.drift["relative_error"],
            candidate.drift["relative_error"],
            budgets.drift,
            "absolute",
            regressions,
            improvements,
            deltas,
        )
    if "hit_rate" in baseline.cache and "hit_rate" in candidate.cache:
        checked.append("cache.hit_rate")
        # a *drop* in hit rate is the regression: negate the delta
        entry = Regression(
            "cache.hit_rate",
            baseline.cache["hit_rate"],
            candidate.cache["hit_rate"],
            budgets.hit_rate,
            "absolute",
        )
        deltas.append(entry)
        if -entry.change > budgets.hit_rate:
            regressions.append(entry)
        elif entry.change > budgets.hit_rate:
            improvements.append(entry)
    jobs_key = "grid.jobs.submitted"
    if jobs_key in baseline.counters or jobs_key in candidate.counters:
        checked.append(f"counter.{jobs_key}")
        _check(
            f"counter.{jobs_key}",
            baseline.counters.get(jobs_key, 0.0),
            candidate.counters.get(jobs_key, 0.0),
            budgets.jobs,
            "relative",
            regressions,
            improvements,
            deltas,
        )
    if budgets.throughput is not None:
        eps_key = "perf.events_per_sec"
        if eps_key in baseline.counters and eps_key in candidate.counters:
            checked.append(f"counter.{eps_key}")
            # a *drop* in events/sec is the regression: negate the delta
            entry = Regression(
                f"counter.{eps_key}",
                baseline.counters[eps_key],
                candidate.counters[eps_key],
                budgets.throughput,
                "relative",
            )
            deltas.append(entry)
            if -entry.change > budgets.throughput:
                regressions.append(entry)
            elif entry.change > budgets.throughput:
                improvements.append(entry)
        upi_key = "perf.us_per_invocation"
        if upi_key in baseline.counters and upi_key in candidate.counters:
            checked.append(f"counter.{upi_key}")
            _check(
                f"counter.{upi_key}",
                baseline.counters[upi_key],
                candidate.counters[upi_key],
                budgets.throughput,
                "relative",
                regressions,
                improvements,
                deltas,
            )
    if budgets.bytes is not None:
        for bytes_key in ("bytes.total", "bytes.enactor_moved"):
            if bytes_key in baseline.counters or bytes_key in candidate.counters:
                checked.append(f"counter.{bytes_key}")
                _check(
                    f"counter.{bytes_key}",
                    baseline.counters.get(bytes_key, 0.0),
                    candidate.counters.get(bytes_key, 0.0),
                    budgets.bytes,
                    "relative",
                    regressions,
                    improvements,
                    deltas,
                )
    alerts_key = "monitor.alerts.total"
    if alerts_key in baseline.counters or alerts_key in candidate.counters:
        checked.append(f"counter.{alerts_key}")
        # absolute: alerts are small counts, and a baseline of zero must
        # still fail the gate when the candidate starts alerting.
        _check(
            f"counter.{alerts_key}",
            baseline.counters.get(alerts_key, 0.0),
            candidate.counters.get(alerts_key, 0.0),
            budgets.alerts,
            "absolute",
            regressions,
            improvements,
            deltas,
        )
    return RunComparison(
        baseline=baseline,
        candidate=candidate,
        budgets=budgets,
        regressions=tuple(regressions),
        improvements=tuple(improvements),
        checked=tuple(checked),
        deltas=tuple(deltas),
    )
