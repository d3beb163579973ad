"""Pure control-plane logic: run lifecycle, quotas, fair share.

This module has **no I/O and no simulation dependencies** — it is the
innermost layer of the enactment service (see DESIGN.md).  Everything
here is plain data plus decision functions, which is what makes the
admission policy unit-testable without an engine, a grid, or a store:

* :class:`RunState` / :func:`validate_transition` — the run lifecycle
  ``SUBMITTED -> QUEUED -> RUNNING -> {DONE, FAILED, CANCELLED}`` (a
  queued run may also be cancelled before it ever starts);
* :class:`TenantSpec` — a tenant's identity, fair-share weight and
  quotas (max concurrent runs, max grid jobs in flight);
* :class:`RunRecord` — one submitted run, JSON-plain for the stores;
* :class:`FairShareLedger` — usage-decayed per-tenant accounting;
* :func:`pick_next_explained` — the admission decision: which queued
  run starts when a worker slot frees up, under FIFO or fair-share
  ordering, with the context the audit trail records.

The fair-share rule is the classic usage-decayed share: each tenant
accumulates charged usage (run makespans) that decays exponentially
with a configurable half-life, and the next run admitted belongs to
the eligible tenant with the smallest ``effective_usage / weight``.
Effective usage includes a *provisional* charge for runs currently
executing — without it, one tenant's burst would be admitted wholesale
before any usage lands, starving the others (the Yu/Buyya taxonomy's
market-free approximation of proportional share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "RunState",
    "TransitionError",
    "QuotaError",
    "validate_transition",
    "TenantSpec",
    "RunRecord",
    "FairShareLedger",
    "quota_headroom",
    "AdmissionDecision",
    "pick_next_explained",
    "SCHEDULING_POLICIES",
]


class RunState(Enum):
    """Lifecycle of one workflow run through the enactment service."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """True for states a run never leaves."""
        return self in (RunState.DONE, RunState.FAILED, RunState.CANCELLED)


#: state -> states it may legally transition to
_TRANSITIONS: Dict[RunState, Tuple[RunState, ...]] = {
    RunState.SUBMITTED: (RunState.QUEUED, RunState.CANCELLED),
    RunState.QUEUED: (RunState.RUNNING, RunState.CANCELLED),
    RunState.RUNNING: (RunState.DONE, RunState.FAILED, RunState.CANCELLED),
    RunState.DONE: (),
    RunState.FAILED: (),
    RunState.CANCELLED: (),
}

#: admission orderings the scheduler supports
SCHEDULING_POLICIES = ("fair-share", "fifo")


class TransitionError(RuntimeError):
    """An illegal run-state transition was attempted."""


class QuotaError(RuntimeError):
    """A submission or admission violated a tenant quota."""


def validate_transition(current: RunState, target: RunState) -> RunState:
    """Return *target* if ``current -> target`` is legal, else raise."""
    if target not in _TRANSITIONS[current]:
        raise TransitionError(
            f"illegal run transition {current.value} -> {target.value}"
        )
    return target


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's identity, fair-share weight and quotas.

    ``weight`` scales the tenant's fair share (2.0 = entitled to twice
    the share of a weight-1.0 tenant).  ``max_concurrent_runs`` caps
    how many of the tenant's runs may execute at once;
    ``max_grid_jobs`` caps the tenant's estimated concurrent grid jobs
    (None = unlimited).  Both are admission-control quotas: runs over
    quota wait in the queue, they are not rejected.
    """

    name: str
    weight: float = 1.0
    max_concurrent_runs: int = 2
    max_grid_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {self.weight}")
        if self.max_concurrent_runs < 1:
            raise ValueError(
                f"max_concurrent_runs must be >= 1, got {self.max_concurrent_runs}"
            )
        if self.max_grid_jobs is not None and self.max_grid_jobs < 1:
            raise ValueError(f"max_grid_jobs must be >= 1, got {self.max_grid_jobs}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "weight": self.weight,
            "max_concurrent_runs": self.max_concurrent_runs,
            "max_grid_jobs": self.max_grid_jobs,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TenantSpec":
        return cls(
            name=str(payload["name"]),
            weight=float(payload.get("weight", 1.0)),  # type: ignore[arg-type]
            max_concurrent_runs=int(payload.get("max_concurrent_runs", 2)),  # type: ignore[arg-type]
            max_grid_jobs=(
                None
                if payload.get("max_grid_jobs") is None
                else int(payload["max_grid_jobs"])  # type: ignore[arg-type]
            ),
        )


@dataclass
class RunRecord:
    """One submitted workflow run, as the control plane tracks it.

    JSON-plain so both stores persist it verbatim.  ``seq`` is the
    global submission sequence number (FIFO order); simulated-time
    stamps are in engine seconds.  ``jobs_estimate`` is the workload's
    declared concurrent-grid-job footprint, used by the
    ``max_grid_jobs`` quota.
    """

    run_id: str
    tenant: str
    workload: str = "bronze"
    n_items: int = 1
    config_label: str = "SP+DP"
    seed: int = 0
    state: RunState = RunState.SUBMITTED
    seq: int = 0
    #: earliest simulated time the run may start (traffic scripts)
    not_before: float = 0.0
    jobs_estimate: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: resume an interrupted enactment from its journal (set by recovery)
    resume: bool = False
    #: result excerpt, filled at completion (makespan, outputs digest...)
    result: Dict[str, object] = field(default_factory=dict)

    @property
    def makespan(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def advance(self, target: RunState) -> "RunRecord":
        """This record with a validated state transition applied."""
        return replace(self, state=validate_transition(self.state, target))

    def to_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "n_items": self.n_items,
            "config_label": self.config_label,
            "seed": self.seed,
            "state": self.state.value,
            "seq": self.seq,
            "not_before": self.not_before,
            "jobs_estimate": self.jobs_estimate,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "resume": self.resume,
            "result": dict(self.result),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunRecord":
        return cls(
            run_id=str(payload["run_id"]),
            tenant=str(payload["tenant"]),
            workload=str(payload.get("workload", "bronze")),
            n_items=int(payload.get("n_items", 1)),  # type: ignore[arg-type]
            config_label=str(payload.get("config_label", "SP+DP")),
            seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
            state=RunState(str(payload.get("state", "submitted"))),
            seq=int(payload.get("seq", 0)),  # type: ignore[arg-type]
            not_before=float(payload.get("not_before", 0.0)),  # type: ignore[arg-type]
            jobs_estimate=int(payload.get("jobs_estimate", 0)),  # type: ignore[arg-type]
            submitted_at=float(payload.get("submitted_at", 0.0)),  # type: ignore[arg-type]
            started_at=(
                None
                if payload.get("started_at") is None
                else float(payload["started_at"])  # type: ignore[arg-type]
            ),
            finished_at=(
                None
                if payload.get("finished_at") is None
                else float(payload["finished_at"])  # type: ignore[arg-type]
            ),
            error=(None if payload.get("error") is None else str(payload["error"])),
            resume=bool(payload.get("resume", False)),
            result=dict(payload.get("result") or {}),  # type: ignore[arg-type]
        )


class FairShareLedger:
    """Usage-decayed per-tenant accounting (pure, time passed in).

    Charged usage decays exponentially: a charge of ``u`` at time ``t``
    is worth ``u * 0.5 ** ((now - t) / half_life)`` at ``now``.  The
    ledger stores one (usage, stamp) pair per tenant and re-bases it on
    every charge, so reads are O(1) and independent of charge history.
    """

    def __init__(
        self,
        half_life: float = 4 * 3600.0,
        initial: Optional[Mapping[str, Tuple[float, float]]] = None,
    ) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be > 0, got {half_life}")
        self.half_life = half_life
        #: tenant -> (usage at stamp, stamp)
        self._entries: Dict[str, Tuple[float, float]] = dict(initial or {})

    def usage(self, tenant: str, now: float) -> float:
        """The tenant's decayed usage at simulated time *now*."""
        entry = self._entries.get(tenant)
        if entry is None:
            return 0.0
        amount, stamp = entry
        if now <= stamp:
            return amount
        return amount * math.pow(0.5, (now - stamp) / self.half_life)

    def charge(self, tenant: str, amount: float, now: float) -> float:
        """Add *amount* of usage at *now*; returns the new decayed total."""
        if amount < 0:
            raise ValueError(f"cannot charge negative usage ({amount})")
        total = self.usage(tenant, now) + amount
        self._entries[tenant] = (total, now)
        return total

    def snapshot(self) -> Dict[str, Tuple[float, float]]:
        """The raw (usage, stamp) entries, for persistence."""
        return dict(self._entries)


def quota_headroom(
    spec: TenantSpec,
    running_runs: int,
    jobs_in_flight: int,
    jobs_estimate: int,
) -> Optional[str]:
    """Why the tenant cannot start another run right now, or None.

    Pure quota check: *running_runs* and *jobs_in_flight* describe the
    tenant's current footprint, *jobs_estimate* the candidate run's.
    """
    if running_runs >= spec.max_concurrent_runs:
        return (
            f"tenant {spec.name!r} at max_concurrent_runs "
            f"({running_runs}/{spec.max_concurrent_runs})"
        )
    if (
        spec.max_grid_jobs is not None
        and jobs_in_flight + jobs_estimate > spec.max_grid_jobs
    ):
        return (
            f"tenant {spec.name!r} would exceed max_grid_jobs "
            f"({jobs_in_flight}+{jobs_estimate}>{spec.max_grid_jobs})"
        )
    return None


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission evaluation, with everything that justified it.

    The audit trail's payload: beyond the ``pick`` itself it captures
    the state of the world *at decision time* — per-tenant decayed
    usage, provisional charges and fair-share scores
    (``effective_usage / weight``) over the tenants with eligible runs,
    plus every run that was quota-blocked and why.  All fields are
    JSON-plain so the event can be persisted and replayed verbatim.
    """

    policy: str
    now: float
    pick: Optional[RunRecord]
    #: run ids that passed quota + not_before checks, in queue order
    eligible: Tuple[str, ...] = ()
    #: tenant -> decayed ledger usage at decision time
    usage: Dict[str, float] = field(default_factory=dict)
    #: tenant -> provisional charge for still-executing runs
    provisional: Dict[str, float] = field(default_factory=dict)
    #: tenant -> effective_usage / weight (fair-share rank; lower wins)
    scores: Dict[str, float] = field(default_factory=dict)
    #: (run_id, reason) for every quota-blocked queued run
    blocked: Tuple[Tuple[str, str], ...] = ()

    def to_attributes(self) -> Dict[str, object]:
        """The JSON-plain attribute payload for an audit event."""
        return {
            "policy": self.policy,
            "eligible": list(self.eligible),
            "usage": {k: round(v, 6) for k, v in sorted(self.usage.items())},
            "provisional": {
                k: round(v, 6) for k, v in sorted(self.provisional.items())
            },
            "scores": {k: round(v, 6) for k, v in sorted(self.scores.items())},
            "blocked": [list(pair) for pair in self.blocked],
        }


def pick_next_explained(
    queued: Sequence[RunRecord],
    specs: Mapping[str, TenantSpec],
    running_by_tenant: Mapping[str, int],
    jobs_by_tenant: Mapping[str, int],
    ledger: FairShareLedger,
    now: float,
    policy: str = "fair-share",
    provisional: Optional[Mapping[str, float]] = None,
) -> AdmissionDecision:
    """The queued run to admit next (``.pick``, None if nothing is
    eligible), with the full decision context.

    A run is eligible when its ``not_before`` has passed and its tenant
    has quota headroom.  Under ``fifo`` the eligible run with the
    smallest submission ``seq`` wins.  Under ``fair-share`` the run of
    the tenant with the smallest ``effective_usage / weight`` wins
    (ties broken by ``seq``), where effective usage is the decayed
    ledger usage plus the tenant's *provisional* charge for runs still
    executing (mapping tenant -> charge; typically active runs x the
    tenant's typical makespan).
    """
    if policy not in SCHEDULING_POLICIES:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; options: {SCHEDULING_POLICIES}"
        )
    provisional = dict(provisional or {})
    eligible: List[RunRecord] = []
    blocked: List[Tuple[str, str]] = []
    for run in queued:
        if run.state is not RunState.QUEUED or run.not_before > now:
            continue
        spec = specs.get(run.tenant)
        if spec is None:
            continue  # unknown tenant: never admitted (surfaced at submit)
        reason = quota_headroom(
            spec,
            running_by_tenant.get(run.tenant, 0),
            jobs_by_tenant.get(run.tenant, 0),
            run.jobs_estimate,
        )
        if reason is None:
            eligible.append(run)
        else:
            blocked.append((run.run_id, reason))

    usage: Dict[str, float] = {}
    scores: Dict[str, float] = {}
    for run in eligible:
        if run.tenant in scores:
            continue
        spec = specs[run.tenant]
        decayed = ledger.usage(run.tenant, now)
        usage[run.tenant] = decayed
        effective = decayed + provisional.get(run.tenant, 0.0)
        scores[run.tenant] = effective / spec.weight

    pick: Optional[RunRecord] = None
    if eligible:
        if policy == "fifo":
            pick = min(eligible, key=lambda run: run.seq)
        else:
            pick = min(eligible, key=lambda run: (scores[run.tenant], run.seq))
    return AdmissionDecision(
        policy=policy,
        now=now,
        pick=pick,
        eligible=tuple(run.run_id for run in eligible),
        usage=usage,
        provisional={t: provisional.get(t, 0.0) for t in scores},
        scores=scores,
        blocked=tuple(blocked),
    )

