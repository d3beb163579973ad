"""Per-tenant metric rollups, aggregated live from spans + audit events.

The service multiplexes many tenants over one grid; every span it
emits carries ``tenant``/``run`` attributes and every control-plane
decision lands in the audit trail.  :class:`ControlPlaneTelemetry`
folds both streams into one :class:`TenantRollup` per tenant — runs by
state, invocations, grid jobs, CPU-seconds, queue-wait distributions,
fair-share usage — plus an *independently accumulated* global rollup,
so "per-tenant sums equal the global totals" is a checkable invariant
rather than a tautology.

**The online invariant** (the one
:class:`~repro.observability.monitor.RunMonitor` keeps): every rollup
field is derived solely from closed spans in completion order and audit
events in ``(time, sequence)`` order — with the single exception of
``jobs_started``, which advances on span *announcement* exactly the
way replay announces each span before closing it.  Feeding a recorded
span stream through the shared
:meth:`Subscriber.replay <repro.observability.bus.Subscriber.replay>`
and a recorded audit trail through :meth:`replay_audit` therefore
reproduces the live rollups bit for bit; the tests hold the service to
that contract.  An invocation counts when its kind is in
:data:`~repro.observability.spans.ITEM_KINDS`, the definition the live
monitor uses too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.observability.bus import Subscriber
from repro.observability.metrics import HistogramSnapshot
from repro.observability.ops.audit import AuditEvent, audit_sort_key
from repro.observability.spans import ITEM_KINDS, Span

__all__ = ["TenantRollup", "ControlPlaneTelemetry", "rollups_from_records"]

#: the synthetic tenant name used for the independent global rollup
GLOBAL = "*"


@dataclass
class TenantRollup:
    """One tenant's control-plane accounting (or the global totals)."""

    tenant: str
    weight: float = 1.0
    #: lifetime counters
    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    recovered: int = 0
    quota_blocks: int = 0
    invocations: int = 0
    jobs_started: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    cpu_seconds: float = 0.0
    #: data-plane bytes the tenant's jobs staged in / out
    bytes_in: int = 0
    bytes_out: int = 0
    #: current levels (from the audit state machine)
    queued: int = 0
    running: int = 0
    #: control-plane admission waits (submit -> admit), simulated seconds
    admission_waits: List[float] = field(default_factory=list)
    #: grid batch-queue waits (``job.queue`` phase durations)
    grid_queue_waits: List[float] = field(default_factory=list)
    #: makespans of finished runs (drives the console's ETA column)
    makespans: List[float] = field(default_factory=list)
    #: decayed fair-share usage at the last decision that reported it
    usage: float = 0.0

    @property
    def finished(self) -> int:
        """Runs that reached any terminal state."""
        return self.done + self.failed + self.cancelled

    @property
    def success_rate(self) -> Optional[float]:
        """DONE / finished, or None before any run finished."""
        if not self.finished:
            return None
        return self.done / self.finished

    def wait_stats(self) -> HistogramSnapshot:
        """Admission-wait distribution (percentiles, mean...)."""
        return HistogramSnapshot(values=tuple(self.admission_waits))

    def queue_wait_p95(self) -> float:
        """95th-percentile control-plane admission wait (0.0 if none)."""
        return self.wait_stats().percentile(95.0)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-plain form (used by tests and the console)."""
        return {
            "tenant": self.tenant,
            "weight": self.weight,
            "submitted": self.submitted,
            "queued": self.queued,
            "running": self.running,
            "done": self.done,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "recovered": self.recovered,
            "quota_blocks": self.quota_blocks,
            "invocations": self.invocations,
            "jobs_started": self.jobs_started,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "cpu_seconds": round(self.cpu_seconds, 6),
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "admission_waits": [round(w, 6) for w in self.admission_waits],
            "grid_queue_waits": [round(w, 6) for w in self.grid_queue_waits],
            "makespans": [round(m, 6) for m in self.makespans],
            "usage": round(self.usage, 6),
        }


class ControlPlaneTelemetry(Subscriber):
    """Folds tenant-tagged spans and audit events into live rollups.

    Subscribe it to the service's
    :class:`~repro.observability.bus.InstrumentationBus` (span side)
    and hand every persisted :class:`AuditEvent` to :meth:`on_audit`
    (control-plane side) — the
    :class:`~repro.service.scheduler.EnactmentService` does both when
    telemetry is enabled.  Spans without a ``tenant`` attribute are
    attributed to the ``"(untagged)"`` bucket so the global totals
    still balance.
    """

    UNTAGGED = "(untagged)"

    def __init__(self) -> None:
        #: tenant -> rollup, first-seen order
        self.tenants: Dict[str, TenantRollup] = {}
        self._global = TenantRollup(tenant=GLOBAL)
        self.audit_events_seen = 0

    # -- access ----------------------------------------------------------
    def tenant(self, name: str) -> TenantRollup:
        """The rollup for *name* (created on first use)."""
        rollup = self.tenants.get(name)
        if rollup is None:
            rollup = self.tenants[name] = TenantRollup(tenant=name)
        return rollup

    def totals(self) -> TenantRollup:
        """The independently accumulated global rollup."""
        return self._global

    def rollups(self) -> List[TenantRollup]:
        """Per-tenant rollups, sorted by tenant name."""
        return [self.tenants[name] for name in sorted(self.tenants)]

    def snapshot(self) -> Dict[str, Any]:
        """Everything, JSON-plain (the equivalence-test fingerprint)."""
        return {
            "tenants": {name: r.to_dict() for name, r in self.tenants.items()},
            "global": self._global.to_dict(),
        }

    # -- span side -------------------------------------------------------
    def _buckets(self, span: Span) -> Tuple[TenantRollup, TenantRollup]:
        name = str(span.attributes.get("tenant") or self.UNTAGGED)
        return self.tenant(name), self._global

    def on_start(self, span: Span) -> None:
        """Announcement-side accounting (replay announces spans too)."""
        if span.name == "grid.job":
            for rollup in self._buckets(span):
                rollup.jobs_started += 1

    def on_end(self, span: Span) -> None:
        if span.end is None:  # defensive: replay of a truncated stream
            return
        name = span.name
        if name == "invocation" and span.category == "enactor":
            if span.attributes.get("kind") in ITEM_KINDS:
                for rollup in self._buckets(span):
                    rollup.invocations += 1
        elif name == "grid.job":
            for rollup in self._buckets(span):
                if span.status == "error":
                    rollup.jobs_failed += 1
                else:
                    rollup.jobs_completed += 1
        elif name == "job.run":
            for rollup in self._buckets(span):
                rollup.cpu_seconds += span.duration
        elif name == "job.queue":
            for rollup in self._buckets(span):
                rollup.grid_queue_waits.append(span.duration)
        elif name == "job.stage_in":
            for rollup in self._buckets(span):
                rollup.bytes_in += int(span.attributes.get("bytes", 0))
        elif name == "job.stage_out":
            for rollup in self._buckets(span):
                rollup.bytes_out += int(span.attributes.get("bytes", 0))

    # -- audit side ------------------------------------------------------
    def on_audit(self, event: AuditEvent) -> None:
        """Advance the run-state machine with one control-plane event."""
        self.audit_events_seen += 1
        attrs = event.attributes
        targets = (self.tenant(event.tenant), self._global)
        if event.kind == "submit":
            for rollup in targets:
                rollup.submitted += 1
                rollup.queued += 1
            if attrs.get("weight") is not None:
                self.tenant(event.tenant).weight = float(attrs["weight"])
        elif event.kind == "admit":
            for rollup in targets:
                rollup.queued = max(0, rollup.queued - 1)
                rollup.running += 1
                rollup.admission_waits.append(float(attrs.get("wait", 0.0)))
            # the decision payload reports decayed usage for every
            # tenant it scored, not just the picked one
            for name, usage in (attrs.get("usage") or {}).items():
                self.tenant(str(name)).usage = float(usage)
        elif event.kind == "quota-block":
            for rollup in targets:
                rollup.quota_blocks += 1
        elif event.kind == "recover":
            for rollup in targets:
                rollup.recovered += 1
                rollup.queued += 1
        elif event.kind == "finish":
            origin = str(attrs.get("from", "running"))
            state = str(attrs.get("state", ""))
            for rollup in targets:
                if origin == "queued":
                    rollup.queued = max(0, rollup.queued - 1)
                else:
                    rollup.running = max(0, rollup.running - 1)
                if state == "done":
                    rollup.done += 1
                elif state == "failed":
                    rollup.failed += 1
                elif state == "cancelled":
                    rollup.cancelled += 1
                if attrs.get("makespan") is not None:
                    rollup.makespans.append(float(attrs["makespan"]))
            if attrs.get("usage") is not None:
                self.tenant(event.tenant).usage = float(attrs["usage"])
        # "cancel" records the *request*; the state change arrives as
        # the matching "finish" event, so there is nothing to fold here.

    # -- replay ----------------------------------------------------------
    def replay_audit(self, events: Iterable[AuditEvent]) -> "ControlPlaneTelemetry":
        """Feed a recorded audit trail in ``(time, sequence)`` order."""
        for event in sorted(events, key=audit_sort_key):
            self.on_audit(event)
        return self


def rollups_from_records(
    records: Iterable[Any],
    weights: Optional[Mapping[str, float]] = None,
    usage: Optional[Mapping[str, float]] = None,
) -> List[TenantRollup]:
    """Post-hoc rollups from persisted run records (no live telemetry).

    *records* are :class:`~repro.service.logic.RunRecord`-shaped
    objects (duck-typed: ``tenant``, ``state.value``, ``submitted_at``,
    ``started_at``, ``result``).  This is what ``service top --once``
    and ``service metrics`` use against a state store written by
    another process: control-plane facts only — span-derived fields
    (CPU-seconds, grid queue waits, invocations) come from the run
    results where available and stay zero otherwise.
    """
    rollups: Dict[str, TenantRollup] = {}
    for record in records:
        name = str(record.tenant)
        rollup = rollups.get(name)
        if rollup is None:
            rollup = rollups[name] = TenantRollup(tenant=name)
        state = record.state.value
        rollup.submitted += 1
        if state == "queued" or state == "submitted":
            rollup.queued += 1
        elif state == "running":
            rollup.running += 1
        elif state == "done":
            rollup.done += 1
        elif state == "failed":
            rollup.failed += 1
        elif state == "cancelled":
            rollup.cancelled += 1
        if record.started_at is not None:
            rollup.admission_waits.append(
                max(0.0, record.started_at - record.submitted_at)
            )
        result = getattr(record, "result", None) or {}
        jobs = result.get("grid_jobs")
        if jobs is not None and state in ("done", "failed", "cancelled"):
            rollup.jobs_started += int(jobs)
            rollup.jobs_completed += int(jobs)
        rollup.invocations += int(result.get("invocations") or 0)
        if result.get("makespan") is not None:
            rollup.makespans.append(float(result["makespan"]))
    for name, rollup in rollups.items():
        if weights and name in weights:
            rollup.weight = float(weights[name])
        if usage and name in usage:
            rollup.usage = float(usage[name])
    return [rollups[name] for name in sorted(rollups)]
