"""Control-plane observability for the multi-tenant enactment service.

Everything under :mod:`repro.observability` up to PR 6 watches a single
*enactment*: spans, health, alerts and critical paths all answer "what
did this run do?".  The :mod:`ops` package is the operator-facing layer
above it — it watches the *service*: which tenant is starving, why run
X was admitted before run Y, whether queue-wait SLOs hold, and how fast
the event core is actually turning.  In the Costan et al. platform
architecture (PAPERS.md) this is the monitoring/auditing layer sitting
beside execution and scheduling.

Pieces (all deterministic in simulated time, all stdlib-only):

* :mod:`~repro.observability.ops.audit` — the structured control-plane
  audit trail: one :class:`AuditEvent` per scheduler decision (submit,
  admission with fair-share scores at decision time, quota block,
  cancellation, recovery, completion), totally ordered by
  ``(sim-time, sequence)`` and persisted through the service's
  :class:`~repro.service.store.StateStore` so ``service audit <run>``
  can explain any run's lifecycle after the fact;
* :mod:`~repro.observability.ops.rollup` — live per-tenant metric
  rollups (:class:`TenantRollup`) aggregated from tenant-tagged spans
  and audit events by the :class:`ControlPlaneTelemetry` bus
  subscriber, with the same ``replay == live`` contract as the run
  monitor;
* :mod:`~repro.observability.ops.slo` — declarative service-level
  objectives (queue-wait p95, run success rate, fair-share deviation)
  evaluated incrementally, raising ``slo-burn``
  :class:`~repro.observability.alerts.Alert` records through the
  existing alert machinery when the burn rate crosses its threshold;
* :mod:`~repro.observability.ops.promexport` — the Prometheus
  text-exposition exporter (plus a strict parser used to validate it);
* :mod:`~repro.observability.ops.console` — the plain-text ops console
  frame behind ``python -m repro.service top``.
"""

from __future__ import annotations

from repro.observability.ops.audit import (
    AUDIT_KINDS,
    AuditError,
    AuditEvent,
    audit_events_from_jsonl,
    audit_events_to_jsonl,
    audit_sort_key,
    explain_run,
)
from repro.observability.ops.console import render_top
from repro.observability.ops.promexport import (
    PromParseError,
    parse_prometheus,
    render_prometheus,
)
from repro.observability.ops.rollup import (
    ControlPlaneTelemetry,
    TenantRollup,
    rollups_from_records,
)
from repro.observability.ops.slo import (
    SLO,
    SLO_KINDS,
    SLOStatus,
    SLOTracker,
    default_slos,
    parse_slo,
)

__all__ = [
    "AUDIT_KINDS",
    "AuditError",
    "AuditEvent",
    "audit_events_from_jsonl",
    "audit_events_to_jsonl",
    "audit_sort_key",
    "explain_run",
    "ControlPlaneTelemetry",
    "TenantRollup",
    "rollups_from_records",
    "SLO",
    "SLO_KINDS",
    "SLOStatus",
    "SLOTracker",
    "default_slos",
    "parse_slo",
    "PromParseError",
    "parse_prometheus",
    "render_prometheus",
    "render_top",
]
