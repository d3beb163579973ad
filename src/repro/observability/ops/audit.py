"""The control-plane audit trail: every scheduler decision, explained.

Run-level observability can say *what* a run did; only the control
plane can say *why* it ran when it did.  An :class:`AuditEvent` is one
recorded scheduler decision:

``submit``
    a run entered the queue (workload, configuration, seed,
    ``not_before``);
``admit``
    an admission pick — carries the full
    :class:`~repro.service.logic.AdmissionDecision` payload: fair-share
    scores, decayed usage and provisional charges *at decision time*,
    the eligible set, and every quota-blocked run with its reason;
``quota-block``
    a queued run could not start because of a tenant quota (emitted on
    reason *transitions*, not every scheduler tick, so the trail stays
    readable);
``cancel``
    a cancellation request was applied (queued or running);
``recover``
    a crashed service's orphan run was re-queued (``resume`` says
    whether its journal will replay);
``finish``
    a run went terminal (final state, makespan, error, grid jobs).

Events are timestamped in **simulated seconds**, carry a monotonically
increasing per-store sequence number, and are totally ordered by
``(time, sequence)`` — the same discipline as
:mod:`repro.observability.alerts` — so two services replaying the same
traffic produce *byte-identical* audit logs.  Persistence goes through
the service's :class:`~repro.service.store.StateStore`, which assigns
the sequence numbers; this module is pure data + serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.observability.jsonl import records_from_jsonl, records_to_jsonl

__all__ = [
    "AUDIT_KINDS",
    "AuditError",
    "AuditEvent",
    "audit_sort_key",
    "audit_events_to_jsonl",
    "audit_events_from_jsonl",
    "explain_run",
]

#: every decision kind the control plane records, in lifecycle order
AUDIT_KINDS: Tuple[str, ...] = (
    "submit",
    "admit",
    "quota-block",
    "cancel",
    "recover",
    "finish",
)


class AuditError(ValueError):
    """Malformed audit records or streams."""


@dataclass(frozen=True)
class AuditEvent:
    """One recorded control-plane decision.

    ``run_id`` / ``tenant`` name the run the decision is about (an
    ``admit`` event is about the *picked* run; the rest of the decision
    context lives in ``attributes``).  ``sequence`` is assigned by the
    persisting store and makes ordering total even at equal simulated
    times.
    """

    kind: str
    time: float
    run_id: str
    tenant: str
    message: str = ""
    sequence: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in AUDIT_KINDS:
            raise AuditError(
                f"unknown audit kind {self.kind!r}; expected one of {AUDIT_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL line schema (stable, documented in the README)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "run_id": self.run_id,
            "tenant": self.tenant,
            "message": self.message,
            "sequence": self.sequence,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AuditEvent":
        """Rebuild an event from its :meth:`to_dict` form."""
        try:
            return cls(
                kind=str(payload["kind"]),
                time=float(payload["time"]),
                run_id=str(payload["run_id"]),
                tenant=str(payload.get("tenant", "")),
                message=str(payload.get("message", "")),
                sequence=int(payload.get("sequence", 0)),
                attributes=dict(payload.get("attributes") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AuditError(f"malformed audit record: {exc}") from None


def audit_sort_key(event: AuditEvent) -> Tuple[float, int]:
    """Total deterministic ordering: by simulated time, then sequence."""
    return (event.time, event.sequence)


def audit_events_to_jsonl(events: Iterable[AuditEvent]) -> str:
    """Serialize *events* as one JSON object per line, sorted."""
    return records_to_jsonl(sorted(events, key=audit_sort_key))


def audit_events_from_jsonl(text: "str | Iterable[str]") -> List[AuditEvent]:
    """Parse an audit JSONL stream (blank lines ignored)."""
    return records_from_jsonl(text, AuditEvent.from_dict, AuditError, "an audit record")


def _fmt_scores(scores: Dict[str, Any]) -> str:
    return ", ".join(f"{t}={float(v):.1f}" for t, v in sorted(scores.items()))


def explain_run(
    events: Iterable[AuditEvent], run_id: Optional[str] = None
) -> List[str]:
    """Human-readable decision history, one line per event.

    With *run_id* the trail is filtered to events about that run —
    plus ``admit`` events where the run appears among the eligible or
    blocked sets, so "why was run X admitted before run Y?" is
    answerable from run Y's own trail.
    """
    lines: List[str] = []
    for event in sorted(events, key=audit_sort_key):
        attrs = event.attributes
        if run_id is not None and event.run_id != run_id:
            if event.kind != "admit":
                continue
            mentioned = set(attrs.get("eligible") or ())
            mentioned.update(rid for rid, _ in (attrs.get("blocked") or ()))
            if run_id not in mentioned:
                continue
        stamp = f"[t={event.time:9.1f}s #{event.sequence:04d}]"
        if event.kind == "submit":
            detail = (
                f"submit {event.run_id} tenant={event.tenant} "
                f"({attrs.get('n_items')} pairs, {attrs.get('config_label')}, "
                f"seed {attrs.get('seed')})"
            )
        elif event.kind == "admit":
            scores = attrs.get("scores") or {}
            detail = (
                f"admit  {event.run_id} tenant={event.tenant} "
                f"policy={attrs.get('policy')} wait={float(attrs.get('wait', 0.0)):.1f}s"
            )
            if scores:
                detail += f" scores[{_fmt_scores(scores)}]"
            blocked = attrs.get("blocked") or []
            if blocked:
                detail += f" blocked={len(blocked)}"
        elif event.kind == "quota-block":
            detail = f"block  {event.run_id} tenant={event.tenant}: {event.message}"
        elif event.kind == "cancel":
            detail = f"cancel {event.run_id} tenant={event.tenant}: {event.message}"
        elif event.kind == "recover":
            detail = (
                f"recover {event.run_id} tenant={event.tenant} "
                f"(resume={attrs.get('resume')})"
            )
        else:  # finish
            state = attrs.get("state")
            detail = f"finish {event.run_id} tenant={event.tenant} -> {state}"
            if attrs.get("makespan") is not None:
                detail += f" makespan={float(attrs['makespan']):.1f}s"
            if attrs.get("error"):
                detail += f" error={attrs['error']!r}"
        lines.append(f"{stamp} {detail}")
    return lines
