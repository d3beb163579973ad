"""Typed, structured alerts: what the live monitor tells the world.

An :class:`Alert` is one actionable finding, raised by the
:class:`~repro.observability.monitor.RunMonitor` while a run is in
flight.  The kinds mirror the production-grid failure modes the paper's
era fought by hand via job monitoring:

``straggler``
    a job (scope ``job``) or computing element (scope ``ce``) whose
    queue/run phases are abnormally long against the fleet's robust
    statistics;
``blackhole``
    a CE failing jobs quickly enough to look attractive to least-loaded
    ranking (high fault rate + low time-to-failure);
``fault-burst``
    several failed attempts inside a short window — the "D0 was
    submitted twice because an error occurred" narrative of Figure 6,
    observed live;
``eta-blowout``
    the blended progress ETA drifted past the Section 3.5 model
    prediction by more than the configured factor;
``queue-stall``
    one job sat in a CE batch queue beyond the absolute stall
    threshold;
``slo-burn``
    a control-plane service-level objective (queue-wait p95, run
    success rate, fair-share deviation — see
    :mod:`repro.observability.ops.slo`) is burning its error budget
    faster than the configured burn-rate threshold.

Alerts are timestamped in simulated seconds, carry a monotonically
increasing per-monitor sequence number (so ordering is total and
deterministic even at equal timestamps), and serialize to one JSON
object per line — the same streaming discipline as the span trace, so
``tail -f`` on the alert file works mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.observability.bus import InstrumentationBus, JsonlLineWriter
from repro.observability.jsonl import records_from_jsonl, records_to_jsonl
from repro.observability.metrics import BoundMetrics, MetricHandles

__all__ = [
    "ALERT_KINDS",
    "Alert",
    "AlertError",
    "AlertRules",
    "JsonlAlertWriter",
    "alert_counters",
    "alert_sort_key",
    "alerts_to_jsonl",
    "alerts_from_jsonl",
    "publish_alert",
]

#: every kind the monitor can raise, in severity-agnostic display order
ALERT_KINDS: Tuple[str, ...] = (
    "straggler",
    "blackhole",
    "fault-burst",
    "eta-blowout",
    "queue-stall",
    "slo-burn",
    "se-outage",
    "replica-corruption",
    "transfer-storm",
)


class AlertError(ValueError):
    """Malformed alert records or streams."""


@dataclass(frozen=True)
class Alert:
    """One actionable monitoring finding.

    ``subject`` names what the alert is about (a CE name, a service
    name, or ``job:<id>``); ``scope`` qualifies the granularity
    (``job``, ``ce``, ``service``, ``run``).  ``sequence`` is assigned
    by the emitting monitor and makes ordering total: two alerts raised
    at the same simulated instant still compare deterministically.
    """

    kind: str
    time: float
    subject: str
    scope: str = "ce"
    severity: str = "warning"
    message: str = ""
    sequence: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ALERT_KINDS:
            raise AlertError(
                f"unknown alert kind {self.kind!r}; expected one of {ALERT_KINDS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The JSONL line schema (stable, documented in the README)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "subject": self.subject,
            "scope": self.scope,
            "severity": self.severity,
            "message": self.message,
            "sequence": self.sequence,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Alert":
        """Rebuild an alert from its :meth:`to_dict` form."""
        try:
            return cls(
                kind=str(payload["kind"]),
                time=float(payload["time"]),
                subject=str(payload["subject"]),
                scope=str(payload.get("scope", "ce")),
                severity=str(payload.get("severity", "warning")),
                message=str(payload.get("message", "")),
                sequence=int(payload.get("sequence", 0)),
                attributes=dict(payload.get("attributes") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AlertError(f"malformed alert record: {exc}") from None


def alert_sort_key(alert: Alert) -> Tuple[float, int]:
    """Total deterministic ordering: by time, then emission sequence."""
    return (alert.time, alert.sequence)


def alerts_to_jsonl(alerts: Iterable[Alert]) -> str:
    """Serialize *alerts* as one JSON object per line."""
    return records_to_jsonl(alerts)


def alerts_from_jsonl(text: "str | Iterable[str]") -> List[Alert]:
    """Parse an alert JSONL stream (blank lines ignored)."""
    return records_from_jsonl(text, Alert.from_dict, AlertError, "an alert record")


def alert_counters(bus: InstrumentationBus) -> MetricHandles:
    """``kind -> CounterGroup`` of ``monitor.alerts.total`` and
    ``monitor.alerts.<kind>`` on *bus*: what an alert emitter binds once
    per bus and hands to :func:`publish_alert`."""
    group = BoundMetrics(bus.metrics).group
    return MetricHandles(lambda kind: group["monitor.alerts.total", f"monitor.alerts.{kind}"])


def publish_alert(
    alert: Alert,
    sinks: Iterable[Callable[[Alert], None]],
    bus: Optional[InstrumentationBus] = None,
    counters: Optional[MetricHandles] = None,
) -> Alert:
    """Deliver one built alert: every emitter (the run monitor, the SLO
    tracker) raises its alerts through here.

    Each sink is called in order; with a *bus* the alert is also counted
    in ``monitor.alerts.total`` and ``monitor.alerts.<kind>`` (through
    *counters*, the emitter's :func:`alert_counters` for that bus, bound
    here when not given) and recorded as an instant ``alert.<kind>``
    span (category ``alert``) under the current run span, which is how
    it reaches JSONL/Chrome traces and the run summaries that
    ``compare-runs`` gates.
    """
    for sink in sinks:
        sink(alert)
    if bus is not None:
        if counters is None:
            counters = alert_counters(bus)
        counters[alert.kind].inc()
        bus.record(
            f"alert.{alert.kind}",
            "alert",
            alert.time,
            alert.time,
            parent=bus.run_span,
            status=alert.severity,
            subject=alert.subject,
            scope=alert.scope,
            message=alert.message,
            sequence=alert.sequence,
            **alert.attributes,
        )
    return alert


@dataclass(frozen=True)
class AlertRules:
    """Pluggable thresholds gating when each alert kind fires.

    Embeds the statistical thresholds
    (:class:`~repro.observability.health.HealthThresholds` fields are
    mirrored here so one object configures the whole monitor) plus the
    alert-only knobs.
    """

    #: robust z over fleet queue/run durations flagging a straggler job
    straggler_z: float = 3.5
    #: fraction of straggler jobs flagging a straggler CE
    ce_straggler_fraction: float = 0.5
    #: attempt fault rate flagging a blackhole-suspect CE
    blackhole_fault_rate: float = 0.5
    #: "fast failure" = median TTF below this fraction of the fleet's
    #: median run phase
    blackhole_ttf_factor: float = 0.5
    #: absolute fast-failure bound used before any run phase completed
    blackhole_ttf_floor: float = 120.0
    #: observations required before CE-level flags can raise
    min_samples: int = 4
    #: faults within ``fault_burst_window`` needed for a fault-burst
    fault_burst_count: int = 3
    #: sliding window (simulated seconds) for fault-burst counting
    fault_burst_window: float = 900.0
    #: a queue phase beyond this many seconds is a queue-stall
    queue_stall_seconds: float = 3600.0
    #: blended ETA beyond model prediction x this factor = eta-blowout
    eta_blowout_factor: float = 2.0
    #: failed transfers within ``transfer_storm_window`` = transfer-storm
    transfer_storm_count: int = 5
    #: sliding window (simulated seconds) for transfer-storm counting
    transfer_storm_window: float = 600.0

    def __post_init__(self) -> None:
        if self.fault_burst_count < 1:
            raise ValueError(
                f"fault_burst_count must be >= 1, got {self.fault_burst_count}"
            )
        if self.fault_burst_window <= 0:
            raise ValueError(
                f"fault_burst_window must be > 0, got {self.fault_burst_window}"
            )
        if self.eta_blowout_factor <= 1.0:
            raise ValueError(
                f"eta_blowout_factor must be > 1, got {self.eta_blowout_factor}"
            )
        if self.transfer_storm_count < 1:
            raise ValueError(
                f"transfer_storm_count must be >= 1, got {self.transfer_storm_count}"
            )
        if self.transfer_storm_window <= 0:
            raise ValueError(
                f"transfer_storm_window must be > 0, got {self.transfer_storm_window}"
            )

    def health_thresholds(self):
        """The embedded :class:`~repro.observability.health.HealthThresholds`."""
        from repro.observability.health import HealthThresholds

        return HealthThresholds(
            straggler_z=self.straggler_z,
            ce_straggler_fraction=self.ce_straggler_fraction,
            blackhole_fault_rate=self.blackhole_fault_rate,
            blackhole_ttf_factor=self.blackhole_ttf_factor,
            blackhole_ttf_floor=self.blackhole_ttf_floor,
            min_samples=self.min_samples,
        )


class JsonlAlertWriter(JsonlLineWriter):
    """Streams alerts to disk, one JSON line each, flushed per line.

    The span trace's :class:`~repro.observability.bus.JsonlLineWriter`
    discipline: a live file a human can ``tail -f`` while the run is in
    flight, usable as a context manager.
    """

    def __call__(self, alert: Alert) -> None:
        """Write one alert line (the monitor's alert-sink signature)."""
        self.write_record(alert.to_dict())
