"""Service-level objectives over the control-plane rollups.

An :class:`SLO` declares one promise the service makes to its tenants;
the :class:`SLOTracker` re-evaluates every declared objective each time
the control plane records a decision, computes a **burn rate** (how
fast the error budget is being spent relative to the objective), and
raises an ``slo-burn`` :class:`~repro.observability.alerts.Alert`
through the existing alert machinery when the burn crosses its
threshold.  Because those alerts are counted into the bus's
``monitor.alerts.*`` metrics, the stock
``compare-runs --budget-alerts`` regression gate catches SLO burns
with no extra wiring.

Three objective kinds (:data:`SLO_KINDS`):

``queue-wait``
    p95 control-plane admission wait (submit -> admit, simulated
    seconds) must stay at or below ``objective``;
    ``burn = p95 / objective``.
``success-rate``
    the fraction of finished runs that ended DONE must stay at or
    above ``objective``;
    ``burn = (1 - rate) / (1 - objective)`` — budget spent twice as
    fast as promised means burn 2.0.
``share-deviation``
    a tenant's share of decayed fair-share usage must not drift from
    its weight-entitled share by more than ``objective``;
    ``burn = |actual - entitled| / objective``.

Evaluation is deterministic (simulated time only) and incremental: the
tracker fires on the *transition* into breach and re-arms when the
objective recovers, so a persistently starved tenant produces one
alert, not one per scheduler tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability.alerts import Alert, publish_alert
from repro.observability.bus import InstrumentationBus
from repro.observability.ops.rollup import ControlPlaneTelemetry, TenantRollup

__all__ = [
    "SLO_KINDS",
    "SLO",
    "SLOStatus",
    "SLOTracker",
    "default_slos",
    "parse_slo",
]

#: every objective kind the tracker can evaluate
SLO_KINDS: Tuple[str, ...] = ("queue-wait", "success-rate", "share-deviation")

#: observations needed before each kind may breach (avoids one-sample noise)
_DEFAULT_MIN_SAMPLES: Dict[str, int] = {
    "queue-wait": 5,
    "success-rate": 3,
    "share-deviation": 2,
}


@dataclass(frozen=True)
class SLO:
    """One declared objective.

    ``tenant=None`` means the objective applies to *every* tenant
    individually (one status row each); naming a tenant scopes it.
    """

    name: str
    kind: str
    objective: float
    burn_threshold: float = 2.0
    min_samples: int = 1
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; expected one of {SLO_KINDS}"
            )
        if self.kind == "success-rate" and not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"success-rate objective must be in (0, 1), got {self.objective}"
            )
        if self.kind != "success-rate" and self.objective <= 0:
            raise ValueError(
                f"{self.kind} objective must be > 0, got {self.objective}"
            )
        if self.burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be > 0, got {self.burn_threshold}"
            )


@dataclass(frozen=True)
class SLOStatus:
    """One objective evaluated for one tenant at one instant."""

    slo: str
    kind: str
    tenant: str
    value: float
    objective: float
    burn_rate: float
    samples: int
    breached: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "kind": self.kind,
            "tenant": self.tenant,
            "value": round(self.value, 6),
            "objective": self.objective,
            "burn_rate": round(self.burn_rate, 6),
            "samples": self.samples,
            "breached": self.breached,
        }


def default_slos() -> List[SLO]:
    """The out-of-the-box objectives ``service --telemetry`` tracks."""
    return [
        SLO(name="queue-wait-p95", kind="queue-wait", objective=1800.0,
            min_samples=_DEFAULT_MIN_SAMPLES["queue-wait"]),
        SLO(name="run-success", kind="success-rate", objective=0.9,
            min_samples=_DEFAULT_MIN_SAMPLES["success-rate"]),
        SLO(name="fair-share", kind="share-deviation", objective=0.35,
            min_samples=_DEFAULT_MIN_SAMPLES["share-deviation"]),
    ]


def parse_slo(spec: str) -> SLO:
    """Parse a CLI objective: ``kind=value`` or ``kind=value:burn``.

    Examples: ``queue-wait=900``, ``success-rate=0.95:1.5``.
    """
    kind, sep, rest = spec.partition("=")
    kind = kind.strip()
    if not sep or not rest.strip():
        raise ValueError(
            f"bad SLO spec {spec!r}; expected kind=value[:burn_threshold]"
        )
    value, _, burn = rest.partition(":")
    try:
        objective = float(value)
        burn_threshold = float(burn) if burn.strip() else 2.0
    except ValueError:
        raise ValueError(
            f"bad SLO spec {spec!r}; expected kind=value[:burn_threshold]"
        ) from None
    return SLO(
        name=f"{kind}-slo",
        kind=kind,
        objective=objective,
        burn_threshold=burn_threshold,
        min_samples=_DEFAULT_MIN_SAMPLES.get(kind, 1),
    )


class SLOTracker:
    """Incrementally evaluates objectives against live rollups.

    The service calls :meth:`update` after every audit event; the
    tracker walks each (SLO, tenant) pair, computes the burn rate, and
    emits exactly one ``slo-burn`` alert per *transition into breach*
    (re-armed when the pair recovers).  Alerts go out through
    :func:`~repro.observability.alerts.publish_alert`, the run
    monitor's path too: sinks are invoked, and when a bus is attached
    the alert is counted in ``monitor.alerts.total`` /
    ``monitor.alerts.slo-burn`` and recorded as an instant
    ``alert.slo-burn`` span — which is what lets
    ``compare-runs --budget-alerts`` gate SLO burns.
    """

    def __init__(
        self,
        slos: Optional[List[SLO]] = None,
        telemetry: Optional[ControlPlaneTelemetry] = None,
        bus: Optional[InstrumentationBus] = None,
        alert_sinks: Optional[List[Callable[[Alert], None]]] = None,
    ) -> None:
        self.slos: List[SLO] = list(default_slos() if slos is None else slos)
        self.telemetry = telemetry if telemetry is not None else ControlPlaneTelemetry()
        self.bus = bus
        self.alert_sinks: List[Callable[[Alert], None]] = list(alert_sinks or [])
        #: every slo-burn alert raised, emission order
        self.alerts: List[Alert] = []
        #: (slo name, tenant) pairs currently in breach (dedup state)
        self._burning: Dict[Tuple[str, str], bool] = {}

    # -- evaluation ------------------------------------------------------
    def _entitled_share(self, rollup: TenantRollup) -> float:
        total_weight = sum(r.weight for r in self.telemetry.tenants.values())
        return rollup.weight / total_weight if total_weight > 0 else 0.0

    def _actual_share(self, rollup: TenantRollup) -> float:
        total_usage = sum(r.usage for r in self.telemetry.tenants.values())
        return rollup.usage / total_usage if total_usage > 0 else 0.0

    def _evaluate(self, slo: SLO, rollup: TenantRollup) -> Optional[SLOStatus]:
        if slo.kind == "queue-wait":
            samples = len(rollup.admission_waits)
            value = rollup.queue_wait_p95()
            burn = value / slo.objective
        elif slo.kind == "success-rate":
            samples = rollup.finished
            rate = rollup.success_rate
            if rate is None:
                return None
            value = rate
            burn = (1.0 - rate) / (1.0 - slo.objective)
        else:  # share-deviation
            # summed per-tenant (not totals()): the offline CLI path
            # reconstructs tenant rollups without the global one
            samples = sum(r.finished for r in self.telemetry.tenants.values())
            value = abs(self._actual_share(rollup) - self._entitled_share(rollup))
            burn = value / slo.objective
        breached = samples >= slo.min_samples and burn >= slo.burn_threshold
        return SLOStatus(
            slo=slo.name,
            kind=slo.kind,
            tenant=rollup.tenant,
            value=value,
            objective=slo.objective,
            burn_rate=burn,
            samples=samples,
            breached=breached,
        )

    def statuses(self) -> List[SLOStatus]:
        """Every (SLO, tenant) pair evaluated now, declaration order."""
        out: List[SLOStatus] = []
        for slo in self.slos:
            if slo.tenant is not None:
                names = [slo.tenant] if slo.tenant in self.telemetry.tenants else []
            else:
                names = sorted(self.telemetry.tenants)
            for name in names:
                if name == ControlPlaneTelemetry.UNTAGGED:
                    continue
                status = self._evaluate(slo, self.telemetry.tenant(name))
                if status is not None:
                    out.append(status)
        return out

    def update(self, time: float) -> List[Alert]:
        """Re-evaluate everything; alert on transitions into breach."""
        fired: List[Alert] = []
        for status in self.statuses():
            key = (status.slo, status.tenant)
            was_burning = self._burning.get(key, False)
            self._burning[key] = status.breached
            if status.breached and not was_burning:
                fired.append(self._emit(status, time))
        return fired

    # -- alert emission --------------------------------------------------
    def _emit(self, status: SLOStatus, time: float) -> Alert:
        severity = (
            "critical"
            if status.burn_rate >= 2.0 * self._threshold(status.slo)
            else "warning"
        )
        message = (
            f"SLO {status.slo} burning for tenant {status.tenant}: "
            f"{status.kind}={status.value:.3f} vs objective "
            f"{status.objective:g} (burn {status.burn_rate:.2f}x)"
        )
        alert = Alert(
            kind="slo-burn",
            time=time,
            subject=f"{status.slo}/{status.tenant}",
            scope="service",
            severity=severity,
            message=message,
            sequence=len(self.alerts),
            attributes=status.to_dict(),
        )
        self.alerts.append(alert)
        return publish_alert(alert, self.alert_sinks, self.bus)

    def _threshold(self, slo_name: str) -> float:
        for slo in self.slos:
            if slo.name == slo_name:
                return slo.burn_threshold
        return 2.0
