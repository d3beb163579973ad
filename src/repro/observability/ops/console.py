"""The live ops console behind ``python -m repro.service top``.

Curses-free by design: :func:`render_top` builds one complete frame as
a plain string from whatever rollup/SLO/alert state the CLI hands it,
and the CLI prints it once.  Rendering is pure — no I/O, no wall clock
— so a frame is deterministic for a given service state and the smoke
tests can assert on its contents.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional

from repro.observability.alerts import Alert, alert_sort_key
from repro.observability.ops.rollup import TenantRollup
from repro.observability.ops.slo import SLOStatus
from repro.util.units import format_size

__all__ = ["render_top"]

_BAR_WIDTH = 10

_COLUMNS = (
    ("TENANT", 12, "<"),
    ("WT", 4, ">"),
    ("SHARE", 6, ">"),
    ("USAGE", 11, "<"),
    ("QUEUE", 5, ">"),
    ("RUN", 4, ">"),
    ("DONE", 5, ">"),
    ("FAIL", 5, ">"),
    ("JOBS", 6, ">"),
    ("CPU-H", 7, ">"),
    ("B-IN", 9, ">"),
    ("B-OUT", 9, ">"),
    ("WAITP95", 8, ">"),
    ("ETA", 8, ">"),
    ("HEALTH", 6, ">"),
)


def _bar(fraction: float) -> str:
    """A ten-cell usage bar like ``#####-----``."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * _BAR_WIDTH))
    return "#" * filled + "-" * (_BAR_WIDTH - filled)


def _duration(seconds: Optional[float]) -> str:
    """Compact simulated-duration rendering (``-`` when unknown)."""
    if seconds is None:
        return "-"
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _row(cells: Iterable[str]) -> str:
    parts = []
    for (title, width, align), cell in zip(_COLUMNS, cells):
        parts.append(f"{cell:{align}{width}}")
    return "  ".join(parts).rstrip()


def _tenant_row(
    rollup: TenantRollup,
    total_weight: float,
    total_usage: float,
) -> str:
    entitled = rollup.weight / total_weight if total_weight > 0 else 0.0
    actual = rollup.usage / total_usage if total_usage > 0 else 0.0
    mean_makespan = _mean(rollup.makespans)
    eta = (
        rollup.queued * mean_makespan
        if rollup.queued and mean_makespan is not None
        else (0.0 if not rollup.queued else None)
    )
    rate = rollup.success_rate
    health = f"{rate * 100:.0f}%" if rate is not None else "-"
    return _row(
        (
            rollup.tenant[:12],
            f"{rollup.weight:g}",
            f"{entitled * 100:.0f}%",
            _bar(actual),
            str(rollup.queued),
            str(rollup.running),
            str(rollup.done),
            str(rollup.failed + rollup.cancelled),
            str(rollup.jobs_completed + rollup.jobs_failed),
            f"{rollup.cpu_seconds / 3600:.1f}",
            format_size(rollup.bytes_in) if rollup.bytes_in else "-",
            format_size(rollup.bytes_out) if rollup.bytes_out else "-",
            _duration(rollup.queue_wait_p95() if rollup.admission_waits else None),
            _duration(eta),
            health,
        )
    )


def render_top(
    rollups: Iterable[TenantRollup],
    totals: Optional[TenantRollup] = None,
    slo_statuses: Optional[Iterable[SLOStatus]] = None,
    alerts: Optional[Iterable[Alert]] = None,
    perf: Optional[Mapping[str, float]] = None,
    now: Optional[float] = None,
    title: str = "enactment service",
    max_alerts: int = 5,
) -> str:
    """Build one console frame: tenant table, SLOs, recent alerts.

    Everything is optional except the rollups; sections without data
    are omitted so a frame of an empty store still renders.
    """
    rows = list(rollups)
    total_weight = sum(r.weight for r in rows)
    total_usage = sum(r.usage for r in rows)
    lines: List[str] = []

    stamp = f"t={now:.0f}s" if now is not None else "offline"
    lines.append(f"== {title} :: {stamp} ==")
    lines.append("")
    lines.append(_row(tuple(title for title, _, _ in _COLUMNS)))
    if rows:
        for rollup in rows:
            lines.append(_tenant_row(rollup, total_weight, total_usage))
    else:
        lines.append("(no tenants)")
    if totals is not None:
        lines.append(_tenant_row(totals, totals.weight or 1.0, totals.usage or 1.0))

    statuses = list(slo_statuses or ())
    if statuses:
        lines.append("")
        lines.append("SLOs:")
        for status in statuses:
            marker = "BURN" if status.breached else " ok "
            lines.append(
                f"  [{marker}] {status.slo:<16} {status.tenant:<12} "
                f"value={status.value:.3f} objective={status.objective:g} "
                f"burn={status.burn_rate:.2f}x (n={status.samples})"
            )

    recent: List[Alert] = sorted(alerts or (), key=alert_sort_key)
    if recent:
        lines.append("")
        lines.append(f"Recent alerts (last {min(max_alerts, len(recent))}):")
        for alert in recent[-max_alerts:]:
            lines.append(
                f"  [t={alert.time:9.1f}s] {alert.kind:<11} "
                f"{alert.subject}: {alert.message}"
            )

    if perf:
        lines.append("")
        pairs = "  ".join(f"{k}={perf[k]:.1f}" for k in sorted(perf))
        lines.append(f"perf: {pairs}")

    return "\n".join(lines) + "\n"
