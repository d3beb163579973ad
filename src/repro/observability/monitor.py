"""The live run monitor: online progress, health and alerts from the bus.

Everything observability built so far is post-hoc — it explains a run
after it finished.  :class:`RunMonitor` closes the gap: it subscribes to
the :class:`~repro.observability.bus.InstrumentationBus` and maintains,
incrementally as spans close,

* **per-service progress and ETA** — items completed / in flight /
  pending per service (an item is an invocation span whose kind is in
  :data:`~repro.observability.spans.ITEM_KINDS`, the definition the
  tenant rollups share, so a resumed run's journal-replayed invocations
  count as done), with an ETA that blends the Section 3.5 model
  prediction (equations (1)–(4) evaluated on a ``T`` matrix rebuilt
  from observed mean service times) with the simple observed completion
  rate, weighting toward the observation as the run completes;
* **per-CE health** — the rolling robust statistics of
  :class:`~repro.observability.health.FleetHealth`, flagging straggler
  jobs/CEs and blackhole CEs while jobs are still running;
* **typed alerts** — :class:`~repro.observability.alerts.Alert` records
  (straggler, blackhole, fault-burst, eta-blowout, queue-stall, and the
  data-plane se-outage / replica-corruption / transfer-storm) published
  through :func:`~repro.observability.alerts.publish_alert`: pushed to
  every registered sink, re-emitted through the bus as zero-duration
  ``category="alert"`` spans (so they land in the JSONL trace and the
  Chrome trace), and counted in the metrics registry (``monitor.alerts.*``)
  so run-store summaries and ``compare-runs`` budgets see them.

**The online invariant.**  Every piece of state that determines health
scores and alerts is derived *solely* from closed spans, in the order
they close.  ``on_start`` feeds only the in-flight display counters
(recomputed as ``max(0, started - completed)``), so replaying a
recorded span stream — which contains only closed spans, in completion
order — into a fresh monitor via the shared
:meth:`Subscriber.replay <repro.observability.bus.Subscriber.replay>`
reproduces the exact same health table and alert list.  That is what
makes the monitor's findings auditable after the fact.

The monitor is also a **health provider** for the feedback loop: the
:class:`~repro.grid.broker.ResourceBroker` consults
:meth:`penalty` / :meth:`blacklisted` so least-loaded ranking demotes
flagged CEs, and the grid can proactively resubmit jobs queued on them.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Union

from repro.observability.alerts import Alert, AlertRules, alert_sort_key, publish_alert
from repro.observability.bus import InstrumentationBus, Subscriber
from repro.observability.health import FleetHealth, CEHealth
from repro.observability.spans import ITEM_KINDS, Span

__all__ = ["HealthProvider", "ServiceProgress", "RunMonitor"]


class HealthProvider:
    """What the broker needs to know about CE health (duck-typed base).

    A provider answers two questions about a computing element by name:
    how much should ranking *demote* it (:meth:`penalty`, added to the
    load estimate — 0.0 for a healthy CE), and should it be avoided
    outright (:meth:`blacklisted`).  The broker treats a blacklist as a
    strong preference, not an absolute: when every candidate is
    blacklisted it still places the job somewhere.
    """

    def penalty(self, ce: str) -> float:
        """Ranking demotion for *ce* (0.0 = healthy)."""
        return 0.0

    def blacklisted(self, ce: str) -> bool:
        """True when *ce* should be avoided if any alternative exists."""
        return False


@dataclass
class ServiceProgress:
    """One service's live progress counters."""

    service: str
    completed: int = 0
    started: int = 0
    #: expected total items, when known (None disables ETA contribution)
    expected: Optional[int] = None
    #: sum of completed invocation durations (mean = total / completed)
    total_seconds: float = 0.0

    @property
    def in_flight(self) -> int:
        """Invocations started but not yet closed (display only)."""
        return max(0, self.started - self.completed)

    @property
    def pending(self) -> Optional[int]:
        """Items not yet started, when the expected total is known."""
        if self.expected is None:
            return None
        return max(0, self.expected - self.completed - self.in_flight)

    @property
    def mean_seconds(self) -> float:
        """Mean duration of completed invocations (0.0 before any)."""
        return self.total_seconds / self.completed if self.completed else 0.0

    @property
    def fraction(self) -> Optional[float]:
        """Completed fraction, when the expected total is known."""
        if not self.expected:
            return None
        return min(1.0, self.completed / self.expected)


#: phase spans routed into FleetHealth (stage phases refine per-CE
#: medians; queue/run additionally feed straggler detection)
_HEALTH_PHASES = ("job.queue", "job.run", "job.stage_in", "job.stage_out")


class _EdgeWindow:
    """Events in a sliding time window, edge-triggered on a count.

    :meth:`observe` records one event, drops those older than *width*
    seconds, and returns the in-window count at the moment it first
    reaches *count* (``None`` otherwise).  It re-arms only after the
    count falls back below the threshold, so one burst raises one alert.
    """

    def __init__(self, width: float, count: int) -> None:
        self.width = width
        self.count = count
        self._times: Deque[float] = deque()
        self._high = False

    def observe(self, now: float) -> Optional[int]:
        times = self._times
        times.append(now)
        horizon = now - self.width
        while times and times[0] < horizon:
            times.popleft()
        rising = len(times) >= self.count and not self._high
        self._high = len(times) >= self.count
        return len(times) if rising else None


class RunMonitor(Subscriber, HealthProvider):
    """Online monitoring: subscribe to a bus, watch a run unfold.

    Parameters
    ----------
    rules:
        alert thresholds (:class:`~repro.observability.alerts.AlertRules`).
    expected_items:
        how many items each service will process — an int (uniform) or a
        ``{service: n}`` mapping.  Enables ETA and the eta-blowout alert.
    policy:
        which Section 3.5 equation models this run (``NOP``/``DP``/
        ``SP``/``SP+DP``; see :func:`repro.observability.drift.policy_key`).
    bus:
        when attached, alerts are re-emitted as instant spans and
        counted in ``monitor.alerts.*`` metrics.  Use
        :meth:`RunMonitor.attach` to construct-and-subscribe in one step.
    alert_sinks:
        callables invoked with each :class:`Alert` as it fires (e.g. a
        :class:`~repro.observability.alerts.JsonlAlertWriter`).
    on_progress:
        callable invoked with a rendered progress line every
        ``progress_every`` completed items (and at run end).
    """

    def __init__(
        self,
        rules: Optional[AlertRules] = None,
        expected_items: Union[int, Dict[str, int], None] = None,
        policy: str = "NOP",
        window: int = 512,
        bus: Optional[InstrumentationBus] = None,
        alert_sinks: Optional[List[Callable[[Alert], None]]] = None,
        on_progress: Optional[Callable[[str], None]] = None,
        progress_every: int = 10,
    ) -> None:
        self.rules = rules if rules is not None else AlertRules()
        self.policy = policy
        self.bus = bus
        self.alert_sinks: List[Callable[[Alert], None]] = list(alert_sinks or [])
        self.on_progress = on_progress
        self.progress_every = max(1, progress_every)

        self.fleet = FleetHealth(self.rules.health_thresholds(), window=window)
        self.alerts: List[Alert] = []

        #: service name -> progress, first-seen order
        self.services: Dict[str, ServiceProgress] = {}
        self._uniform_expected: Optional[int] = None
        if isinstance(expected_items, dict):
            for name, n in expected_items.items():
                self.services[name] = ServiceProgress(service=name, expected=int(n))
        elif expected_items is not None:
            self._uniform_expected = int(expected_items)

        #: grid-job counters (jobs, not attempts)
        self.jobs_started = 0
        self.jobs_completed = 0
        self.jobs_failed = 0

        #: earliest start among *closed* spans — the replay-safe run origin
        self._run_start: Optional[float] = None
        self._last_event: float = 0.0
        self._run_closed = False

        #: per-CE fault-burst windows and the fleet-wide transfer-storm one
        self._fault_windows: Dict[str, _EdgeWindow] = defaultdict(
            lambda: _EdgeWindow(self.rules.fault_burst_window, self.rules.fault_burst_count)
        )
        self._storm_window = _EdgeWindow(
            self.rules.transfer_storm_window, self.rules.transfer_storm_count
        )

        #: dedup sets: one CE-scope alert per CE per kind, one blowout
        self._alerted: Dict[str, set] = {"straggler": set(), "blackhole": set()}
        self._eta_blowout_raised = False

    # -- wiring ----------------------------------------------------------
    @classmethod
    def attach(cls, bus: InstrumentationBus, **kwargs: Any) -> "RunMonitor":
        """Construct a monitor bound to *bus* and subscribe it."""
        monitor = cls(bus=bus, **kwargs)
        bus.subscribe(monitor)
        return monitor

    def add_sink(self, sink: Callable[[Alert], None]) -> Callable[[Alert], None]:
        """Register an alert sink; returns it for chaining."""
        self.alert_sinks.append(sink)
        return sink

    # -- subscriber ------------------------------------------------------
    def on_start(self, span: Span) -> None:
        """Display-only accounting: nothing here may influence alerts."""
        if span.category == "alert":
            return
        if span.name == "invocation" and span.category == "enactor":
            service = str(span.attributes.get("processor", "?"))
            self._service(service).started += 1
        elif span.name == "grid.job":
            self.jobs_started += 1

    def on_end(self, span: Span) -> None:
        if span.category == "alert":
            return  # our own output; consuming it would self-feed
        if span.end is None:  # defensive: replay of a truncated stream
            return
        if self._run_start is None or span.start < self._run_start:
            self._run_start = span.start
        if span.end > self._last_event:
            self._last_event = span.end

        name = span.name
        if name == "invocation" and span.category == "enactor":
            self._close_invocation(span)
        elif name in _HEALTH_PHASES:
            self._close_phase(span)
        elif name == "job.fault":
            self._close_fault(span)
        elif name == "se.outage":
            self._close_se_outage(span)
        elif name == "replica.corruption":
            self._close_corruption(span)
        elif name == "transfer.fault":
            self._close_transfer_fault(span)
        elif name == "grid.job":
            if span.status == "error":
                self.jobs_failed += 1
            else:
                self.jobs_completed += 1
        elif name == "run" and span.category == "enactor":
            self._run_closed = True
            self._progress_tick(force=True)

    # -- span handlers ---------------------------------------------------
    def _service(self, name: str) -> ServiceProgress:
        progress = self.services.get(name)
        if progress is None:
            progress = self.services[name] = ServiceProgress(
                service=name, expected=self._uniform_expected
            )
        return progress

    def _close_invocation(self, span: Span) -> None:
        attrs = span.attributes
        if attrs.get("kind") not in ITEM_KINDS:
            return
        progress = self._service(str(attrs.get("processor", "?")))
        progress.completed += 1
        progress.total_seconds += span.duration
        self._check_eta_blowout(span.end)
        self._progress_tick()

    @staticmethod
    def _group_of(span: Span) -> Optional[str]:
        """The job's population for straggler comparison: its service.

        Job names look like ``crestLines#7`` or ``crestMatch#batch2`` —
        the part before ``#`` is the submitting service, the natural
        like-for-like grouping (one service's jobs share a duration
        distribution; different services do not).
        """
        name = span.attributes.get("job_name")
        if not name:
            return None
        return str(name).split("#", 1)[0]

    def _close_phase(self, span: Span) -> None:
        ce = str(span.attributes.get("ce", "?"))
        job_id = span.attributes.get("job_id")
        straggler = self.fleet.observe_phase(
            ce, span.name, span.duration, job_id=job_id, group=self._group_of(span)
        )
        if straggler:
            self._emit(
                "straggler",
                span.end,
                subject=f"job:{job_id}" if job_id is not None else ce,
                scope="job",
                message=(
                    f"{span.name} phase of job {job_id} on {ce} took "
                    f"{span.duration:.1f}s (fleet median "
                    f"{self.fleet.fleet_median(span.name) or 0.0:.1f}s)"
                ),
                ce=ce,
                phase=span.name,
                duration=span.duration,
            )
        if span.name == "job.queue" and span.duration > self.rules.queue_stall_seconds:
            self._emit(
                "queue-stall",
                span.end,
                subject=f"job:{job_id}" if job_id is not None else ce,
                scope="job",
                message=(
                    f"job {job_id} sat {span.duration:.0f}s in the {ce} batch "
                    f"queue (stall threshold {self.rules.queue_stall_seconds:.0f}s)"
                ),
                ce=ce,
                duration=span.duration,
            )
        self._check_ce(ce, span.end)

    def _close_fault(self, span: Span) -> None:
        ce = str(span.attributes.get("ce", "?"))
        self.fleet.observe_fault(ce, span.duration)
        window = self._fault_windows[ce]
        faults = window.observe(span.end)
        if faults is not None:
            self._emit(
                "fault-burst",
                span.end,
                subject=ce,
                scope="ce",
                severity="critical",
                message=f"{faults} faults on {ce} within {window.width:.0f}s",
                faults_in_window=faults,
            )
        self._check_ce(ce, span.end)

    def _close_se_outage(self, span: Span) -> None:
        """One ground-truth ``se.outage`` span = one ``se-outage`` alert.

        The grid's outage beacon emits these only for *scheduled*
        down-windows, so the mapping is exact: every injected SE outage
        is flagged and a healthy site can never be (zero false
        positives by construction).
        """
        se = str(span.attributes.get("se", "?"))
        until = span.attributes.get("until")
        suffix = f" (down until {float(until):.0f}s)" if until is not None else ""
        self._emit(
            "se-outage",
            span.end,
            subject=se,
            scope="se",
            severity="critical",
            message=f"storage element {se} went down at {span.end:.0f}s{suffix}",
            until=until,
        )

    def _close_corruption(self, span: Span) -> None:
        se = str(span.attributes.get("se", "?"))
        gfn = str(span.attributes.get("gfn", "?"))
        self._emit(
            "replica-corruption",
            span.end,
            subject=se,
            scope="se",
            message=(
                f"replica of {gfn} on {se} failed checksum verification; quarantined"
            ),
            gfn=gfn,
        )

    def _close_transfer_fault(self, span: Span) -> None:
        """Failed transfers in a fleet-wide sliding window -> storm alert."""
        failures = self._storm_window.observe(span.end)
        if failures is not None:
            self._emit(
                "transfer-storm",
                span.end,
                subject="network",
                scope="run",
                severity="critical",
                message=f"{failures} failed transfers within {self._storm_window.width:.0f}s",
                failures_in_window=failures,
            )

    def _check_ce(self, ce: str, now: float) -> None:
        """Raise CE-scope alerts on a health-flag transition (once each)."""
        health = self.fleet.health_of(ce)
        if health.is_blackhole and ce not in self._alerted["blackhole"]:
            self._alerted["blackhole"].add(ce)
            self._emit(
                "blackhole",
                now,
                subject=ce,
                scope="ce",
                severity="critical",
                message=(
                    f"{ce} looks like a blackhole: fault rate "
                    f"{health.fault_rate:.0%} over {health.attempts} attempts, "
                    f"median time-to-failure {health.median_ttf:.1f}s"
                ),
                fault_rate=health.fault_rate,
                median_ttf=health.median_ttf,
                attempts=health.attempts,
            )
        if health.is_straggler and ce not in self._alerted["straggler"]:
            self._alerted["straggler"].add(ce)
            self._emit(
                "straggler",
                now,
                subject=ce,
                scope="ce",
                message=(
                    f"{ce} keeps producing stragglers: "
                    f"{health.straggler_jobs}/{health.completed} completed "
                    f"jobs flagged"
                ),
                straggler_jobs=health.straggler_jobs,
                completed=health.completed,
            )

    # -- progress / ETA --------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Simulated seconds from first closed-span start to last close."""
        if self._run_start is None:
            return 0.0
        return max(0.0, self._last_event - self._run_start)

    def completed_items(self) -> int:
        """Items completed across every service."""
        return sum(p.completed for p in self.services.values())

    def expected_total(self) -> Optional[int]:
        """Total expected items, or None when any service is unbounded."""
        if not self.services:
            return self._uniform_expected
        total = 0
        for progress in self.services.values():
            if progress.expected is None:
                return None
            total += progress.expected
        return total

    def completion_fraction(self) -> Optional[float]:
        """Overall completed fraction, when expected totals are known."""
        expected = self.expected_total()
        if not expected:
            return None
        return min(1.0, self.completed_items() / expected)

    def model_makespan(self) -> Optional[float]:
        """Section 3.5 prediction on a T matrix of observed mean times.

        Every known service must have at least one completed invocation
        and a known expected count; otherwise None (no model yet).
        """
        if not self.services:
            return None
        rows = []
        n_items = None
        for progress in self.services.values():
            if progress.expected is None or progress.completed == 0:
                return None
            if n_items is None:
                n_items = progress.expected
            # The equations assume one stream: model the common length.
            n_items = min(n_items, progress.expected)
            rows.append(progress.mean_seconds)
        if not n_items:
            return None
        import numpy as np

        from repro.model.makespan import makespans

        T = np.tile(np.array(rows, dtype=float)[:, None], (1, n_items))
        return float(makespans(T)[self.policy])

    def eta(self) -> Optional[float]:
        """Blended remaining simulated seconds, or None without data.

        ``fraction * rate + (1 - fraction) * model``: early in the run
        the model prediction dominates (one observation per service is
        enough to evaluate it), late in the run the observed completion
        rate — which has integrated every real queue wait and fault —
        takes over.
        """
        fraction = self.completion_fraction()
        if fraction is None or fraction <= 0.0:
            return None
        if fraction >= 1.0:
            return 0.0
        elapsed = self.elapsed
        rate_remaining = elapsed * (1.0 - fraction) / fraction
        model = self.model_makespan()
        if model is None:
            return rate_remaining
        model_remaining = max(0.0, model - elapsed)
        return fraction * rate_remaining + (1.0 - fraction) * model_remaining

    def _check_eta_blowout(self, now: float) -> None:
        if self._eta_blowout_raised:
            return
        fraction = self.completion_fraction()
        model = self.model_makespan()
        if fraction is None or model is None or model <= 0.0:
            return
        if fraction < 0.1 or fraction >= 1.0:
            return
        rate_total = self.elapsed / fraction
        if rate_total > self.rules.eta_blowout_factor * model:
            self._eta_blowout_raised = True
            self._emit(
                "eta-blowout",
                now,
                subject="run",
                scope="run",
                severity="critical",
                message=(
                    f"projected makespan {rate_total:.0f}s exceeds the model "
                    f"prediction {model:.0f}s by more than "
                    f"{self.rules.eta_blowout_factor:g}x"
                ),
                projected=rate_total,
                model=model,
                fraction=fraction,
            )

    def progress_line(self) -> str:
        """One human-readable status line for the logbridge."""
        done = self.completed_items()
        expected = self.expected_total()
        in_flight = sum(p.in_flight for p in self.services.values())
        parts = [f"[t={self._last_event:.1f}s]"]
        if expected:
            pct = 100.0 * done / expected
            parts.append(f"progress {done}/{expected} ({pct:.0f}%)")
        else:
            parts.append(f"progress {done} items")
        parts.append(f"in-flight {in_flight}")
        parts.append(f"jobs {self.jobs_completed}/{self.jobs_started}")
        remaining = self.eta()
        if remaining is not None:
            parts.append(f"eta ~{remaining:.0f}s")
        if self.alerts:
            parts.append(f"alerts {len(self.alerts)}")
        return " ".join(parts)

    def _progress_tick(self, force: bool = False) -> None:
        if self.on_progress is None:
            return
        done = self.completed_items()
        if force or (done and done % self.progress_every == 0):
            self.on_progress(self.progress_line())

    # -- alert emission --------------------------------------------------
    def _emit(
        self,
        kind: str,
        time: float,
        subject: str,
        scope: str,
        message: str,
        severity: str = "warning",
        **attributes: Any,
    ) -> Alert:
        alert = Alert(
            kind=kind,
            time=time,
            subject=subject,
            scope=scope,
            severity=severity,
            message=message,
            sequence=len(self.alerts),
            attributes=attributes,
        )
        self.alerts.append(alert)
        return publish_alert(alert, self.alert_sinks, self.bus)

    # -- health provider (the broker feedback hook) ----------------------
    #: added to a CE's load estimate per point of lost health score
    PENALTY_SCALE = 10.0

    def penalty(self, ce: str) -> float:
        """Ranking demotion: grows as the health score drops."""
        if not self.fleet.seen(ce):
            return 0.0
        health = self.fleet.health_of(ce)
        return self.PENALTY_SCALE * (1.0 - health.score)

    def blacklisted(self, ce: str) -> bool:
        """Flagged CEs (straggler or blackhole) are avoided when possible."""
        if not self.fleet.seen(ce):
            return False
        return self.fleet.health_of(ce).flagged

    def flagged_ces(self) -> List[str]:
        """Currently flagged CEs, first-seen order."""
        return [h.ce for h in self.fleet.table() if h.flagged]

    # -- reporting -------------------------------------------------------
    def health_table(self) -> List[CEHealth]:
        """Per-CE health summaries, first-seen order."""
        return self.fleet.table()

    def sorted_alerts(self) -> List[Alert]:
        """All alerts in (time, sequence) order."""
        return sorted(self.alerts, key=alert_sort_key)

    def alert_counts(self) -> Dict[str, int]:
        """``kind -> count`` over everything raised so far."""
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.kind] = counts.get(alert.kind, 0) + 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """A plain-dict snapshot (stable keys, JSON-serializable)."""
        return {
            "completed_items": self.completed_items(),
            "expected_items": self.expected_total(),
            "elapsed": self.elapsed,
            "jobs": {
                "started": self.jobs_started,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
            },
            "alerts": self.alert_counts(),
            "flagged_ces": self.flagged_ces(),
            "health": {
                h.ce: round(h.score, 6) for h in self.health_table()
            },
        }
