"""The enactment service: N concurrent workflow runs on one shared grid.

:class:`EnactmentService` is the control plane's middle layer.  It owns
the simulation substrate — one :class:`~repro.sim.engine.Engine`, one
shared testbed :class:`~repro.grid.middleware.Grid` — and multiplexes
up to ``max_concurrent_runs`` simultaneous
:class:`~repro.core.enactor.MoteurEnactor` enactments over it, one per
admitted run.  Decisions (who runs next, quota headroom, fair share)
are delegated to the pure functions in :mod:`repro.service.logic`;
persistence to a :class:`~repro.service.store.StateStore`.

Concurrency model
-----------------
The discrete-event engine is cooperative and single-owner: exactly one
thread steps it.  The service therefore serializes everything — API
calls *and* scheduler progress — under one re-entrant lock, and the
optional background worker (:meth:`start`) is a single thread that
repeatedly calls :meth:`tick`.  Submissions from any thread are safe;
run concurrency comes from the enactors interleaving on the engine,
not from Python threads racing the simulation.

Every admitted run gets its own :class:`~repro.util.rng.RandomStreams`
seeded from the run record, its own enactor with
``claim_run_span=False`` and ``run_attributes={"tenant", "run"}``, and
(with a durable store) its own enactment journal — so a killed and
restarted service re-admits in-flight runs with ``resume=True`` and
reproduces the exact same outputs (input-keyed application RNG, see
``repro.apps.registration``).

Control-plane observability
---------------------------
Every scheduler decision is recorded as an
:class:`~repro.observability.ops.audit.AuditEvent` through the store
(which assigns the sequence numbers making the trail byte-identical
across same-seed services) and fanned out to the always-on
:class:`~repro.observability.ops.rollup.ControlPlaneTelemetry` and the
:class:`~repro.observability.ops.slo.SLOTracker`.  Admission events
carry the full :class:`~repro.service.logic.AdmissionDecision` payload
(fair-share scores, usage and provisional charges *at decision time*);
quota blocks are audited on reason transitions only.  Cheap wall-clock
profiling around :meth:`tick` feeds :meth:`perf_counters` — engine
events/sec, µs per invocation, mean tick latency — which land in every
run's runstore row.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.apps.bronze_standard import BRONZE_CRITICAL_PATH, BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.core.enactor import EnactmentCancelled, MoteurEnactor
from repro.core.journal import EnactmentJournal
from repro.grid.job import JobState
from repro.grid.middleware import Grid
from repro.grid.testbeds import (
    cluster_testbed,
    egee_like_testbed,
    faulty_testbed,
    ideal_testbed,
)
from repro.observability import InstrumentationBus
from repro.observability.alerts import Alert
from repro.observability.ops.audit import AuditEvent
from repro.observability.ops.rollup import ControlPlaneTelemetry
from repro.observability.ops.slo import SLO, SLOTracker
from repro.observability.profiling import Profiler, profile_counters, wall_clock
from repro.observability.runstore import RunStore, summarize_run
from repro.service.logic import (
    FairShareLedger,
    RunRecord,
    RunState,
    TenantSpec,
    pick_next_explained,
)
from repro.service.store import StateStore
from repro.sim.engine import Engine, Event
from repro.util.rng import RandomStreams

__all__ = ["EnactmentService", "EnactmentServiceError", "TESTBEDS"]

#: named testbed factories the service can host runs on
TESTBEDS: Dict[str, Callable[[Engine, RandomStreams], Grid]] = {
    "ideal": ideal_testbed,
    "cluster": cluster_testbed,
    "egee": egee_like_testbed,
    "faulty": faulty_testbed,
}


class EnactmentServiceError(RuntimeError):
    """A control-plane operation failed (unknown tenant, bad config...)."""


@dataclass
class _ActiveRun:
    """Bookkeeping for one run currently executing on the engine."""

    record: RunRecord
    enactor: MoteurEnactor
    completion: Event


def _outputs_digest(result) -> str:
    """A stable digest of a run's sink outputs (restart-identity checks)."""
    payload = {
        sink: [str(value) for value in result.output_values(sink)]
        for sink in sorted(result.outputs)
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class EnactmentService:
    """Run many workflows for many tenants over one shared grid.

    Parameters
    ----------
    store:
        Control-plane persistence (:class:`InMemoryStateStore` for
        ephemeral use, :class:`SQLiteStateStore` for crash safety).
    policy:
        Admission ordering: ``"fair-share"`` (default) or ``"fifo"``.
    max_concurrent_runs:
        Global cap on simultaneously executing enactments (the worker
        pool size); per-tenant caps come from each tenant's spec.
    testbed:
        Name from :data:`TESTBEDS` or a ``(engine, streams) -> Grid``
        factory.  All runs share this one grid.
    seed:
        Seed for the grid's *environment* randomness (overheads,
        faults, background load).  Per-run randomness comes from each
        run's own seed.
    runstore:
        Optional :class:`~repro.observability.runstore.RunStore`; each
        completed run lands there as a summary row tagged
        ``service tenant=<t> run=<id>``.
    instrumentation:
        Optional shared :class:`InstrumentationBus`; spans and metrics
        from every layer carry ``tenant``/``run`` attributes.
    half_life, nominal_makespan:
        Fair-share tuning: usage decay half-life (simulated seconds)
        and the provisional charge assumed for an active run of a
        tenant with no completed history yet.
    slos:
        Objectives for the built-in :class:`SLOTracker` (defaults to
        :func:`~repro.observability.ops.slo.default_slos`).
    alert_sinks:
        Callables invoked with each ``slo-burn``
        :class:`~repro.observability.alerts.Alert` as it fires (e.g. a
        :class:`~repro.observability.alerts.JsonlAlertWriter`).
    """

    def __init__(
        self,
        store: StateStore,
        policy: str = "fair-share",
        max_concurrent_runs: int = 4,
        testbed: "str | Callable[[Engine, RandomStreams], Grid]" = "cluster",
        seed: int = 0,
        runstore: Optional[RunStore] = None,
        instrumentation: Optional[InstrumentationBus] = None,
        half_life: float = 4 * 3600.0,
        nominal_makespan: float = 600.0,
        slos: Optional[List[SLO]] = None,
        alert_sinks: Optional[List[Callable[[Alert], None]]] = None,
        profiler: Optional[Profiler] = None,
    ) -> None:
        self.store = store
        self.policy = policy
        self.max_concurrent_runs = max_concurrent_runs
        self.runstore = runstore
        self.instrumentation = instrumentation
        self.nominal_makespan = nominal_makespan
        self.engine = Engine()
        if callable(testbed):
            factory = testbed
        else:
            try:
                factory = TESTBEDS[testbed]
            except KeyError:
                raise EnactmentServiceError(
                    f"unknown testbed {testbed!r}; options: {sorted(TESTBEDS)}"
                ) from None
        self.grid = factory(self.engine, RandomStreams(seed=seed))
        if instrumentation is not None and self.grid.instrumentation is None:
            self.grid.instrumentation = instrumentation
        self.ledger = FairShareLedger(
            half_life=half_life, initial=store.load_usage()
        )
        self._configs = {
            c.label: c for c in OptimizationConfig.paper_configurations()
        }
        self._lock = threading.RLock()
        self._active: Dict[str, _ActiveRun] = {}
        #: completed makespans per tenant (provisional fair-share charge)
        self._makespans: Dict[str, List[float]] = {}
        self._dirty = True  # queue may hold admissible work
        self._thread: Optional[threading.Thread] = None
        self._stop_flag = threading.Event()
        #: live per-tenant rollups, fed by spans and audit events
        self.telemetry = ControlPlaneTelemetry()
        if instrumentation is not None:
            instrumentation.subscribe(self.telemetry)
        #: incremental SLO evaluation; burns route through alert_sinks
        #: and (when a bus is attached) the monitor.alerts.* gate
        self.slo_tracker = SLOTracker(
            slos=slos,
            telemetry=self.telemetry,
            bus=instrumentation,
            alert_sinks=alert_sinks,
        )
        #: run_id -> last audited quota-block reason (transition dedup)
        self._blocked_reasons: Dict[str, str] = {}
        #: wall-clock profiling (throughput counters; see perf_counters)
        self._wall_seconds = 0.0
        self._tick_count = 0
        self._invocations_total = 0
        #: optional hot-path profiler; its hook is active inside tick()
        self.profiler = profiler

    # -- audit trail -------------------------------------------------------
    def _audit(
        self,
        kind: str,
        run_id: str,
        tenant: str,
        message: str = "",
        **attributes: Any,
    ) -> AuditEvent:
        """Record one control-plane decision (store + telemetry + SLOs).

        The store assigns the sequence number; the stored event is fed
        to the live rollups, the SLO tracker is re-evaluated, and —
        when a bus is attached — an instant ``audit.<kind>`` span is
        emitted so control-plane decisions appear on the trace
        timeline next to the data-plane work they explain.
        """
        now = self.engine.now
        event = self.store.append_audit(
            AuditEvent(
                kind=kind,
                time=now,
                run_id=run_id,
                tenant=tenant,
                message=message,
                attributes=attributes,
            )
        )
        self.telemetry.on_audit(event)
        self.slo_tracker.update(now)
        if self.instrumentation is not None:
            self.instrumentation.record(
                f"audit.{kind}",
                "service",
                now,
                now,
                run_id=run_id,
                tenant=tenant,
                message=message,
                sequence=event.sequence,
            )
        return event

    def audit(self, run_id: Optional[str] = None) -> List[AuditEvent]:
        """The persisted audit trail (optionally for one run)."""
        return self.store.audit_events(run_id=run_id)

    # -- tenants -----------------------------------------------------------
    def add_tenant(self, spec: TenantSpec) -> TenantSpec:
        """Register (or update) a tenant."""
        with self._lock:
            self.store.upsert_tenant(spec)
            self._dirty = True
        return spec

    def tenants(self) -> Dict[str, TenantSpec]:
        return self.store.tenants()

    # -- submission --------------------------------------------------------
    def submit(
        self,
        tenant: str,
        workload: str = "bronze",
        n_items: int = 2,
        config_label: str = "SP+DP",
        seed: Optional[int] = None,
        not_before: float = 0.0,
    ) -> RunRecord:
        """Accept a run for *tenant*; returns the QUEUED record.

        Validation happens here (unknown tenant, workload or
        configuration label are rejected); quota enforcement happens at
        admission — an over-quota run waits in the queue.
        """
        with self._lock:
            if workload != "bronze":
                raise EnactmentServiceError(
                    f"unknown workload {workload!r}; this service runs 'bronze'"
                )
            if config_label not in self._configs:
                raise EnactmentServiceError(
                    f"unknown configuration {config_label!r}; "
                    f"options: {sorted(self._configs)}"
                )
            if n_items < 1:
                raise EnactmentServiceError(f"n_items must be >= 1, got {n_items}")
            if tenant not in self.store.tenants():
                raise EnactmentServiceError(f"unknown tenant {tenant!r}")
            seq = self.store.next_run_seq()
            run = RunRecord(
                run_id=f"svc-{seq:04d}",
                tenant=tenant,
                workload=workload,
                n_items=n_items,
                config_label=config_label,
                seed=seed if seed is not None else seq,
                state=RunState.SUBMITTED,
                seq=seq,
                not_before=not_before,
                jobs_estimate=BronzeStandardApplication.jobs_per_pair() * n_items,
                submitted_at=self.engine.now,
            )
            run = run.advance(RunState.QUEUED)
            self.store.put_run(run)
            self._dirty = True
            spec = self.store.tenants()[tenant]
            self._audit(
                "submit",
                run.run_id,
                tenant,
                message=f"{workload} x{n_items} ({config_label})",
                n_items=n_items,
                config_label=config_label,
                seed=run.seed,
                not_before=not_before,
                jobs_estimate=run.jobs_estimate,
                weight=spec.weight,
            )
            return run

    def status(self, run_id: str) -> RunRecord:
        """The current record for *run_id* (raises if unknown)."""
        run = self.store.get_run(run_id)
        if run is None:
            raise EnactmentServiceError(f"unknown run {run_id!r}")
        return run

    def runs(self, states: Optional[List[RunState]] = None) -> List[RunRecord]:
        return self.store.runs(states=states)

    # -- cancellation ------------------------------------------------------
    def cancel(self, run_id: str, reason: str = "cancelled by user") -> RunRecord:
        """Cancel a queued or running run.

        A queued run goes terminal immediately.  A running run is
        cancelled through its enactor — queued grid jobs are withdrawn
        with ``resubmit=False`` (capacity back to the other tenants)
        and the terminal record lands at the next engine step; this
        method performs that step so the returned record is terminal.
        Cancelling an already-terminal run is a no-op.
        """
        with self._lock:
            run = self.status(run_id)
            if run.state.terminal:
                return run
            if run.state is RunState.QUEUED:
                run = run.advance(RunState.CANCELLED)
                run.finished_at = self.engine.now
                run.error = reason
                self.store.put_run(run)
                self._dirty = True
                self._audit("cancel", run_id, run.tenant, message=reason, was="queued")
                self._audit(
                    "finish", run_id, run.tenant,
                    message=f"cancelled while queued: {reason}",
                    state="cancelled", error=reason, **{"from": "queued"},
                )
                return run
            active = self._active.get(run_id)
            if active is None:
                # Orphan: a previous (killed) service left it RUNNING.
                # Nothing is executing, so the record just goes terminal.
                run = run.advance(RunState.CANCELLED)
                run.finished_at = self.engine.now
                run.error = reason
                self.store.put_run(run)
                self._audit("cancel", run_id, run.tenant, message=reason, was="orphan")
                self._audit(
                    "finish", run_id, run.tenant,
                    message=f"orphan cancelled: {reason}",
                    state="cancelled", error=reason, **{"from": "running"},
                )
                return run
            self._audit("cancel", run_id, run.tenant, message=reason, was="running")
            active.enactor.cancel(reason)
            # The failed completion event is on the heap; step until the
            # harvest callback records the terminal state.
            while run_id in self._active and self.engine.peek() != float("inf"):
                self.engine.step()
            return self.status(run_id)

    # -- scheduling --------------------------------------------------------
    def _running_by_tenant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for active in self._active.values():
            counts[active.record.tenant] = counts.get(active.record.tenant, 0) + 1
        return counts

    def _jobs_by_tenant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for active in self._active.values():
            record = active.record
            counts[record.tenant] = counts.get(record.tenant, 0) + record.jobs_estimate
        return counts

    def _typical_makespan(self, tenant: str) -> float:
        history = self._makespans.get(tenant)
        if not history:
            return self.nominal_makespan
        return sum(history) / len(history)

    def _provisional(self) -> Dict[str, float]:
        charges: Dict[str, float] = {}
        for tenant, running in self._running_by_tenant().items():
            charges[tenant] = running * self._typical_makespan(tenant)
        return charges

    def _admit(self) -> int:
        """Admit eligible queued runs into free slots; returns how many."""
        if not self._dirty or len(self._active) >= self.max_concurrent_runs:
            return 0
        admitted = 0
        specs = self.store.tenants()
        queued = self.store.runs(states=[RunState.QUEUED])
        blocked_now: Dict[str, str] = {}
        while len(self._active) < self.max_concurrent_runs:
            decision = pick_next_explained(
                queued,
                specs,
                self._running_by_tenant(),
                self._jobs_by_tenant(),
                self.ledger,
                self.engine.now,
                policy=self.policy,
                provisional=self._provisional(),
            )
            blocked_now = dict(decision.blocked)
            pick = decision.pick
            if pick is None:
                break
            queued.remove(pick)
            self._start(pick)
            self._audit(
                "admit",
                pick.run_id,
                pick.tenant,
                message=f"admitted under {self.policy}",
                wait=max(0.0, self.engine.now - pick.submitted_at),
                **decision.to_attributes(),
            )
            admitted += 1
        # Quota blocks are audited on reason *transitions* only, so a
        # starved run produces one event per cause, not one per tick.
        for run_id, reason in sorted(blocked_now.items()):
            if self._blocked_reasons.get(run_id) != reason:
                record = next((r for r in queued if r.run_id == run_id), None)
                self._audit(
                    "quota-block",
                    run_id,
                    record.tenant if record is not None else "",
                    message=reason,
                )
        self._blocked_reasons = blocked_now
        if not queued:
            self._dirty = False
        return admitted

    def _start(self, run: RunRecord) -> None:
        """Launch *run* on the shared engine (QUEUED -> RUNNING)."""
        record = run.advance(RunState.RUNNING)
        record.started_at = self.engine.now
        streams = RandomStreams(seed=record.seed)
        app = BronzeStandardApplication(
            self.engine,
            self.grid,
            streams,
            owner=record.tenant,
            tags={"tenant": record.tenant, "run": record.run_id},
        )
        dataset = app.build_dataset(record.n_items)
        journal_path = self.store.journal_path(record.run_id)
        replay = None
        if record.resume and journal_path and os.path.exists(journal_path):
            replay = EnactmentJournal(journal_path).load()
        enactor = MoteurEnactor(
            self.engine,
            app.workflow,
            self._configs[record.config_label],
            grid=self.grid,
            instrumentation=self.instrumentation,
            journal=journal_path,
            run_attributes={"tenant": record.tenant, "run": record.run_id},
            claim_run_span=False,
        )
        completion = enactor.enact(dataset, replay=replay)
        # The scheduler harvests failures via callback; an undefused
        # failed event would crash the shared engine for every run.
        completion.defused = True
        completion.callbacks.append(
            lambda event, run_id=record.run_id: self._harvest(run_id, event)
        )
        self._active[record.run_id] = _ActiveRun(
            record=record, enactor=enactor, completion=completion
        )
        self.store.put_run(record)

    def _harvest(self, run_id: str, event: Event) -> None:
        """Record a completed enactment (engine callback, under lock)."""
        active = self._active.pop(run_id, None)
        if active is None:  # pragma: no cover - double-fire guard
            return
        record = active.record
        now = self.engine.now
        record.finished_at = now
        job_records = [r for r in self.grid.records if r.description.tags.get("run") == run_id]
        jobs = len(job_records)
        if event.ok:
            result = event.value
            record = record.advance(RunState.DONE)
            record.result = {
                "makespan": result.makespan,
                "invocations": result.invocation_count,
                "replayed": result.replayed_count,
                "grid_jobs": jobs,
                "outputs_digest": _outputs_digest(result),
            }
            makespan = result.makespan
            self._makespans.setdefault(record.tenant, []).append(makespan)
            self._invocations_total += result.invocation_count
            if self.runstore is not None:
                summary = summarize_run(
                    result,
                    records=[r for r in job_records if r.state is JobState.DONE],
                    processors=list(BRONZE_CRITICAL_PATH),
                    n_items=record.n_items,
                    seed=record.seed,
                    note=f"service tenant={record.tenant} run={run_id}",
                )
                summary.counters.update(self.perf_counters())
                if self.profiler is not None:
                    # Service-lifetime totals, like the other perf.*
                    # counters: runs interleave on one engine, so
                    # per-run attribution is not meaningful here.
                    summary.counters.update(
                        profile_counters(self.profiler.snapshot())
                    )
                self.runstore.append(summary)
        else:
            error = event.value
            if isinstance(error, EnactmentCancelled):
                record = record.advance(RunState.CANCELLED)
                record.error = error.reason
                record.result = {
                    "cancelled_jobs": error.report.cancelled_jobs,
                    "grid_jobs": jobs,
                }
            else:
                record = record.advance(RunState.FAILED)
                record.error = str(error)
                record.result = {"grid_jobs": jobs}
            # A failed/cancelled run still consumed capacity: charge the
            # time it actually occupied a slot.
            makespan = now - (record.started_at or now)
        self.ledger.charge(record.tenant, makespan, now)
        self.store.save_usage(self.ledger.snapshot())
        self.store.put_run(record)
        self._dirty = True
        self._blocked_reasons.pop(run_id, None)
        self._audit(
            "finish",
            run_id,
            record.tenant,
            message=f"run went {record.state.value}",
            state=record.state.value,
            makespan=record.result.get("makespan") if record.result else None,
            error=record.error,
            grid_jobs=jobs,
            charged=makespan,
            usage=self.ledger.usage(record.tenant, now),
            **{"from": "running"},
        )

    # -- progress ----------------------------------------------------------
    def tick(self, max_events: int = 500) -> int:
        """Make bounded progress; returns units of work done.

        One call admits eligible runs, processes up to *max_events*
        engine events, and — when the service is otherwise idle but
        queued runs have a future ``not_before`` — advances the clock
        to the earliest one.  Returns 0 only when there is genuinely
        nothing to do right now.
        """
        profiling = nullcontext() if self.profiler is None else self.profiler.active()
        with self._lock, profiling:
            wall_start = wall_clock()
            progress = self._admit()
            steps = 0
            while steps < max_events and self.engine.peek() != float("inf"):
                self.engine.step()
                steps += 1
            progress += steps
            if progress == 0 and not self._active:
                queued = self.store.runs(states=[RunState.QUEUED])
                future = [r.not_before for r in queued if r.not_before > self.engine.now]
                if future:
                    self.engine.run(until=min(future))
                    self._dirty = True
                    progress += 1
            self._wall_seconds += wall_clock() - wall_start
            self._tick_count += 1
            return progress

    def drain(self, max_ticks: int = 1_000_000) -> List[RunRecord]:
        """Run until every submitted run is terminal; returns all records.

        Raises when the service stops making progress with queued runs
        that can never be admitted (e.g. a tenant quota smaller than
        any of its submissions).
        """
        with self._lock:
            for _ in range(max_ticks):
                progress = self.tick()
                if progress:
                    continue
                queued = self.store.runs(states=[RunState.QUEUED])
                if not queued and not self._active:
                    return self.store.runs()
                raise EnactmentServiceError(
                    f"service is stuck: {len(queued)} queued run(s) cannot be "
                    f"admitted and {len(self._active)} active run(s) make no "
                    "progress (check tenant quotas)"
                )
            raise EnactmentServiceError(f"drain() exceeded {max_ticks} ticks")

    # -- crash recovery ----------------------------------------------------
    def recover(self) -> List[RunRecord]:
        """Re-queue runs a previous (killed) service left non-terminal.

        RUNNING runs come back with ``resume=True`` so admission
        replays their enactment journal — completed invocations cost
        zero grid jobs and the final outputs are identical to what the
        uninterrupted run would have produced.
        """
        requeued: List[RunRecord] = []
        with self._lock:
            for run in self.store.runs(
                states=[RunState.SUBMITTED, RunState.RUNNING]
            ):
                if run.run_id in self._active:
                    continue  # actually active here, not an orphan
                record = replace(
                    run,
                    state=RunState.QUEUED,
                    resume=run.resume or run.state is RunState.RUNNING,
                    started_at=None,
                    finished_at=None,
                    error=None,
                )
                self.store.put_run(record)
                requeued.append(record)
                self._audit(
                    "recover",
                    record.run_id,
                    record.tenant,
                    message=f"orphan re-queued (was {run.state.value})",
                    resume=record.resume,
                    was=run.state.value,
                )
            if requeued:
                self._dirty = True
        return requeued

    # -- background worker -------------------------------------------------
    def start(self, poll: float = 0.005) -> None:
        """Run the scheduler loop in a daemon thread until :meth:`stop`."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop_flag.clear()
            self._thread = threading.Thread(
                target=self._worker, args=(poll,), name="enactment-service", daemon=True
            )
            self._thread.start()

    def _worker(self, poll: float) -> None:
        while not self._stop_flag.is_set():
            if self.tick() == 0:
                self._stop_flag.wait(poll)

    def stop(self) -> None:
        """Stop the background worker (idempotent; joins the thread)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_flag.set()
        thread.join()
        self._thread = None

    # -- introspection -----------------------------------------------------
    def perf_counters(self) -> Dict[str, float]:
        """Wall-clock throughput counters (the ``perf.*`` keys).

        Sampled from cheap accumulators around :meth:`tick` — engine
        events processed per wall-clock second, wall-clock µs per
        completed invocation, and mean tick latency in ms.  These are
        *profiling* numbers: nondeterministic by nature, merged into
        every runstore row, and regression-gated only when
        ``compare-runs --budget-throughput`` is given.  The engine's
        deterministic lifetime counters (``engine.*``: events
        scheduled/processed, peak heap size, cancelled events) ride
        along.
        """
        with self._lock:
            wall = self._wall_seconds
            events = self.engine.events_processed
            out = {
                "perf.events": float(events),
                "perf.ticks": float(self._tick_count),
                "perf.wall_seconds": round(wall, 6),
            }
            if wall > 0:
                out["perf.events_per_sec"] = round(events / wall, 3)
            if self._tick_count:
                out["perf.tick_ms"] = round(1000.0 * wall / self._tick_count, 6)
            if self._invocations_total and wall > 0:
                out["perf.us_per_invocation"] = round(
                    1e6 * wall / self._invocations_total, 3
                )
            out.update(self.engine.counters())
            return out

    def close(self) -> None:
        """Stop the worker and release the store."""
        self.stop()
        self.store.close()
