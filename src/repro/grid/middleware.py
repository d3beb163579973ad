"""The middleware façade: how users (and services) talk to the grid.

:class:`Grid` bundles the whole infrastructure — sites, broker, replica
catalog, network, overhead/fault models — behind the two operations the
service layer needs:

* :meth:`Grid.submit` — submit a :class:`~repro.grid.job.JobDescription`
  and get a :class:`SubmissionHandle` whose ``completion`` event fires
  when the job is done (the LCG2 submit-then-poll cycle, collapsed into
  an event the enactor can wait on), and
* :meth:`Grid.add_input_file` — register input data on a storage
  element (the equivalent of ``lcg-cr`` publishing a file under a GFN).

The job lifecycle implemented by :meth:`Grid._run_job`, per attempt::

    SUBMITTED --submission latency--> (at the broker)
    --brokering latency, broker slot held--> MATCHED at some CE
    [fault?] --detection delay--> FAILED, maybe resubmit
    --CE batch queue (+ queue_extra residency)--> RUNNING
    --stage-in + execute + stage-out--> done on CE
    --completion notification--> DONE

All timestamps land in the job's :class:`~repro.grid.job.JobRecord`,
which the experiment harness mines for overhead/makespan statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.grid.broker import ResourceBroker
from repro.grid.faults import DurabilityFaultModel, FaultModel, OutageSchedule
from repro.grid.job import (
    JobCancelledError,
    JobDescription,
    JobFailedError,
    JobRecord,
    JobState,
)
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site
from repro.grid.retry import RetryBudget, RetryPolicy
from repro.grid.storage import (
    LogicalFile,
    ReplicaCatalog,
    ReplicaUnavailableError,
    StorageElement,
)
from repro.grid.transfer import NetworkModel
from repro.observability.bus import InstrumentationBus
from repro.observability.spans import Span
from repro.sim.engine import Engine, Event
from repro.util.rng import RandomStreams

__all__ = ["Grid", "SubmissionHandle", "TransferContext", "TransferFailedError"]

#: the purposes a data-plane transfer can serve (see TransferContext)
TRANSFER_PURPOSES = ("stage-in", "stage-out", "intermediate", "cache-refill", "repair")


class TransferFailedError(RuntimeError):
    """A stage-in/out exhausted its transfer retry budget.

    Live replicas still exist (otherwise the failure would be a
    :class:`~repro.grid.storage.ReplicaUnavailableError`): the *network*
    gave up, not the storage.  Carried by the failing job's completion
    so failure reports can tell a transfer storm from data death.
    """

    def __init__(self, gfn: str, attempts: int, last_error: str) -> None:
        self.gfn = gfn
        self.attempts = attempts
        super().__init__(
            f"transfer of {gfn!r} failed after {attempts} attempts: {last_error}"
        )


@dataclass(frozen=True)
class TransferContext:
    """What the data plane knows about the transfer it is timing.

    The raw :class:`~repro.grid.transfer.NetworkModel` observer only
    sees ``(src, dst, size, seconds)``; the grid publishes this context
    on :attr:`Grid.transfer_context` for the duration of each
    ``transfer_time`` evaluation so observers (the data-flow collector,
    the grid's own metrics hook) can attribute the bytes — which GFN
    moved, why (``stage-in`` of a primary input, ``intermediate``
    stage-in of an enactor-minted file, ``stage-out`` of a produced
    file, ``cache-refill`` of a file re-advertised from the result
    cache), and on behalf of which job / tenant / run.
    """

    purpose: str
    gfn: str
    job_id: Optional[int] = None
    service: Optional[str] = None
    tenant: Optional[str] = None
    run: Optional[str] = None


class SubmissionHandle:
    """What a submitter holds after :meth:`Grid.submit`.

    ``completion`` succeeds with the :class:`JobRecord` when the job
    reaches DONE, and fails with :class:`JobFailedError` if every
    attempt failed.
    """

    def __init__(self, record: JobRecord, completion: Event) -> None:
        self.record = record
        self.completion = completion

    @property
    def job_id(self) -> int:
        """The underlying job id."""
        return self.record.job_id

    def __repr__(self) -> str:
        return f"<SubmissionHandle job={self.record.name!r} state={self.record.state.value}>"


class Grid:
    """Façade over the whole simulated infrastructure."""

    def __init__(
        self,
        engine: Engine,
        streams: RandomStreams,
        sites: List[Site],
        overhead: OverheadModel,
        network: Optional[NetworkModel] = None,
        faults: Optional[FaultModel] = None,
        broker_strategy: str = "least-loaded",
        broker_concurrency: "int | float" = float("inf"),
        overhead_load_coupling: float = 0.0,
        name: str = "grid",
        instrumentation: Optional[InstrumentationBus] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
        outages: Optional[OutageSchedule] = None,
        durability: Optional[DurabilityFaultModel] = None,
        transfer_retry: Optional[RetryPolicy] = None,
        repair_target: int = 1,
        repair_interval: float = 300.0,
    ) -> None:
        if not sites:
            raise ValueError("a grid needs at least one site")
        self.engine = engine
        self.streams = streams
        self.name = name
        self.sites = list(sites)
        self.overhead = overhead
        if not 0.0 <= overhead_load_coupling <= 1.0:
            raise ValueError(
                f"overhead_load_coupling must be in [0, 1], got {overhead_load_coupling}"
            )
        #: 0 = overheads independent of load; 1 = brokering/queue phases
        #: fully proportional to grid utilization (see load_factor()).
        self.overhead_load_coupling = overhead_load_coupling
        self.network = network if network is not None else NetworkModel()
        self.faults = faults if faults is not None else FaultModel.none()
        #: resubmission policy; the default reproduces the bare
        #: immediate-resubmit loop bounded by the fault model's cap
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy.default()
        #: run-wide / per-service retry allowance (unlimited by default)
        self.retry_budget = retry_budget if retry_budget is not None else RetryBudget.unlimited()
        #: deterministic down/up timeline for sites, CEs, and SEs
        self.outages = outages if outages is not None else OutageSchedule.none()
        #: replica loss/corruption injection on stage-in accesses
        self.durability = durability if durability is not None else DurabilityFaultModel.none()
        #: backoff policy for failed *transfers* (distinct from job retries)
        self.transfer_retry = (
            transfer_retry
            if transfer_retry is not None
            else RetryPolicy.exponential(base_delay=5.0, max_delay=120.0, max_attempts=4)
        )
        if repair_target < 1:
            raise ValueError(f"repair_target must be >= 1, got {repair_target}")
        if repair_interval <= 0:
            raise ValueError(f"repair_interval must be > 0, got {repair_interval}")
        #: desired healthy replicas per GFN (1 = repair daemon off)
        self.repair_target = repair_target
        self.repair_interval = repair_interval
        self.catalog = ReplicaCatalog()
        self.computing_elements: List[ComputingElement] = []
        self._storage_by_site: Dict[str, StorageElement] = {}
        for site in self.sites:
            for ce in site.computing_elements:
                ce.grid = self
                self.computing_elements.append(ce)
            self._storage_by_site[site.name] = site.storage_element
        self.broker = ResourceBroker(
            engine,
            self.computing_elements,
            rng=streams.get("broker"),
            strategy=broker_strategy,
            concurrency=broker_concurrency,
        )
        #: every record ever submitted through this façade, submission order
        self.records: List[JobRecord] = []
        self._in_flight = 0
        #: instrumentation bus; also set by an enactor that shares one
        self.instrumentation = instrumentation
        #: hot-path profiler (repro.observability.profiling); None = off
        self.profiler = None
        #: job_id -> currently open job.attempt span (CE staging parents here)
        self._attempt_spans: Dict[int, Span] = {}
        #: published attribution for the transfer currently being timed
        #: (see TransferContext); None outside stage-in/out evaluations
        self.transfer_context: Optional[TransferContext] = None
        #: GFNs minted by job stage-out (enactor-produced intermediates)
        self._minted_gfns: Set[str] = set()
        #: GFNs re-advertised from the result cache (warm-run refills)
        self._refill_gfns: Set[str] = set()
        # Observational hooks (multicast: they compose with any observer
        # a user installed before or installs after; they check the bus
        # at call time, so wiring instrumentation later works).
        self.network.add_observer(self._observe_transfer)
        self.catalog.add_observer(self._observe_register)
        total_slots = 0.0
        for ce in self.computing_elements:
            capacity = ce.total_slots
            if capacity == float("inf"):
                total_slots = float("inf")
                break
            total_slots += capacity
        self._total_slots = total_slots
        # Chaos background processes are spawned only when their feature
        # is actually configured: an extra process on a quiet grid would
        # renumber engine events and shift every seeded baseline.
        if not self.outages.empty:
            engine.process(self._outage_beacon(), name=f"{name}:outage-beacon")
        if self.repair_target > 1:
            engine.process(self._repair_loop(), name=f"{name}:replica-repair")

    # -- data management -------------------------------------------------
    @property
    def default_site(self) -> Site:
        """Where un-sited inputs are registered (first site by convention)."""
        return self.sites[0]

    def storage_at(self, site_name: str) -> Optional[StorageElement]:
        """The SE at *site_name*, or None if that site has no storage."""
        return self._storage_by_site.get(site_name)

    def add_input_file(
        self,
        file: LogicalFile,
        site_name: Optional[str] = None,
        *,
        cache_refill: bool = False,
    ) -> None:
        """Register an input file replica on a storage element.

        ``cache_refill=True`` marks the file as re-advertised from a
        result cache (the enactor rehydrating a warm hit's outputs onto
        a fresh grid): later stage-ins of it are accounted under the
        ``cache-refill`` purpose instead of ``stage-in``.
        """
        target_site = site_name if site_name is not None else self.default_site.name
        se = self.storage_at(target_site)
        if se is None:
            raise ValueError(f"no storage element at site {target_site!r}")
        if cache_refill:
            self._refill_gfns.add(file.gfn)
        self.catalog.register(file, se)

    def _stage_in_purpose(self, gfn: str) -> str:
        if gfn in self._refill_gfns:
            return "cache-refill"
        if gfn in self._minted_gfns:
            return "intermediate"
        return "stage-in"

    def _transfer_attribution(
        self, purpose: str, gfn: str, record: Optional[JobRecord]
    ) -> TransferContext:
        if record is None:
            return TransferContext(purpose=purpose, gfn=gfn)
        tags = record.description.tags
        return TransferContext(
            purpose=purpose,
            gfn=gfn,
            job_id=record.job_id,
            service=str(tags.get("service", record.description.owner)),
            tenant=(str(tags["tenant"]) if "tenant" in tags else None),
            run=(str(tags["run"]) if "run" in tags else None),
        )

    def stage_in_time(
        self, gfn: str, site: str, record: Optional[JobRecord] = None
    ) -> float:
        """Seconds to pull *gfn* from its closest replica to *site*.

        *record* (the job staging the file) attributes the transfer in
        the published :attr:`transfer_context`.
        """
        file = self.catalog.lookup(gfn)
        replica = self.catalog.closest_replica(gfn, site)
        self.transfer_context = self._transfer_attribution(
            self._stage_in_purpose(gfn), gfn, record
        )
        try:
            return self.network.transfer_time(replica.site, site, file.size)
        finally:
            self.transfer_context = None

    def stage_out_time(
        self, file: LogicalFile, site: str, record: Optional[JobRecord] = None
    ) -> float:
        """Seconds to push a produced *file* from *site* to its SE.

        Outputs go to the local SE when the site has one (LAN cost),
        otherwise to the default site's SE (WAN cost).
        """
        se = self.storage_at(site)
        target_site = se.site if se is not None else self.default_site.name
        self.transfer_context = self._transfer_attribution("stage-out", file.gfn, record)
        try:
            return self.network.transfer_time(site, target_site, file.size)
        finally:
            self.transfer_context = None

    def register_output(self, file: LogicalFile, site: str) -> None:
        """Register a freshly produced file on the chosen SE."""
        se = self.storage_at(site)
        if se is None:
            se = self.default_site.storage_element
        self._minted_gfns.add(file.gfn)
        self.catalog.register(file, se)

    # -- data-plane chaos ---------------------------------------------------
    @property
    def chaos_enabled(self) -> bool:
        """True when any data-plane fault injection or repair is on.

        Computing elements switch from the legacy bulk staging path to
        the per-file retry/failover generators only under this flag, so
        every pre-chaos testbed keeps its exact seeded event sequence.
        """
        return (
            not self.outages.empty
            or self.durability.active
            or self.network.has_faults
            or self.repair_target > 1
        )

    def entity_down(self, entity_name: str, site_name: str, now: float) -> bool:
        """Is an entity down, directly or through its site's outage?"""
        return self.outages.is_down(entity_name, now) or self.outages.is_down(
            site_name, now
        )

    def entity_next_up(self, entity_name: str, site_name: str, now: float) -> float:
        """When both the entity and its site are next up (>= *now*)."""
        return max(
            self.outages.next_up(entity_name, now),
            self.outages.next_up(site_name, now),
        )

    def storage_down(self, se: StorageElement, now: Optional[float] = None) -> bool:
        """Is a storage element inside a down-window right now?"""
        when = self.engine.now if now is None else now
        return self.entity_down(se.name, se.site, when)

    def _counter(self, name: str, value: float = 1) -> None:
        bus = self.instrumentation
        if bus is not None:
            bus.metrics.counter(name).inc(value)

    def _chaos_span(self, name: str, start: float, **attributes) -> None:
        bus = self.instrumentation
        if bus is not None:
            bus.record(
                name,
                "grid",
                start,
                self.engine.now,
                parent=bus.run_span,
                status="error",
                **attributes,
            )

    def stage_in_process(self, gfn: str, site: str, record: Optional[JobRecord] = None):
        """Stage *gfn* in to *site* under chaos; generator, returns seconds.

        Walks the deterministic failover order over live verified
        replicas: replicas discovered lost are skipped in place,
        corrupted ones are quarantined after the (wasted) transfer,
        failed transfers back off per :attr:`transfer_retry`, and when
        every healthy replica sits behind an SE outage the stage-in
        simply waits the outage out (outages delay, only loss kills).
        Raises :class:`ReplicaUnavailableError` when no usable replica
        survives and :class:`TransferFailedError` when the retry budget
        runs dry — both contained by the job machinery.
        """
        engine = self.engine
        file = self.catalog.lookup(gfn)
        policy = self.transfer_retry
        max_attempts = policy.max_attempts if policy.max_attempts is not None else 4
        backoff_rng = self.streams.get("transfer-backoff")
        fault_rng = self.streams.get("transfer-faults")
        replica_rng = self.streams.get("replica-faults")
        network_faulty = self.network.has_faults
        durability_on = self.durability.active
        purpose = self._stage_in_purpose(gfn)
        sites_tried: List[str] = []
        elapsed = 0.0
        failures = 0
        last_error = "no transfer attempted"
        while True:
            ranked = self.catalog.failover_order(gfn, site)
            if not ranked:
                tried = sites_tried or [se.site for se in self.catalog.replicas(gfn)]
                raise ReplicaUnavailableError(gfn, tuple(dict.fromkeys(tried)))
            live = [se for se in ranked if not self.storage_down(se)]
            if not live:
                # Every healthy replica is behind an outage: wait for the
                # earliest one to come back, then re-evaluate.  Outage
                # windows are finite, so this terminates.
                resume = min(
                    self.entity_next_up(se.name, se.site, engine.now) for se in ranked
                )
                if resume <= engine.now:
                    continue
                self._counter("grid.transfer.outage_waits")
                yield engine.timeout(resume - engine.now)
                continue
            faulted = False
            for se in live:
                outcome = (
                    self.durability.access_outcome(replica_rng)
                    if durability_on
                    else "ok"
                )
                if outcome == "lost":
                    # Metadata says the replica exists but the bytes are
                    # gone — detected instantly, fail over in place.
                    se.mark_lost(gfn)
                    sites_tried.append(se.site)
                    self._counter("grid.replicas.lost")
                    self._chaos_span(
                        "replica.loss", engine.now, se=se.name, gfn=gfn
                    )
                    continue
                started = engine.now
                seconds = self.network.raw_transfer_time(
                    se.site, site, file.size, now=engine.now
                )
                if outcome == "corrupt":
                    # The copy completes, then checksum verification
                    # rejects it: time wasted, replica quarantined.
                    yield engine.timeout(seconds)
                    elapsed += seconds
                    se.quarantine(gfn)
                    sites_tried.append(se.site)
                    failures += 1
                    last_error = f"checksum mismatch from {se.name} (expected {file.checksum})"
                    self._counter("grid.replicas.quarantined")
                    self._chaos_span(
                        "replica.corruption", started, se=se.name, gfn=gfn
                    )
                    faulted = True
                    break
                if network_faulty and float(fault_rng.random()) < (
                    self.network.failure_probability_for(se.site, site)
                ):
                    # Mid-flight transfer failure: the time is spent, the
                    # bytes never land (so the ledger never sees them).
                    yield engine.timeout(seconds)
                    elapsed += seconds
                    sites_tried.append(se.site)
                    failures += 1
                    last_error = f"transfer from {se.name} to {site} failed"
                    self._counter("grid.transfer.failures")
                    self._chaos_span(
                        "transfer.fault", started, src=se.site, dst=site, gfn=gfn
                    )
                    faulted = True
                    break
                self.transfer_context = self._transfer_attribution(purpose, gfn, record)
                try:
                    seconds = self.network.transfer_time(
                        se.site, site, file.size, now=engine.now
                    )
                finally:
                    self.transfer_context = None
                yield engine.timeout(seconds)
                return elapsed + seconds
            if not faulted:
                # every live candidate was discovered lost; re-rank (the
                # next pass either finds a survivor or raises).
                continue
            if failures >= max_attempts:
                raise TransferFailedError(gfn, failures, last_error)
            self._counter("grid.transfer.retries")
            delay = policy.backoff(failures, backoff_rng)
            if delay > 0:
                yield engine.timeout(delay)

    def _stage_out_target(self, site: str, now: float) -> Optional[StorageElement]:
        """The SE a produced file goes to under chaos: the local SE,
        else the default site's, else the first live SE by name; None
        when every SE is down."""
        ordered: List[StorageElement] = []
        local = self.storage_at(site)
        if local is not None:
            ordered.append(local)
        default = self.default_site.storage_element
        if default not in ordered:
            ordered.append(default)
        for se in sorted(self._storage_by_site.values(), key=lambda s: s.name):
            if se not in ordered:
                ordered.append(se)
        for se in ordered:
            if not self.storage_down(se, now):
                return se
        return None

    def stage_out_process(self, file: LogicalFile, site: str, record: Optional[JobRecord] = None):
        """Stage a produced *file* out from *site* under chaos; generator.

        Fails over to the default site's SE (then any live SE) when the
        local one is down, retries failed transfers with backoff, and
        registers the file on the SE that actually received it.
        Returns the seconds spent.
        """
        engine = self.engine
        policy = self.transfer_retry
        max_attempts = policy.max_attempts if policy.max_attempts is not None else 4
        backoff_rng = self.streams.get("transfer-backoff")
        fault_rng = self.streams.get("transfer-faults")
        network_faulty = self.network.has_faults
        elapsed = 0.0
        failures = 0
        last_error = "no transfer attempted"
        while True:
            target = self._stage_out_target(site, engine.now)
            if target is None:
                resume = min(
                    self.entity_next_up(se.name, se.site, engine.now)
                    for se in self._storage_by_site.values()
                )
                if resume <= engine.now:
                    continue
                self._counter("grid.transfer.outage_waits")
                yield engine.timeout(resume - engine.now)
                continue
            started = engine.now
            seconds = self.network.raw_transfer_time(
                site, target.site, file.size, now=engine.now
            )
            if network_faulty and float(fault_rng.random()) < (
                self.network.failure_probability_for(site, target.site)
            ):
                yield engine.timeout(seconds)
                elapsed += seconds
                failures += 1
                last_error = f"transfer from {site} to {target.name} failed"
                self._counter("grid.transfer.failures")
                self._chaos_span(
                    "transfer.fault", started, src=site, dst=target.site, gfn=file.gfn
                )
                if failures >= max_attempts:
                    raise TransferFailedError(file.gfn, failures, last_error)
                self._counter("grid.transfer.retries")
                delay = policy.backoff(failures, backoff_rng)
                if delay > 0:
                    yield engine.timeout(delay)
                continue
            self.transfer_context = self._transfer_attribution(
                "stage-out", file.gfn, record
            )
            try:
                seconds = self.network.transfer_time(
                    site, target.site, file.size, now=engine.now
                )
            finally:
                self.transfer_context = None
            yield engine.timeout(seconds)
            self._minted_gfns.add(file.gfn)
            self.catalog.register(file, target)
            return elapsed + seconds

    def _outage_beacon(self):
        """Emit a ground-truth ``se.outage`` span at each SE down-window.

        The schedule is the grid's own configuration, so every emitted
        span is a real injected outage — the monitor turns them into
        ``se-outage`` alerts with zero false positives by construction.
        """
        engine = self.engine
        events = []
        for se in sorted(self._storage_by_site.values(), key=lambda s: s.name):
            for subject in dict.fromkeys((se.name, se.site)):
                for start, end in self.outages.down_windows(subject):
                    events.append((start, end, se.name))
        for start, end, se_name in sorted(events):
            if start > engine.now:
                yield engine.timeout(start - engine.now)
            self._counter("grid.se.outage_windows")
            bus = self.instrumentation
            if bus is not None:
                bus.record(
                    "se.outage",
                    "grid",
                    engine.now,
                    engine.now,
                    parent=bus.run_span,
                    status="error",
                    se=se_name,
                    until=end,
                )

    def _repair_loop(self):
        """Background re-replication: copy under-replicated GFNs to live
        SEs until each has :attr:`repair_target` healthy replicas.

        Cycle-first: the daemon does an initial replication pass as soon
        as the simulation starts (input files are registered before the
        clock moves), then rescans every :attr:`repair_interval`.
        """
        engine = self.engine
        while True:
            yield from self._repair_cycle()
            yield engine.timeout(self.repair_interval)

    def _repair_cycle(self):
        engine = self.engine
        for gfn in list(self.catalog.gfns()):
            healthy = self.catalog.healthy_replicas(gfn)
            live = sorted(
                (se for se in healthy if not self.storage_down(se)),
                key=lambda se: se.name,
            )
            if not live or len(healthy) >= self.repair_target:
                continue
            holders = {se.name for se in healthy}
            targets = sorted(
                (
                    se
                    for se in self._storage_by_site.values()
                    if se.name not in holders and not self.storage_down(se)
                ),
                key=lambda se: se.name,
            )
            src = live[0]
            file = self.catalog.lookup(gfn)
            for dst in targets[: self.repair_target - len(healthy)]:
                self.transfer_context = TransferContext(purpose="repair", gfn=gfn)
                try:
                    seconds = self.network.transfer_time(
                        src.site, dst.site, file.size, now=engine.now
                    )
                finally:
                    self.transfer_context = None
                yield engine.timeout(seconds)
                self.catalog.register(file, dst)
                self._counter("grid.repair.transfers")

    # -- instrumentation hooks ---------------------------------------------
    def _observe_transfer(self, src: str, dst: str, size: float, seconds: float) -> None:
        bus = self.instrumentation
        if bus is None:
            return
        counter = bus.metrics.counter
        counter("grid.network.transfers").inc()
        counter("grid.network.bytes").inc(size)
        bus.metrics.histogram("grid.network.transfer_seconds").observe(seconds)
        # Data-plane byte ledger: everything the middleware moves
        # site-to-site is "peer moved" (it never passes through the
        # enactor host), split by purpose and by directed link so every
        # runstore row carries bytes.* counters without any collector
        # attached.  Purpose keys: bytes.stage_in / bytes.stage_out /
        # bytes.intermediate / bytes.cache_refill.
        context = self.transfer_context
        purpose = context.purpose if context is not None else "stage-in"
        counter("bytes.peer_moved").inc(size)
        counter("bytes.total").inc(size)
        counter(f"bytes.{purpose.replace('-', '_')}").inc(size)
        counter(f"bytes.link.{src}.{dst}").inc(size)

    def _observe_register(self, file: LogicalFile, element: StorageElement) -> None:
        bus = self.instrumentation
        if bus is None:
            return
        bus.metrics.counter("grid.catalog.registrations").inc()

    # -- load-dependent overheads ------------------------------------------
    def load_factor(self) -> float:
        """Current utilization: jobs in flight over total worker slots.

        Production-grid queue waits depend on how loaded the shared
        infrastructure is: a lone sequentially-submitted job (the NOP
        regime) waits far less than one of 750 simultaneous submissions
        (the DP regime).  Capped at 1.0; infinite testbeds report 0.
        """
        if self._total_slots == float("inf") or self._total_slots <= 0:
            return 0.0
        return min(1.0, self._in_flight / self._total_slots)

    def _overhead_scale(self) -> float:
        """Multiplier for the load-sensitive overhead phases.

        ``(1 - c) + c * load`` with c = ``overhead_load_coupling``:
        the nominal (calibrated) overhead is what a fully loaded grid
        pays; a quiet grid pays the ``1 - c`` floor.
        """
        c = self.overhead_load_coupling
        if c == 0.0:
            return 1.0
        return (1.0 - c) + c * self.load_factor()

    # -- job submission -----------------------------------------------------
    def submit(self, description: JobDescription) -> SubmissionHandle:
        """Submit a job; returns immediately with a handle."""
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("grid.submit")
        try:
            for gfn in description.input_files:
                if not self.catalog.knows(gfn):
                    raise ValueError(
                        f"job {description.name!r} references unregistered input {gfn!r}"
                    )
            record = JobRecord(description)
            self.records.append(record)
            completion = self.engine.event(name=f"job:{description.name}")
            job_span: Optional[Span] = None
            bus = self.instrumentation
            if bus is not None:
                bus.metrics.counter("grid.jobs.submitted").inc()
                # Multi-tenant runs tag their jobs so spans stay attributable
                # even when several enactments share this grid (the single
                # bus.run_span slot cannot distinguish them).
                job_span = bus.begin(
                    "grid.job",
                    "grid",
                    self.engine.now,
                    parent=bus.run_span,
                    job_id=record.job_id,
                    job_name=description.name,
                    **self.tenancy(record),
                )
            self.engine.process(
                self._run_job(record, completion, job_span), name=f"job:{record.job_id}"
            )
            return SubmissionHandle(record, completion)
        finally:
            if profiler is not None:
                profiler.exit()

    # -- monitoring feedback ------------------------------------------------
    def set_health_provider(self, provider) -> None:
        """Wire a live health provider (e.g. a ``RunMonitor``) into
        brokering: least-loaded ranking demotes degraded CEs and avoids
        flagged ones while healthy alternatives exist."""
        self.broker.health = provider

    def alert_reactor(self, kinds=("straggler", "blackhole", "fault-burst")):
        """An alert sink that proactively resubmits queued jobs.

        Register the returned callable on a monitor
        (``monitor.add_sink(grid.alert_reactor())``): whenever a
        CE-scope alert of one of *kinds* fires, every job still waiting
        in that CE's batch queue is withdrawn and resubmitted through
        the broker — which, with the health provider wired, now steers
        them away from the flagged CE.  The Figure 6 operator reaction
        ("D0 was submitted twice because an error occurred"), automated.
        """
        by_name = {ce.name: ce for ce in self.computing_elements}

        def react(alert) -> None:
            if getattr(alert, "scope", None) != "ce" or alert.kind not in kinds:
                return
            ce = by_name.get(alert.subject)
            if ce is None:
                return
            cancelled = ce.cancel_queued(reason=f"{alert.kind} alert on {ce.name}")
            if cancelled and self.instrumentation is not None:
                self.instrumentation.metrics.counter(
                    "grid.jobs.proactive_resubmissions"
                ).inc(len(cancelled))

        return react

    def attempt_span(self, job_id: int) -> Optional[Span]:
        """The currently open ``job.attempt`` span of *job_id*, if any.

        Computing elements parent their stage-in/stage-out spans here;
        None when the grid is uninstrumented (or the job is between
        attempts).
        """
        return self._attempt_spans.get(job_id)

    def _run_job(self, record: JobRecord, completion: Event, job_span: Optional[Span] = None):
        engine = self.engine
        bus = self.instrumentation
        rng = self.streams.get("overhead")
        fault_rng = self.streams.get("faults")
        self._in_flight += 1
        if bus is not None:
            bus.metrics.gauge("grid.in_flight").set(self._in_flight)
        try:
            yield from self._attempts(record, completion, rng, fault_rng, job_span)
        except Exception as exc:
            # CE-level failures (e.g. a payload raising) must reach the
            # submitter through the handle, not crash the simulation.
            record.enter(JobState.FAILED, engine.now)
            record.record_failure(
                record.attempts, record.computing_element, str(exc), engine.now, kind="error"
            )
            if bus is not None and job_span is not None and job_span.open:
                bus.end(job_span, engine.now, status="error", error=str(exc))
            if not completion.triggered:
                completion.fail(exc)
        finally:
            self._in_flight -= 1
            if bus is not None:
                bus.metrics.gauge("grid.in_flight").set(self._in_flight)
            self._attempt_spans.pop(record.job_id, None)

    #: cancellations a single job may absorb without spending fault
    #: attempts; beyond this, each further cancellation consumes one
    #: (a termination guard against pathological cancel/resubmit loops)
    MAX_FREE_CANCELLATIONS = 5

    def _service_tag(self, record: JobRecord) -> str:
        """What retry budgets account a job under (service tag, else owner)."""
        return str(record.description.tags.get("service", record.description.owner))

    @staticmethod
    def tenancy(record: JobRecord) -> Dict[str, str]:
        """Tenant/run attribution for a job's spans.

        Phase spans close in completion order, often *before* their
        parent ``grid.job`` span — so per-tenant telemetry replaying
        the stream cannot join through the parent.  Every span carries
        the tags directly instead.
        """
        return {
            key: record.description.tags[key]
            for key in ("tenant", "run")
            if key in record.description.tags
        }

    def _retry_pause(self, record: JobRecord, failures: int, backoff_rng, job_span):
        """Backoff pause between attempts, instrumented; generator helper."""
        delay = self.retry_policy.backoff(failures, backoff_rng)
        if delay <= 0:
            return
        bus = self.instrumentation
        started = self.engine.now
        yield self.engine.timeout(delay)
        if bus is not None:
            bus.metrics.histogram("grid.retry.backoff_seconds").observe(delay)
            bus.record(
                "job.backoff",
                "grid",
                started,
                self.engine.now,
                parent=job_span,
                job_id=record.job_id,
                attempt=record.attempts,
                seconds=delay,
            )

    def _attempts(
        self,
        record: JobRecord,
        completion: Event,
        rng,
        fault_rng,
        job_span: Optional[Span] = None,
    ):
        engine = self.engine
        bus = self.instrumentation
        policy = self.retry_policy
        budget = self.retry_budget
        service_tag = self._service_tag(record)
        backoff_rng = self.streams.get("retry-backoff")
        max_attempts = (
            policy.max_attempts if policy.max_attempts is not None else self.faults.max_attempts
        )
        last_error = "unknown"
        fault_attempts = 0
        tries = 0
        cancellations = 0
        first_submitted = engine.now
        while fault_attempts < max_attempts:
            if (
                policy.job_deadline is not None
                and engine.now - first_submitted >= policy.job_deadline
            ):
                last_error = (
                    f"job deadline ({policy.job_deadline:g}s) exceeded "
                    f"after {tries} attempts"
                )
                record.record_failure(
                    tries, record.computing_element, last_error, engine.now, kind="deadline"
                )
                if bus is not None:
                    bus.metrics.counter("grid.jobs.deadline_exceeded").inc()
                break
            profiler = self.profiler
            if profiler is not None:
                profiler.enter("grid.attempt")
            try:
                tries += 1
                record.attempts = tries
                record.enter(JobState.SUBMITTED, engine.now)
                submitted_at = engine.now
                attempt_span: Optional[Span] = None
                if bus is not None:
                    attempt_span = bus.begin(
                        "job.attempt",
                        "grid",
                        submitted_at,
                        parent=job_span,
                        job_id=record.job_id,
                        attempt=tries,
                        **self.tenancy(record),
                    )
                    self._attempt_spans[record.job_id] = attempt_span
                sample = self.overhead.sample(rng).under_load(self._overhead_scale())
            finally:
                if profiler is not None:
                    profiler.exit()
            if sample.submission > 0:
                yield engine.timeout(sample.submission)

            chosen = yield engine.process(
                self.broker.match(record, sample.brokering), name="match"
            )
            record.enter(JobState.MATCHED, engine.now)
            matched_at = engine.now
            if bus is not None:
                bus.record(
                    "job.submit",
                    "grid",
                    submitted_at,
                    matched_at,
                    parent=attempt_span,
                    job_id=record.job_id,
                    attempt=tries,
                    ce=chosen.name,
                    **self.tenancy(record),
                )

            if self.faults.attempt_fails(fault_rng, ce=chosen.name):
                fault_attempts += 1
                delay = self.faults.sample_detection_delay(fault_rng, ce=chosen.name)
                if delay > 0:
                    yield engine.timeout(delay)
                record.enter(JobState.FAILED, engine.now)
                last_error = f"attempt {tries} failed on {chosen.name}"
                record.record_failure(tries, chosen.name, last_error, engine.now, kind="fault")
                if bus is not None:
                    bus.metrics.counter("grid.jobs.retries").inc()
                    bus.record(
                        "job.fault",
                        "grid",
                        matched_at,
                        engine.now,
                        parent=attempt_span,
                        status="error",
                        job_id=record.job_id,
                        attempt=tries,
                        ce=chosen.name,
                        job_name=record.description.name,
                        **self.tenancy(record),
                    )
                    if attempt_span is not None:
                        bus.end(attempt_span, engine.now, status="error", error=last_error)
                        self._attempt_spans.pop(record.job_id, None)
                if fault_attempts >= max_attempts:
                    break
                if not budget.try_spend(service_tag):
                    last_error += " (retry budget exhausted)"
                    record.record_failure(
                        tries, chosen.name, last_error, engine.now, kind="budget"
                    )
                    if bus is not None:
                        bus.metrics.counter("grid.jobs.budget_denied").inc()
                    break
                yield from self._retry_pause(record, fault_attempts, backoff_rng, job_span)
                continue

            done_on_ce = chosen.submit(record, queue_extra=sample.queue_extra)
            timed_out = False
            try:
                if policy.attempt_timeout is not None:
                    timer = engine.timeout(policy.attempt_timeout)
                    winner, _value = yield engine.any_of(
                        [done_on_ce, timer], name=f"attempt:{record.job_id}"
                    )
                    timed_out = winner is timer
                else:
                    yield done_on_ce
            except JobCancelledError as exc:
                last_error = f"attempt {tries} cancelled on {chosen.name}"
                record.record_failure(
                    tries, chosen.name, str(exc), engine.now, kind="cancelled"
                )
                if bus is not None:
                    bus.metrics.counter("grid.jobs.cancellations").inc()
                    bus.record(
                        "job.cancel",
                        "grid",
                        matched_at,
                        engine.now,
                        parent=attempt_span,
                        status="cancelled",
                        job_id=record.job_id,
                        attempt=tries,
                        ce=chosen.name,
                        reason=exc.reason,
                    )
                    if attempt_span is not None:
                        bus.end(attempt_span, engine.now, status="cancelled")
                        self._attempt_spans.pop(record.job_id, None)
                if not exc.resubmit:
                    # Final withdrawal: the run that owns this job was
                    # cancelled.  Fail the handle with the cancellation
                    # itself — no resubmission, no fault spent.
                    if bus is not None and job_span is not None and job_span.open:
                        bus.end(job_span, engine.now, status="cancelled")
                    completion.fail(exc)
                    return
                # Proactive resubmission: the monitor (via an alert
                # sink) pulled this job off a flagged CE's queue.  Not
                # a fault — resubmit without spending the attempt
                # budget, up to the free-cancellation cap.
                cancellations += 1
                if cancellations > self.MAX_FREE_CANCELLATIONS:
                    fault_attempts += 1
                continue
            if timed_out:
                fault_attempts += 1
                # Still queued: withdraw it.  Already running: the slot
                # is lost for the attempt's duration (a wall-clock kill
                # does not refund grid time); AnyOf defuses the stale
                # completion either way.
                if not chosen.cancel_job(record, reason=f"attempt {tries} timed out"):
                    done_on_ce.defused = True
                record.enter(JobState.FAILED, engine.now)
                last_error = (
                    f"attempt {tries} timed out on {chosen.name} "
                    f"after {policy.attempt_timeout:g}s"
                )
                record.record_failure(tries, chosen.name, last_error, engine.now, kind="timeout")
                if bus is not None:
                    bus.metrics.counter("grid.jobs.timeouts").inc()
                    bus.record(
                        "job.timeout",
                        "grid",
                        matched_at,
                        engine.now,
                        parent=attempt_span,
                        status="error",
                        job_id=record.job_id,
                        attempt=tries,
                        ce=chosen.name,
                        job_name=record.description.name,
                    )
                    if attempt_span is not None:
                        bus.end(attempt_span, engine.now, status="error", error=last_error)
                        self._attempt_spans.pop(record.job_id, None)
                if fault_attempts >= max_attempts:
                    break
                if not budget.try_spend(service_tag):
                    last_error += " (retry budget exhausted)"
                    record.record_failure(
                        tries, chosen.name, last_error, engine.now, kind="budget"
                    )
                    if bus is not None:
                        bus.metrics.counter("grid.jobs.budget_denied").inc()
                    break
                yield from self._retry_pause(record, fault_attempts, backoff_rng, job_span)
                continue
            if sample.completion_notification > 0:
                yield engine.timeout(sample.completion_notification)
            record.enter(JobState.DONE, engine.now)
            record.failure_reason = None
            if bus is not None:
                self._record_success(record, attempt_span, matched_at, chosen.name)
                if job_span is not None and job_span.open:
                    bus.end(job_span, engine.now, ce=chosen.name, attempts=tries)
            completion.succeed(record)
            return

        cause = f"{last_error} (all {record.attempts} attempts)"
        if record.failure_history:
            history = "; ".join(
                f"#{a.attempt}@{a.computing_element or '?'}: {a.kind}"
                for a in record.failure_history
            )
            cause = f"{cause} [{history}]"
        error = JobFailedError(record, cause)
        if bus is not None:
            bus.metrics.counter("grid.jobs.failed").inc()
            if job_span is not None and job_span.open:
                bus.end(job_span, engine.now, status="error", error=str(error))
        completion.fail(error)

    def _record_success(
        self,
        record: JobRecord,
        attempt_span: Optional[Span],
        matched_at: float,
        ce_name: str,
    ) -> None:
        """Phase spans + histograms for a successfully completed attempt.

        The schedule/queue/run phases tile ``matched -> done`` without
        gaps (schedule is zero-length here: the CE enters QUEUED at
        submission), so together with ``job.submit`` — and ``job.fault``
        spans for failed attempts — the phases of a job sum exactly to
        its recorded makespan.
        """
        bus = self.instrumentation
        engine = self.engine
        done_at = engine.now
        queued_at = record.last(JobState.QUEUED)
        running_at = record.last(JobState.RUNNING)
        if queued_at is not None and running_at is not None:
            common = {
                "job_id": record.job_id,
                "attempt": record.attempts,
                "ce": ce_name,
                "job_name": record.description.name,
                **self.tenancy(record),
            }
            bus.record(
                "job.schedule", "grid", matched_at, queued_at, parent=attempt_span, **common
            )
            bus.record(
                "job.queue", "grid", queued_at, running_at, parent=attempt_span, **common
            )
            bus.record(
                "job.run", "grid", running_at, done_at, parent=attempt_span, **common
            )
        if attempt_span is not None and attempt_span.open:
            bus.end(attempt_span, done_at, ce=ce_name)
            self._attempt_spans.pop(record.job_id, None)
        bus.metrics.counter("grid.jobs.completed").inc()
        for metric, value in (
            ("grid.job.overhead", record.overhead),
            ("grid.job.queue_wait", record.queue_wait),
            ("grid.job.makespan", record.makespan),
        ):
            if value is not None:
                bus.metrics.histogram(metric).observe(value)

    # -- reporting ------------------------------------------------------------
    def completed_records(self) -> List[JobRecord]:
        """Records of jobs that reached DONE."""
        return [r for r in self.records if r.state is JobState.DONE]

    def __repr__(self) -> str:
        return (
            f"<Grid {self.name!r} sites={len(self.sites)} "
            f"ces={len(self.computing_elements)} jobs={len(self.records)}>"
        )
