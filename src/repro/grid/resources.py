"""Computing resources: worker nodes, computing elements, sites.

An EGEE-like site bundles a :class:`ComputingElement` (a batch queue in
front of a pool of :class:`WorkerNode` s) with a storage element.  The
CE runs a dispatch loop as a simulated process: it repeatedly asks its
:class:`~repro.grid.batch.QueuePolicy` for the next queued job, waits
for a free worker slot, and runs the job's lifecycle (stage-in,
execute, stage-out, payload evaluation).

Infinite capacity is supported (``slots=None`` worker) so the idealized
testbed can realize the paper's hypothesis H2: "data parallelism is
assumed not to be limited by infrastructure constraints".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, TYPE_CHECKING

import numpy as np

from repro.grid.batch import FifoPolicy, QueuePolicy
from repro.grid.job import JobRecord, JobState
from repro.sim.engine import Engine, Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.middleware import Grid

__all__ = ["WorkerNode", "ComputingElement", "Site", "QueueEntry"]


@dataclass(frozen=True, slots=True)
class WorkerNode:
    """A worker node: some CPU slots at a relative speed.

    ``speed`` scales execution time: a job whose reference compute time
    is ``t`` runs in ``t / speed`` here.  EGEE nodes were "standard
    PCs" of heterogeneous generations; testbeds draw speeds from a
    distribution around 1.0.
    """

    name: str
    slots: int = 1
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"worker needs >= 1 slot, got {self.slots}")
        if self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")


@dataclass(slots=True)
class QueueEntry:
    """One job waiting in a CE batch queue."""

    record: JobRecord
    completion: Event  # succeeds with the record when the job finishes on the CE


class ComputingElement:
    """A batch-scheduled pool of worker nodes at one site."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        site: str,
        workers: Optional[List[WorkerNode]] = None,
        policy: Optional[QueuePolicy] = None,
        infinite: bool = False,
    ) -> None:
        self.engine = engine
        self.name = name
        self.site = site
        self.infinite = infinite
        self.workers = list(workers or [])
        if not infinite and not self.workers:
            raise ValueError(f"CE {name!r} needs workers (or infinite=True)")
        self.policy = policy if policy is not None else FifoPolicy(engine)
        capacity: "int | float" = (
            float("inf") if infinite else sum(w.slots for w in self.workers)
        )
        self._slots = Resource(engine, capacity, name=f"slots:{name}")
        # Round-robin assignment of started jobs to workers, for records.
        self._worker_cycle = itertools.cycle(self.workers) if self.workers else None
        self._running = 0
        self._completed = 0
        # Entries pulled off the queue by the dispatch loop but still
        # waiting for a worker slot; counted as queued for load purposes.
        self._dispatching = 0
        #: set by Grid when it adopts this CE; drives stage-in/out timing
        self.grid: Optional["Grid"] = None
        # Instance-owned fallback for grid-less CEs (unit tests): a
        # module-global generator here would couple the draws of every
        # concurrent enactment in the process.
        self._fallback_rng = np.random.default_rng(0)
        self.engine.process(self._dispatch_loop(), name=f"ce:{name}")

    # -- introspection ---------------------------------------------------
    @property
    def total_slots(self) -> "int | float":
        """Total worker slots (may be ``inf``)."""
        return self._slots.capacity

    @property
    def queued(self) -> int:
        """Jobs waiting in the batch queue (including one being dispatched)."""
        return len(self.policy) + self._dispatching

    @property
    def running(self) -> int:
        """Jobs currently executing on workers."""
        return self._running

    @property
    def completed(self) -> int:
        """Jobs finished on this CE since the start of the simulation."""
        return self._completed

    def load_estimate(self) -> float:
        """Queue pressure estimate used by broker ranking.

        queued+running normalized by slot count; infinite CEs always
        report 0 pressure.
        """
        if self.infinite:
            return 0.0
        total = float(self._slots.capacity)
        return (self.queued + self._running) / total

    # -- submission --------------------------------------------------------
    def submit(self, record: JobRecord, queue_extra: float = 0.0) -> Event:
        """Enter *record* into the batch queue; returns its completion event.

        ``queue_extra`` is the middleware-induced extra queue residency
        (see :mod:`repro.grid.overhead`): the entry only becomes eligible
        for dispatch after that delay, without holding a worker slot.
        """
        record.enter(JobState.QUEUED, self.engine.now)
        record.computing_element = self.name
        completion = self.engine.event(name="done")
        entry = QueueEntry(record=record, completion=completion)
        if queue_extra > 0:
            self.engine.process(self._delayed_put(entry, queue_extra))
        else:
            self.policy.put(entry)
        return completion

    def _delayed_put(self, entry: QueueEntry, delay: float):
        yield self.engine.timeout(delay)
        self.policy.put(entry)

    def cancel_queued(
        self,
        reason: str = "cancelled",
        resubmit: bool = True,
        predicate: "Optional[Callable[[JobRecord], bool]]" = None,
    ) -> List[JobRecord]:
        """Withdraw jobs still waiting in the batch queue.

        Each withdrawn entry's completion event fails with
        :class:`~repro.grid.job.JobCancelledError`.  With
        ``resubmit=True`` the middleware treats that as "resubmit
        elsewhere, for free" — the proactive-resubmission arm of the
        monitoring feedback loop (an operator pulling jobs off a site
        that went bad).  With ``resubmit=False`` the withdrawal is
        final: the enactment service uses this to release a cancelled
        run's queued jobs back to the other tenants.  *predicate*
        restricts the withdrawal to matching records (e.g. one run's
        jobs on a shared testbed); None withdraws everything queued.
        Jobs already dispatched to a worker are left alone.  Returns
        the withdrawn records.
        """
        from repro.grid.job import JobCancelledError

        cancelled: List[JobRecord] = []
        for entry in self.policy.entries():
            if predicate is not None and not predicate(entry.record):
                continue
            if not self.policy.remove(entry):
                continue
            record = entry.record
            record.enter(JobState.CANCELLED, self.engine.now)
            cancelled.append(record)
            if not entry.completion.triggered:
                entry.completion.fail(JobCancelledError(record, reason, resubmit=resubmit))
        return cancelled

    def cancel_job(
        self, record: JobRecord, reason: str = "cancelled", resubmit: bool = True
    ) -> bool:
        """Withdraw one specific job still waiting in the batch queue.

        The timeout-enforcement arm of the retry policies: an attempt
        that sat queued past its deadline is pulled back so the
        middleware can resubmit it elsewhere.  Returns False when the
        job already left the queue (dispatched or running) — a running
        attempt cannot be reclaimed, the middleware abandons it instead.
        """
        from repro.grid.job import JobCancelledError

        for entry in self.policy.entries():
            if entry.record is record:
                if not self.policy.remove(entry):
                    return False
                record.enter(JobState.CANCELLED, self.engine.now)
                if not entry.completion.triggered:
                    entry.completion.fail(JobCancelledError(record, reason, resubmit=resubmit))
                return True
        return False

    # -- dispatch ------------------------------------------------------------
    def _down_until(self) -> float:
        """End of the outage window this CE currently sits in (or now).

        A down CE stops dispatching: its queue backs up, its load
        estimate climbs, and a least-loaded broker steers new jobs
        elsewhere — the outage degrades capacity without failing jobs.
        """
        grid = self.grid
        if grid is None or grid.outages.empty:
            return self.engine.now
        if not grid.entity_down(self.name, self.site, self.engine.now):
            return self.engine.now
        return grid.entity_next_up(self.name, self.site, self.engine.now)

    def _dispatch_loop(self):
        """Forever: pick next queued entry, grab a slot, run the job."""
        while True:
            entry = yield self.policy.get()
            self._dispatching += 1
            request = self._slots.request()
            yield request
            # Outage windows can chain (flapping); loop until truly up.
            while True:
                resume = self._down_until()
                if resume <= self.engine.now:
                    break
                yield self.engine.timeout(resume - self.engine.now)
            self._dispatching -= 1
            self.engine.process(self._run(entry, request), name="run")

    def _run(self, entry: QueueEntry, slot_request: Event):
        record = entry.record
        engine = self.engine
        # An attempt the timeout abandoned runs on (it keeps its slot and
        # registers its outputs) but writes nothing more into the record,
        # which by then belongs to the retry.
        attempt = record.attempts
        worker = next(self._worker_cycle) if self._worker_cycle else None
        speed = worker.speed if worker else 1.0
        record.worker_node = worker.name if worker else f"{self.name}/elastic"
        self._running += 1
        try:
            record.enter(JobState.RUNNING, engine.now)
            grid = self.grid
            bus = grid.instrumentation if grid is not None else None
            tenancy = grid.tenancy(record) if bus is not None else {}

            # Stage in: pull every input file from its closest replica.
            # Byte totals accumulate as ints (LogicalFile sizes are
            # interned): per-link sums stay equal to global totals.
            stage_in = 0.0
            stage_in_bytes = 0
            stage_in_start = engine.now
            if grid is not None and grid.chaos_enabled:
                # Chaos path: per-file retry/failover generators (the
                # bulk path below cannot express mid-transfer faults).
                for gfn in record.description.input_files:
                    stage_in += yield from grid.stage_in_process(gfn, self.site, record)
                    stage_in_bytes += grid.catalog.lookup(gfn).size
            elif grid is not None:
                for gfn in record.description.input_files:
                    stage_in += grid.stage_in_time(gfn, self.site, record)
                    stage_in_bytes += grid.catalog.lookup(gfn).size
            if stage_in > 0 and not (grid is not None and grid.chaos_enabled):
                yield engine.timeout(stage_in)
            if record.attempts == attempt:
                record.stage_in_time = stage_in
            if bus is not None and record.description.input_files:
                grid.metrics.counter["grid.transfer.bytes_in"].inc(stage_in_bytes)
                bus.record(
                    "job.stage_in",
                    "grid",
                    stage_in_start,
                    engine.now,
                    parent=grid.attempt_span(record.job_id),
                    job_id=record.job_id,
                    ce=self.name,
                    files=len(record.description.input_files),
                    bytes=stage_in_bytes,
                    **tenancy,
                )

            # Execute the payload for its sampled duration.
            rng = grid.streams.get(f"compute:{self.name}") if grid else self._fallback_rng
            duration = record.description.compute_distribution().sample(rng) / speed
            if duration > 0:
                yield engine.timeout(duration)
            if record.attempts == attempt:
                record.execution_time = duration

            # Stage out: push and register produced files.
            stage_out = 0.0
            stage_out_bytes = 0
            stage_out_start = engine.now
            if grid is not None and grid.chaos_enabled:
                # Chaos path: the generator registers each file on the
                # SE that actually received it (local SE may be down).
                for produced in record.description.output_files:
                    stage_out += yield from grid.stage_out_process(
                        produced, self.site, record
                    )
                    stage_out_bytes += produced.size
            elif grid is not None:
                for produced in record.description.output_files:
                    stage_out += grid.stage_out_time(produced, self.site, record)
                    stage_out_bytes += produced.size
            if stage_out > 0 and not (grid is not None and grid.chaos_enabled):
                yield engine.timeout(stage_out)
            current = record.attempts == attempt
            if current:
                record.stage_out_time = stage_out
            if grid is not None and not grid.chaos_enabled:
                for produced in record.description.output_files:
                    grid.register_output(produced, self.site)
            if bus is not None and record.description.output_files:
                grid.metrics.counter["grid.transfer.bytes_out"].inc(stage_out_bytes)
                bus.record(
                    "job.stage_out",
                    "grid",
                    stage_out_start,
                    engine.now,
                    parent=grid.attempt_span(record.job_id),
                    job_id=record.job_id,
                    ce=self.name,
                    files=len(record.description.output_files),
                    bytes=stage_out_bytes,
                    **tenancy,
                )

            # Evaluate the Python payload: real outputs for simulated work.
            if current and record.description.payload is not None:
                record.result = record.description.payload()

            self._completed += 1
            entry.completion.succeed(record)
        except BaseException as exc:  # pragma: no cover - defensive
            if not entry.completion.triggered:
                entry.completion.fail(exc)
            else:
                raise
        finally:
            self._running -= 1
            self._slots.release(slot_request)

    def __repr__(self) -> str:
        return (
            f"<ComputingElement {self.name!r} site={self.site!r} "
            f"slots={self.total_slots} queued={self.queued} running={self.running}>"
        )


@dataclass
class Site:
    """A grid site: computing element(s) plus a storage element."""

    name: str
    computing_elements: List[ComputingElement]
    storage_element: Any  # StorageElement; Any avoids an import cycle

    def __post_init__(self) -> None:
        if not self.computing_elements:
            raise ValueError(f"site {self.name!r} needs at least one CE")
