"""MOTEUR: the optimized service-based workflow enactor.

This is the paper's prototype (Section 4.1) rebuilt on the simulated
grid.  "To our knowledge, this is the only service-based workflow
enactor providing all these levels of optimization":

* **asynchronous service calls** — every invocation is a simulated
  process, the analogue of the "independent system threads" MOTEUR
  spawns (Section 3.1),
* **workflow parallelism** — independent branches always run
  concurrently (Section 3.2),
* **data parallelism** — a service fires one concurrent job per
  available input item when enabled (Section 3.3),
* **service parallelism** — per-item firing lets different services
  process different items simultaneously; disabling it imposes the
  stage barriers described by equations (1)-(2) (Section 3.4),
* **job grouping** — sequential wrapped services are fused into
  single-job virtual services before execution (Section 3.6),
* **data synchronization barriers** — synchronization processors (and
  targets of Scufl coordination constraints) consume their entire input
  streams in one invocation (Section 2.3),
* **provenance-aware iteration strategies** — dot products stay
  causally correct under DP+SP thanks to history trees (Section 4.1).

Execution model
---------------
The enactor pushes :class:`~repro.core.tokens.DataToken` s along the
workflow links.  Sources emit their data sets at start time; each
token offered to a processor's iteration engine may complete one or
more *bindings*; each binding becomes an invocation process that (a)
waits for the stage barrier when SP is off, (b) acquires the service's
concurrency gate (capacity 1 without DP), (c) invokes the black-box
service, and (d) delivers the outputs downstream with a derived
history tree.  Enactment completes when no invocation is in flight —
a quiescence criterion that also covers workflows with loops, where
stream lengths cannot be known in advance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cache import CacheEntry, CacheStatsSnapshot, ResultCache, invocation_key
from repro.core.config import OptimizationConfig
from repro.core.failures import DeadLetter, FailureReport, InvocationFailure
from repro.core.grouping import GroupInfo, group_workflow
from repro.core.iteration import Binding, IterationEngine, expected_bindings
from repro.core.journal import EnactmentJournal, SimulatedCrash
from repro.core.provenance import HistoryTree
from repro.core.tokens import DataToken, NoData
from repro.core.trace import ExecutionTrace, TraceEvent
from repro.grid.job import JobFailedError
from repro.grid.middleware import Grid
from repro.observability.bus import InstrumentationBus
from repro.observability.metrics import MetricsSnapshot
from repro.observability.spans import Span
from repro.services.base import GridData, ServiceError
from repro.sim.engine import Engine, Event
from repro.sim.resources import Resource
from repro.workflow.analysis import find_cycles
from repro.workflow.datasets import InputDataSet
from repro.workflow.graph import Processor, ProcessorKind, Workflow, WorkflowError
from repro.workflow.validation import require_valid

__all__ = ["MoteurEnactor", "EnactmentResult", "EnactmentError", "EnactmentCancelled"]


class EnactmentError(RuntimeError):
    """The enactment failed (service error, job failure, deadlock...)."""


class EnactmentCancelled(EnactmentError):
    """An in-flight enactment was cancelled (see :meth:`MoteurEnactor.cancel`).

    Carries the run's :class:`~repro.core.failures.FailureReport`, whose
    ``cancelled_reason`` / ``cancelled_jobs`` fields describe the
    cancellation itself on top of whatever the run had already lost.
    """

    def __init__(self, workflow: str, reason: str, report: FailureReport) -> None:
        super().__init__(f"enactment of {workflow!r} cancelled: {reason}")
        self.workflow = workflow
        self.reason = reason
        self.report = report


@dataclass
class EnactmentResult:
    """Everything one enactment produced."""

    workflow_name: str
    config: OptimizationConfig
    started_at: float
    finished_at: float
    #: sink name -> data items collected, arrival order
    outputs: Dict[str, List[GridData]]
    #: sink name -> provenance trees matching ``outputs``
    histories: Dict[str, List[HistoryTree]]
    trace: ExecutionTrace
    invocation_count: int
    groups: List[GroupInfo] = field(default_factory=list)
    #: per-service cache counters for THIS run (None when caching is off)
    cache_stats: Optional[CacheStatsSnapshot] = None
    #: metrics snapshot for THIS run (None when instrumentation is off)
    metrics: Optional[MetricsSnapshot] = None
    #: what a best-effort run lost (None under strict failure mode)
    failures: Optional[FailureReport] = None
    #: invocations satisfied from the enactment journal on a resume
    replayed_count: int = 0

    @property
    def makespan(self) -> float:
        """Wall-clock seconds from enactment start to completion."""
        return self.finished_at - self.started_at

    def output_values(self, sink: str) -> List[Any]:
        """Convenience: the plain values collected at *sink*."""
        return [d.value for d in self.outputs.get(sink, [])]


class _ProcessorState:
    """Mutable per-processor bookkeeping for one enactment."""

    __slots__ = (
        "processor",
        "iteration",
        "gate",
        "emitted",
        "invocations_done",
        "arrived",
        "expected",
        "preds",
        "preds_drained",
        "drained",
        "sync_buffers",
        "collected",
        "collected_histories",
        "tracks_draining",
    )

    def __init__(self, processor: Processor) -> None:
        self.processor = processor
        self.iteration: Optional[IterationEngine] = None
        self.gate: Optional[Resource] = None
        self.emitted: Dict[str, int] = {
            port: 0 for port in processor.effective_output_ports()
        }
        self.invocations_done = 0
        self.arrived = 0  # sink-side token count
        self.expected: Optional[int] = None
        self.preds: List[str] = []
        self.preds_drained: Optional[Event] = None
        self.drained: Optional[Event] = None
        self.sync_buffers: Dict[str, List[DataToken]] = {}
        self.collected: List[GridData] = []
        self.collected_histories: List[HistoryTree] = []
        self.tracks_draining = True


class MoteurEnactor:
    """The optimized enactor; one instance may run several data sets.

    Parameters
    ----------
    engine:
        The simulation engine shared with the services/grid.
    workflow:
        A bound workflow (every service processor carries a live
        service).  With job grouping enabled the enactor derives and
        runs a grouped copy; the original is untouched.
    config:
        The optimization switches (defaults to NOP).
    grid:
        When given, grid-file items of the input data set are
        registered in the grid's replica catalog before execution.
    cache:
        A provenance-keyed :class:`~repro.cache.ResultCache`; caching is
        on exactly when one is given.  Every invocation then consults it
        first: a hit advances the dataflow immediately — zero grid jobs,
        zero simulated time, no service concurrency slot — and emits a
        ``kind="cached"`` trace event.  Share one instance (or one
        :class:`~repro.cache.FileStore` directory) across enactors to
        make warm re-execution nearly free.
    instrumentation:
        An :class:`~repro.observability.InstrumentationBus`.  When
        given, each enactment emits a correlated span tree (run →
        invocations → cache lookups; the grid adds job and phase spans
        when it shares the bus) and the per-run metrics delta lands on
        ``EnactmentResult.metrics``.  A grid without its own bus is
        wired to this one automatically.
    """

    def __init__(
        self,
        engine: Engine,
        workflow: Workflow,
        config: Optional[OptimizationConfig] = None,
        grid: Optional[Grid] = None,
        cache: Optional[ResultCache] = None,
        instrumentation: Optional[InstrumentationBus] = None,
        journal: "Optional[EnactmentJournal | str | Path]" = None,
        crash_after_n_invocations: Optional[int] = None,
        run_attributes: Optional[Mapping[str, Any]] = None,
        claim_run_span: bool = True,
    ) -> None:
        self.engine = engine
        self.config = config or OptimizationConfig.nop()
        self.grid = grid
        self.instrumentation = instrumentation
        #: extra attributes stamped on the run span (e.g. tenant / run id)
        self.run_attributes: Dict[str, Any] = dict(run_attributes or {})
        #: whether this enactor claims the bus-wide ``run_span`` slot.
        #: The slot is single-occupancy, so a scheduler multiplexing
        #: several concurrent enactments on one bus sets False and
        #: relies on tenant/run tags for span attribution instead.
        self.claim_run_span = claim_run_span
        if isinstance(journal, (str, Path)):
            journal = EnactmentJournal(journal)
        #: crash-safe WAL of completed invocations (see repro.core.journal)
        self.journal = journal
        #: simulated-crash hook: raise SimulatedCrash once this many
        #: non-replayed invocations have completed (crash-resume tests)
        self.crash_after_n_invocations = crash_after_n_invocations
        if grid is not None and instrumentation is not None and grid.instrumentation is None:
            grid.instrumentation = instrumentation
        self.cache = cache
        require_valid(workflow)
        for processor in workflow.services():
            if processor.service is None:
                raise WorkflowError(
                    f"processor {processor.name!r} has no bound service; "
                    "bind it (see repro.workflow.scufl.bind_services) before enacting"
                )
        self.original_workflow = workflow
        self.groups: List[GroupInfo] = []
        if self.config.job_grouping:
            self.workflow, self.groups = group_workflow(workflow, engine)
        else:
            self.workflow = workflow

        cycles = find_cycles(self.workflow)
        self._cyclic_processors = {name for cycle in cycles for name in cycle}
        if self._cyclic_processors and not self.config.service_parallelism:
            raise WorkflowError(
                "workflows with loops require service parallelism: a stage "
                "barrier would wait for a stream that never ends "
                f"(cycle through {sorted(self._cyclic_processors)})"
            )
        # Synchronization set: flagged processors plus coordination targets
        # ("we used those coordination constraints to identify services that
        #  require data synchronization").
        self._sync = {
            p.name for p in self.workflow.processors.values() if p.synchronization
        }
        self._sync.update(after for _, after in self.workflow.coordination_constraints)
        bad_sync = self._sync & self._cyclic_processors
        if bad_sync:
            raise WorkflowError(
                f"synchronization processors on a cycle can never fire: {sorted(bad_sync)}"
            )

        # -- per-run state, reset by enact() --
        self._states: Dict[str, _ProcessorState] = {}
        self._in_flight = 0
        self._completion: Optional[Event] = None
        self._started_at = 0.0
        self._trace = ExecutionTrace()
        self._invocation_count = 0
        self._failed = False
        self._cancelled = False
        self._cache_baseline: Optional[CacheStatsSnapshot] = None
        self._run_span: Optional[Span] = None
        self._trace_id = ""
        self._metrics_baseline: Optional[MetricsSnapshot] = None
        self._report = FailureReport()
        self._replay: Dict[str, CacheEntry] = {}
        self._replayed_count = 0
        self._progress = 0  # non-replayed completions (crash hook counter)

    # -- public API ----------------------------------------------------------
    def run(
        self,
        dataset: "InputDataSet | Mapping[str, Sequence[Any]]",
        resume: bool = False,
    ) -> EnactmentResult:
        """Enact the workflow on *dataset*, driving the engine to completion."""
        completion = self.enact(dataset, resume=resume)
        return self.engine.run(until=completion)

    def resume(self, dataset: "InputDataSet | Mapping[str, Sequence[Any]]") -> EnactmentResult:
        """Continue an interrupted enactment from this enactor's journal.

        Every invocation recorded in the journal is replayed instantly —
        zero grid jobs, ``kind="replayed"`` trace events — and only the
        remaining work executes.  With the same seed and dataset, the
        final outputs are byte-identical to an uninterrupted run.
        """
        if self.journal is None:
            raise ValueError("resume() needs a journal (none configured on this enactor)")
        return self.run(dataset, resume=True)

    def cancel(self, reason: str = "cancelled", job_filter=None) -> FailureReport:
        """Cancel the in-flight enactment.

        Blocks further invocations from spawning, withdraws this run's
        queued grid jobs with ``resubmit=False`` (their slots go back to
        the other tenants — no free resubmission), and fails the
        completion event with :class:`EnactmentCancelled`.  Jobs already
        executing on a worker are left to drain; their late completions
        and failures are absorbed harmlessly.

        *job_filter* is a predicate over
        :class:`~repro.grid.job.JobRecord` selecting which queued jobs
        belong to this run.  The default matches the ``run`` tag from
        ``run_attributes`` when one is set (the multi-tenant case, where
        several runs share the testbed), and otherwise withdraws every
        queued job (the single-run case).

        Returns the run's :class:`FailureReport` — also carried by the
        :class:`EnactmentCancelled` the completion event fails with.
        The caller must keep driving the engine (or have a callback on
        the completion event) so the scheduled cancellations process.
        """
        if self._completion is None or self._completion.triggered:
            raise EnactmentError(
                f"no in-flight enactment of {self.workflow.name!r} to cancel"
            )
        if self._cancelled:
            return self._report
        self._cancelled = True
        if job_filter is None:
            run_id = self.run_attributes.get("run")
            if run_id is not None:
                def job_filter(record):  # noqa: E306
                    return record.description.tags.get("run") == run_id
        released = 0
        if self.grid is not None:
            for ce in self.grid.computing_elements:
                released += len(
                    ce.cancel_queued(reason=reason, resubmit=False, predicate=job_filter)
                )
        self._report.cancelled_reason = reason
        self._report.cancelled_jobs = released
        if self.instrumentation is not None:
            self.instrumentation.metrics.counter("enactor.cancellations").inc()
        self._close_run_span(status="cancelled", reason=reason)
        self._close_journal()
        self._failed = True
        error = EnactmentCancelled(self.workflow.name, reason, self._report)
        # Pre-defuse: the scheduler harvests via callbacks, and nothing
        # should crash the shared engine if no-one is waiting.
        self._completion.defused = True
        self._completion.fail(error)
        return self._report

    def enact(
        self,
        dataset: "InputDataSet | Mapping[str, Sequence[Any]]",
        resume: bool = False,
    ) -> Event:
        """Start an enactment; returns an event yielding the result.

        Use this form to embed the enactment in a larger simulation (or
        to run several enactments concurrently on one engine — each
        needs its own enactor instance).  With *resume*, the invocations
        this enactor's journal recorded replay (see :meth:`resume`).
        """
        data = self._normalize_dataset(dataset)
        self._reset()
        if self.journal is not None:
            if resume:
                self._replay = self.journal.load()
            self.journal.append_run(self.workflow.name, self.config.label, self.engine.now)
        self._build_states()
        self._register_input_files(data)
        self._emit_sources(data)
        self._fire_inputless_services()
        self._check_completion()
        return self._completion

    # -- setup ------------------------------------------------------------------
    def _normalize_dataset(
        self, dataset: "InputDataSet | Mapping[str, Sequence[Any]]"
    ) -> InputDataSet:
        if isinstance(dataset, InputDataSet):
            return dataset
        if isinstance(dataset, Mapping):
            return InputDataSet.from_values("adhoc", **{k: list(v) for k, v in dataset.items()})
        raise TypeError(
            f"dataset must be an InputDataSet or a mapping, got {type(dataset).__name__}"
        )

    def _reset(self) -> None:
        self._states = {}
        self._in_flight = 0
        self._completion = self.engine.event(name=f"enactment:{self.workflow.name}")
        self._started_at = self.engine.now
        self._trace = ExecutionTrace()
        self._invocation_count = 0
        self._failed = False
        self._cancelled = False
        self._cache_baseline = self.cache.snapshot() if self.cache is not None else None
        self._run_span = None
        self._trace_id = ""
        self._metrics_baseline = None
        self._report = FailureReport()
        self._replay = {}
        self._replayed_count = 0
        self._progress = 0
        bus = self.instrumentation
        if bus is not None:
            self._metrics_baseline = bus.metrics.snapshot()
            self._trace_id = bus.next_trace_id(self.workflow.name)
            self._run_span = bus.begin(
                "run",
                "enactor",
                self.engine.now,
                trace_id=self._trace_id,
                workflow=self.workflow.name,
                data_parallelism=self.config.data_parallelism,
                service_parallelism=self.config.service_parallelism,
                job_grouping=self.config.job_grouping,
                **self.run_attributes,
            )
            if self.claim_run_span:
                bus.run_span = self._run_span

    def _build_states(self) -> None:
        for name, processor in self.workflow.processors.items():
            state = _ProcessorState(processor)
            state.tracks_draining = name not in self._cyclic_processors
            if processor.kind is ProcessorKind.SERVICE:
                ports = processor.effective_input_ports()
                if name in self._sync:
                    state.sync_buffers = {port: [] for port in ports}
                elif ports:
                    state.iteration = IterationEngine(ports, processor.iteration_strategy)
                state.gate = Resource(
                    self.engine, self.config.service_concurrency, name=f"gate:{name}"
                )
            if state.tracks_draining:
                state.drained = self.engine.event(name=f"drained:{name}")
            self._states[name] = state

        # Predecessors: data links plus coordination (control) links.
        for name, state in self._states.items():
            preds = list(self.workflow.predecessors(name))
            for before, after in self.workflow.coordination_constraints:
                if after == name and before not in preds:
                    preds.append(before)
            state.preds = preds
            if state.tracks_draining:
                pred_events = []
                incomplete = False
                for pred in preds:
                    pred_state = self._states[pred]
                    if pred_state.drained is None:
                        incomplete = True  # pred on a cycle: no stream accounting
                        break
                    pred_events.append(pred_state.drained)
                if incomplete:
                    state.tracks_draining = False
                    state.drained = None
                elif pred_events:
                    state.preds_drained = self.engine.all_of(
                        pred_events, name=f"preds-drained:{name}"
                    )
                    state.preds_drained.callbacks.append(
                        lambda _evt, s=state: self._check_drained(s)
                    )
            if name in self._sync:
                if state.preds_drained is None and state.preds:
                    raise WorkflowError(
                        f"synchronization processor {name!r} depends on a cyclic "
                        "region; its input stream length is undecidable"
                    )
                self._note_in_flight(+1)
                self.engine.process(self._sync_invoke(state), name=f"moteur-sync:{name}")

    def _register_input_files(self, dataset: InputDataSet) -> None:
        if self.grid is None:
            return
        for file in dataset.files():
            if not self.grid.catalog.knows(file.gfn):
                self.grid.add_input_file(file)

    def _emit_sources(self, dataset: InputDataSet) -> None:
        for source in self.workflow.sources():
            items = dataset.items(source.name)
            state = self._states[source.name]
            port = source.effective_output_ports()[0]
            for index, item in enumerate(items):
                token = DataToken(
                    data=item.grid_data(), history=HistoryTree.leaf(source.name, index)
                )
                self._deliver(state, port, token)
            if state.drained is not None:
                state.expected = 0
                state.drained.succeed(len(items))

    def _fire_inputless_services(self) -> None:
        for processor in self.workflow.services():
            if not processor.effective_input_ports() and processor.name not in self._sync:
                self._spawn_invocation(self._states[processor.name], {})

    # -- token flow ---------------------------------------------------------------
    def _deliver(self, state: _ProcessorState, out_port: str, token: DataToken) -> None:
        """Emit *token* on *out_port*: stream accounting, then every consumer."""
        state.emitted[out_port] += 1
        fanout = 0
        for link in self.workflow.links_out_of(state.processor.name, out_port):
            self._accept(link.target.processor, link.target.port, token)
            fanout += 1
        self._note_routed_bytes(token, fanout)

    def _note_routed_bytes(self, token: DataToken, fanout: int) -> None:
        """Account the enactor-routed data volume of one delivery.

        Every token a centralized enactor routes carries its payload
        file through the enactor host once per consumer — the traffic
        Barker's choreography argument wants off the orchestrator, and
        the yardstick (``bytes.enactor_moved``) any future choreography
        mode must beat.
        """
        if fanout == 0:
            return
        bus = self.instrumentation
        if bus is None:
            return
        file = token.data.file
        if file is None:
            return
        moved = file.size * fanout
        bus.metrics.counter("bytes.enactor_moved").inc(moved)
        bus.metrics.counter("bytes.total").inc(moved)

    def _accept(self, name: str, port: str, token: DataToken) -> None:
        state = self._states[name]
        processor = state.processor
        if processor.kind is ProcessorKind.SINK:
            if token.poisoned and token.failure is not None:
                # Dead letter: the lineage died upstream; the sink keeps
                # the obituary, not a data item.
                self._report.dead_letters.append(
                    DeadLetter(sink=name, label=token.label, root=token.failure)
                )
            else:
                state.collected.append(token.data)
                state.collected_histories.append(token.history)
            state.arrived += 1
            self._check_drained(state)
            return
        if name in self._sync:
            state.sync_buffers[port].append(token)
            return
        assert state.iteration is not None
        for binding in state.iteration.offer(port, token):
            self._spawn_invocation(state, binding)

    # -- instrumentation ---------------------------------------------------------
    def _note_in_flight(self, delta: int) -> None:
        """Track the in-flight invocation gauge (peak = real concurrency)."""
        self._in_flight += delta
        if self.instrumentation is not None:
            self.instrumentation.metrics.gauge("enactor.in_flight").set(self._in_flight)

    def _record_cache_lookup(self, processor: str, start: float, status: str) -> None:
        """Span + counter for one cache consultation (hit/miss/coalesced).

        A hit or miss is instantaneous; a coalesced lookup covers the
        wait on the in-flight leader, so the span has real duration.
        """
        bus = self.instrumentation
        if bus is None:
            return
        bus.metrics.counter(f"cache.lookups.{status}").inc()
        bus.record(
            "cache.lookup",
            "cache",
            start,
            self.engine.now,
            parent=self._run_span,
            trace_id=self._trace_id,
            status=status,
            processor=processor,
        )

    def _record(
        self,
        state: _ProcessorState,
        history: HistoryTree,
        start: float,
        end: float,
        kind: str,
        job_ids: Tuple[int, ...],
        status: Optional[str] = None,
        **extra: Any,
    ) -> None:
        """Trace event + invocation span (id tied to the lineage label)."""
        processor, label = state.processor.name, history.label()
        self._trace.add(TraceEvent(processor, label, start, end, kind=kind, job_ids=job_ids))
        bus = self.instrumentation
        if bus is None:
            return
        bus.metrics.counter("enactor.invocations").inc()
        bus.metrics.counter(f"enactor.invocations.{kind}").inc()
        bus.record(
            "invocation",
            "enactor",
            start,
            end,
            parent=self._run_span,
            trace_id=self._trace_id,
            span_id=f"{self._trace_id}:{processor}:{label}",
            processor=processor,
            label=label,
            kind=kind,
            job_ids=list(job_ids),
            status=status,
            **self.run_attributes,
            **extra,
        )

    # -- invocation lifecycle ---------------------------------------------------------
    def _spawn_invocation(self, state: _ProcessorState, binding: Binding) -> None:
        if self._cancelled:
            return  # a cancelled run starts no new work
        self._note_in_flight(+1)
        self.engine.process(
            self._invoke(state, binding), name=f"moteur:{state.processor.name}"
        )

    def _invoke(self, state: _ProcessorState, binding: Binding):
        """An ordinary invocation: one token per port."""
        began = self.engine.now
        parents = tuple(binding[port].history for port in sorted(binding))
        history = HistoryTree.derive(state.processor.name, parents)
        try:
            # Stage barrier: without service parallelism a service only
            # starts once its predecessors finished their whole streams.
            if not self.config.service_parallelism and state.preds_drained is not None:
                yield state.preds_drained
                if self._cancelled:
                    return  # parked on the barrier when the run was cancelled

            poisoned = next((t for t in binding.values() if t.poisoned), None)
            if poisoned is not None and poisoned.failure is not None:
                # A parent lineage already died: skip this invocation and
                # propagate the error token so only this lineage is lost.
                self._skip_poisoned(state, history, poisoned.failure)
            else:
                bound = {port: (token,) for port, token in binding.items()}
                done = yield from self._execute(state, bound, barrier=False)
                if done is None:
                    return
                self._complete_invocation(state, history, *done)
                self._check_drained(state)
        except Exception as exc:
            if not self._contain(state, history, began, exc):
                self._fail(exc)
                return
        finally:
            self._note_in_flight(-1)
        self._check_completion()

    def _sync_invoke(self, state: _ProcessorState):
        """Synchronization barrier: one invocation over the whole streams."""
        history: Optional[HistoryTree] = None
        began = self.engine.now

        def derive(streams: Mapping[str, Sequence[DataToken]]) -> HistoryTree:
            return HistoryTree.derive(
                state.processor.name,
                tuple(t.history for port in sorted(streams) for t in streams[port]),
            )

        try:
            if state.preds_drained is not None:
                yield state.preds_drained
                if self._cancelled:
                    return

            # Failure containment at the barrier: poisoned tokens are
            # dropped so the synchronization runs over the survivors.  A
            # port whose *whole* stream died starves the barrier — then
            # the barrier itself is skipped and emits an error token.
            survivors = state.sync_buffers
            starved: List[str] = []
            if self.config.best_effort:
                survivors = {
                    port: [t for t in tokens if not t.poisoned]
                    for port, tokens in state.sync_buffers.items()
                }
                dropped = sum(
                    len(state.sync_buffers[port]) - len(tokens)
                    for port, tokens in survivors.items()
                )
                if dropped:
                    self._report.barrier_drops += dropped
                starved = [
                    port
                    for port, tokens in state.sync_buffers.items()
                    if tokens and not survivors[port]
                ]

            if starved:
                history = derive(state.sync_buffers)
                root = next(
                    t.failure
                    for port in starved
                    for t in state.sync_buffers[port]
                    if t.failure is not None
                )
                self._skip_poisoned(state, history, root)
            else:
                done = yield from self._execute(state, survivors, barrier=True)
                if done is None:
                    return
                history = derive(survivors)
                self._complete_invocation(state, history, *done)
                # One invocation is the barrier's whole stream: this
                # marks it drained (``expected`` is 1 for a barrier).
                self._check_drained(state)
        except Exception as exc:
            if history is None:
                history = derive(state.sync_buffers)
            if not self._contain(state, history, began, exc):
                self._fail(exc)
                return
        finally:
            self._note_in_flight(-1)
        self._check_completion()

    def _execute(
        self,
        state: _ProcessorState,
        bound: Mapping[str, Sequence[DataToken]],
        barrier: bool,
    ):
        """The one invocation lifecycle (sub-generator, ``yield from`` it).

        *bound* is what each port contributes: one token, or — for a
        synchronization *barrier* — its whole stream.  In order: key,
        journal replay, cache lookup, coalesce on / open a flight, gate,
        service call, cache put + close flight.  An error while the
        flight is open closes it (failing the followers) on its way to
        the caller's containment.  Returns ``(outputs, start, end, kind,
        job_ids, key)`` for :meth:`_complete_invocation`, or None when
        the run was cancelled while this invocation was parked on the
        gate: nothing was invoked, nothing may be recorded.
        """
        processor = state.processor
        name = processor.name
        engine = self.engine
        cache = self.cache
        key: Optional[str] = None
        if cache is not None or self.journal is not None:
            # A barrier consumes whole streams whose arrival order is a
            # DP+SP race artifact, so its key treats each port's tokens
            # as a multiset (unordered): a warm run whose tokens arrive
            # in a different order still hits.
            facts = {
                port: [(t.history, t.data) for t in tokens] for port, tokens in bound.items()
            }
            key = invocation_key(processor.service, facts, unordered=barrier)
        if key is not None and key in self._replay:
            # Journal replay: the previous (interrupted) run already
            # completed this invocation and persisted its outputs.  Like
            # a cache hit it submits nothing, so it reports no job ids.
            outputs = dict(self._replay[key].outputs)
            self._register_cached_files(outputs)
            self._replayed_count += 1
            return outputs, engine.now, engine.now, "replayed", (), key
        flight_open = False
        try:
            if cache is not None:
                lookup_start = engine.now
                outputs = cache.lookup(key, name)
                status = "hit"
                if outputs is None:
                    leader = cache.flight_leader(engine, key)
                    if leader is not None:
                        # Single-flight: an identical invocation is already
                        # executing; wait for its result instead of
                        # submitting the same work twice.
                        outputs = yield leader
                        cache.record_coalesced(name)
                        status = "coalesced"
                if outputs is not None:
                    self._register_cached_files(outputs)
                    self._record_cache_lookup(name, lookup_start, status)
                    return outputs, engine.now, engine.now, "cached", (), key
                cache.open_flight(engine, key)
                flight_open = True
                cache.record_miss(name)
                self._record_cache_lookup(name, lookup_start, "miss")

            request = state.gate.request()
            gate_requested = engine.now
            yield request
            if self._cancelled:
                # Parked on the gate when the run was cancelled: hand the
                # slot on and fail the followers rather than strand them.
                state.gate.release(request)
                if flight_open:
                    cache.close_flight(
                        engine, key, error=ServiceError(f"{name}: run cancelled")
                    )
                return None
            start = engine.now
            if self.instrumentation is not None:
                self.instrumentation.metrics.histogram("enactor.gate_wait").observe(
                    start - gate_requested
                )
            try:
                if barrier:
                    inputs = {
                        port: GridData(value=[t.value for t in tokens])
                        for port, tokens in bound.items()
                    }
                else:
                    inputs = {port: tokens[0].data for port, tokens in bound.items()}
                call, record = processor.service.invoke_recorded(inputs)
                outputs = yield call
            finally:
                state.gate.release(request)
            end = engine.now
            if cache is not None:
                cache.put(key, name, outputs)
                cache.close_flight(engine, key, outputs=outputs)
        except Exception as exc:
            if flight_open:  # a follower must never close its leader's flight
                cache.close_flight(engine, key, error=exc)
            raise
        if barrier:
            kind = "synchronization"
        else:
            kind = "grouped" if getattr(processor.service, "stages", None) else "invocation"
        return outputs, start, end, kind, tuple(record.job_ids), key

    def _complete_invocation(
        self,
        state: _ProcessorState,
        history: HistoryTree,
        outputs: Mapping[str, GridData],
        start: float,
        end: float,
        kind: str,
        job_ids: Tuple[int, ...],
        key: Optional[str],
    ) -> None:
        """Record one completed invocation and let its outputs take effect.

        Ordering is the WAL contract: the journal line is written and
        flushed to the OS *before* the outputs are emitted downstream,
        so a killed process never published results it did not record.
        The fsync is group-committed (see :mod:`repro.core.journal`):
        the journal is closed, and so made durable, before the run's
        completion event triggers.
        """
        self._record(state, history, start, end, kind, job_ids)
        self._invocation_count += 1
        if kind != "replayed":
            if self.journal is not None and key is not None:
                self.journal.append_invocation(
                    CacheEntry(key=key, service=state.processor.name, outputs=dict(outputs))
                )
                if self._completion.triggered:
                    # A straggler of a finished (failed/cancelled) run:
                    # keep its line, not the file handle.
                    self.journal.close()
            self._progress += 1
            crash_after = self.crash_after_n_invocations
            if crash_after is not None and self._progress >= crash_after:
                raise SimulatedCrash(self._progress)
        self._emit_outputs(state, history, outputs)
        state.invocations_done += 1

    def _contain(
        self,
        state: _ProcessorState,
        history: HistoryTree,
        began: float,
        exc: Exception,
    ) -> bool:
        """Absorb an invocation failure under best-effort mode.

        Returns True when the failure was contained: the dead-letter
        report gains an :class:`InvocationFailure`, an error token
        poisons exactly this lineage downstream, and the run carries
        on.  Returns False (caller aborts the run) under strict mode or
        for non-service errors (bugs, simulated crashes).
        """
        if not self.config.best_effort or isinstance(exc, SimulatedCrash):
            return False
        if not isinstance(exc, (ServiceError, JobFailedError)):
            return False
        failure = InvocationFailure.from_exception(
            state.processor.name, history, exc, self.engine.now
        )
        self._report.failures.append(failure)
        self._record(
            state,
            history,
            began,
            self.engine.now,
            "failed",
            failure.job_ids,
            status="error",
            error=failure.error,
        )
        self._emit_error_tokens(state, history, failure)
        return True

    def _skip_poisoned(
        self, state: _ProcessorState, history: HistoryTree, failure: InvocationFailure
    ) -> None:
        """Skip an invocation whose input lineage already died upstream."""
        self._report.skipped += 1
        now = self.engine.now
        self._record(
            state, history, now, now, "poisoned", (), status="skipped", root=failure.processor
        )
        self._emit_error_tokens(state, history, failure)

    def _emit_error_tokens(
        self, state: _ProcessorState, history: HistoryTree, failure: InvocationFailure
    ) -> None:
        """Propagate a failure as typed error tokens on every output port.

        Error tokens keep the normal derived history, so dot/cross
        iteration downstream still pairs them with their siblings (and
        the stream accounting stays exact) — the poison only kills the
        lineage it belongs to.  The lost invocation still counts as done.
        """
        for port in state.processor.effective_output_ports():
            self._deliver(state, port, DataToken(GridData(value=None), history, failure=failure))
        state.invocations_done += 1
        self._check_drained(state)

    def _register_cached_files(self, outputs: Mapping[str, GridData]) -> None:
        """Re-advertise a hit's grid files in the replica catalog.

        A warm run on a fresh grid has never seen the files a cold run
        minted; a *partial* hit chain must still let the first
        downstream miss stage them in.
        """
        if self.grid is None:
            return
        for datum in outputs.values():
            if datum.file is not None and not self.grid.catalog.knows(datum.file.gfn):
                self.grid.add_input_file(datum.file, cache_refill=True)

    def _emit_outputs(
        self, state: _ProcessorState, history: HistoryTree, outputs: Mapping[str, GridData]
    ) -> None:
        for port in state.processor.effective_output_ports():
            datum = outputs[port]
            if isinstance(datum.value, NoData):
                continue  # conditional port chose not to emit (loop exits...)
            self._deliver(state, port, DataToken(datum, history))

    # -- stream accounting -------------------------------------------------------------
    def _check_drained(self, state: _ProcessorState) -> None:
        """Mark *state* drained once its full stream has been processed."""
        if state.drained is None or state.drained.triggered:
            return
        if state.preds_drained is not None and not state.preds_drained.triggered:
            return
        if state.expected is None:
            per_port: Dict[str, int] = {}
            for port in state.processor.effective_input_ports():
                per_port[port] = sum(
                    self._states[link.source.processor].emitted[link.source.port]
                    for link in self.workflow.links_into(state.processor.name, port)
                )
            if state.processor.kind is ProcessorKind.SINK:
                state.expected = sum(per_port.values())
            elif state.processor.name in self._sync:
                state.expected = 1
            else:
                state.expected = expected_bindings(
                    state.processor.iteration_strategy, per_port
                )
        done = (
            state.arrived
            if state.processor.kind is ProcessorKind.SINK
            else state.invocations_done
        )
        if done >= state.expected:
            state.drained.succeed(done)

    def _check_completion(self) -> None:
        if self._failed or self._completion is None or self._completion.triggered:
            return
        if self._in_flight == 0:
            self._close_journal()
            self._completion.succeed(self._build_result())

    def _close_journal(self) -> None:
        """Commit and close the journal before the completion triggers.

        Whoever acts on the outcome — the caller, the service's store,
        the CLI — therefore follows a durable journal.
        """
        if self.journal is not None:
            self.journal.close()

    def _fail(self, exc: Exception) -> None:
        if not self._failed and self._completion is not None and not self._completion.triggered:
            self._failed = True
            self._close_run_span(status="error", error=str(exc))
            self._close_journal()
            if isinstance(exc, SimulatedCrash):
                # Crash tests must see the interrupt itself, not a wrapper.
                self._completion.fail(exc)
            else:
                self._completion.fail(
                    EnactmentError(f"enactment of {self.workflow.name!r} failed: {exc}")
                )

    def _close_run_span(self, status: Optional[str] = None, **attributes: Any) -> None:
        bus = self.instrumentation
        if bus is None or self._run_span is None or not self._run_span.open:
            return
        bus.end(self._run_span, self.engine.now, status=status, **attributes)
        if bus.run_span is self._run_span:
            bus.run_span = None

    def _build_result(self) -> EnactmentResult:
        outputs: Dict[str, List[GridData]] = {}
        histories: Dict[str, List[HistoryTree]] = {}
        for sink in self.workflow.sinks():
            state = self._states[sink.name]
            outputs[sink.name] = list(state.collected)
            histories[sink.name] = list(state.collected_histories)
        cache_stats = None
        if self.cache is not None and self._cache_baseline is not None:
            cache_stats = self.cache.snapshot() - self._cache_baseline
        metrics = None
        if self.instrumentation is not None:
            self._close_run_span(invocations=self._invocation_count)
            # Engine lifetime counters (events scheduled/processed, peak
            # heap, absorbed failures) surface through the registry so
            # every metrics snapshot carries the events/sec denominator.
            registry = self.instrumentation.metrics
            for name, value in self.engine.counters().items():
                registry.gauge(name).set(value)
            metrics = self.instrumentation.metrics.snapshot()
            if self._metrics_baseline is not None:
                metrics = metrics.since(self._metrics_baseline)
        return EnactmentResult(
            workflow_name=self.workflow.name,
            config=self.config,
            started_at=self._started_at,
            finished_at=self.engine.now,
            outputs=outputs,
            histories=histories,
            trace=self._trace,
            invocation_count=self._invocation_count,
            groups=list(self.groups),
            cache_stats=cache_stats,
            metrics=metrics,
            failures=self._report if self.config.best_effort else None,
            replayed_count=self._replayed_count,
        )
