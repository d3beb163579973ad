"""Observed critical-path analytics: which chain actually gated the makespan.

:mod:`repro.workflow.analysis` predicts a critical path *statically* —
the longest source-to-sink chain of the workflow graph under the
constant-time hypothesis of Section 3.5.  This module reconstructs the
critical path a run *actually* exhibited, from its span stream:

1. start at the instant the ``run`` span closed,
2. repeatedly step to the invocation span that ends exactly there (in a
   discrete-event simulation the invocation that unblocked the next one
   ends at the very instant its successor starts — gate hand-offs,
   stage barriers and token deliveries are all instantaneous), and
3. stop at the instant the run span opened.

The resulting chain *tiles* the run interval: step durations sum to the
run span's makespan (a ``wait`` pseudo-step fills any interval where no
invocation gated progress, so the identity holds even for instrumented
regions the enactor does not cover).  Each step is then attributed to
the paper's phases by joining the invocation's grid jobs with their
phase spans — submission / scheduling / queuing / fault time (the
Section 5.1 H-overhead), stage-in / stage-out (data transfers) and
execution — which turns "the run took 4100 s" into "the gating chain
spent 2800 s queuing and 900 s executing".

Finally, :func:`diff_against_static` compares the services observed on
the gating chain with the static prediction, making DP/SP/JG policy
effects visible per run: under DP the same service appears once per
gating data set, under job grouping fused services show up under their
``a+b`` group name, and a mis-scheduled branch appears as an
*unexpected* service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.observability.drift import policy_key
from repro.observability.spans import Span

__all__ = [
    "CriticalPathError",
    "CriticalPathStep",
    "ObservedCriticalPath",
    "CriticalPathDiff",
    "observed_critical_path",
    "diff_against_static",
    "PHASE_KEYS",
]

#: attribution buckets, in display order: grid overhead phases first
#: (the Section 5.1 y-intercept material), then data transfers, then
#: useful execution, then enactor residue and idle gaps.
PHASE_KEYS = (
    "submit",
    "schedule",
    "queue",
    "fault",
    "stage_in",
    "stage_out",
    "execute",
    "enactor",
    "wait",
)

#: span name -> overhead bucket (job.run is split against staging below)
_OVERHEAD_SPANS = {
    "job.submit": "submit",
    "job.schedule": "schedule",
    "job.queue": "queue",
    "job.fault": "fault",
}

#: buckets counted as grid overhead (the H of Section 5.1)
OVERHEAD_KEYS = ("submit", "schedule", "queue", "fault")

_EPS = 1e-9


class CriticalPathError(ValueError):
    """The span stream cannot be resolved into an observed critical path."""


@dataclass(frozen=True)
class CriticalPathStep:
    """One link of the observed gating chain.

    ``kind`` is the invocation's trace kind (``invocation`` /
    ``grouped`` / ``synchronization`` / ``cached``) or ``wait`` for a
    gap pseudo-step.  ``phases`` maps :data:`PHASE_KEYS` buckets to
    seconds; the buckets sum to :attr:`duration` (within float
    tolerance).
    """

    processor: str
    label: str
    kind: str
    start: float
    end: float
    phases: Mapping[str, float] = field(default_factory=dict)
    job_ids: Tuple[int, ...] = ()
    span_id: str = ""

    @property
    def duration(self) -> float:
        """Simulated seconds this step kept the run on the critical path."""
        return self.end - self.start

    def dominant_phase(self) -> str:
        """The bucket holding most of this step's time (``-`` when idle)."""
        if not self.phases:
            return "-"
        return max(self.phases, key=lambda key: (self.phases[key], key))


@dataclass(frozen=True)
class ObservedCriticalPath:
    """The reconstructed gating chain of one enactment."""

    trace_id: str
    workflow: str
    policy: str
    run_start: float
    run_end: float
    steps: Tuple[CriticalPathStep, ...] = ()

    @property
    def makespan(self) -> float:
        """The run span's duration — what the chain must account for."""
        return self.run_end - self.run_start

    @property
    def total(self) -> float:
        """Sum of step durations; equals :attr:`makespan` by construction."""
        return sum(step.duration for step in self.steps)

    def phase_totals(self) -> Dict[str, float]:
        """Seconds per attribution bucket over the whole chain."""
        totals: Dict[str, float] = {}
        for step in self.steps:
            for key, seconds in step.phases.items():
                totals[key] = totals.get(key, 0.0) + seconds
        return totals

    def overhead_total(self) -> float:
        """Grid-overhead seconds on the chain (Section 5.1's H share)."""
        totals = self.phase_totals()
        return sum(totals.get(key, 0.0) for key in OVERHEAD_KEYS)

    def services(self) -> List[str]:
        """Distinct gating processors in order of first appearance."""
        seen: Dict[str, None] = {}
        for step in self.steps:
            if step.kind != "wait":
                seen.setdefault(step.processor, None)
        return list(seen)


def _select_run(spans: Sequence[Span], trace_id: Optional[str]) -> Span:
    runs = [s for s in spans if s.name == "run" and s.end is not None]
    if trace_id is not None:
        runs = [s for s in runs if s.trace_id == trace_id]
    if not runs:
        raise CriticalPathError(
            "no finished run span"
            + (f" with trace id {trace_id!r}" if trace_id else "")
            + " in the stream (enact with an InstrumentationBus attached)"
        )
    # several runs share one bus in warm-re-execution studies: default
    # to the most recent enactment.
    return max(runs, key=lambda s: (s.start, s.trace_id))


def _phase_index(spans: Iterable[Span], trace_id: str) -> Dict[int, List[Span]]:
    """job_id -> phase spans of that job, within one trace."""
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.trace_id != trace_id or span.end is None:
            continue
        if span.name in _OVERHEAD_SPANS or span.name in (
            "job.run",
            "job.stage_in",
            "job.stage_out",
        ):
            job_id = span.attributes.get("job_id")
            if job_id is not None:
                index.setdefault(int(job_id), []).append(span)
    return index


def _attribute(span: Span, phase_index: Mapping[int, List[Span]]) -> Dict[str, float]:
    """Split one invocation span's duration over the phase buckets.

    Grid phases tile each job's SUBMITTED -> DONE interval (see
    ``Grid._record_success``); stage-in/out are sub-intervals of
    ``job.run``, so execution is the run phase minus staging.  Whatever
    the job phases do not cover — gate-free service-layer latency, the
    whole duration of a local service — lands in ``execute`` when the
    invocation ran work and ``enactor`` when it merely coordinated.
    """
    duration = span.duration
    buckets = {key: 0.0 for key in PHASE_KEYS}
    covered = 0.0
    saw_jobs = False
    for job_id in span.attributes.get("job_ids") or ():
        for phase in phase_index.get(int(job_id), ()):
            saw_jobs = True
            if phase.name in _OVERHEAD_SPANS:
                buckets[_OVERHEAD_SPANS[phase.name]] += phase.duration
                covered += phase.duration
            elif phase.name == "job.run":
                buckets["execute"] += phase.duration
                covered += phase.duration
            elif phase.name == "job.stage_in":
                buckets["stage_in"] += phase.duration
                buckets["execute"] -= phase.duration
            elif phase.name == "job.stage_out":
                buckets["stage_out"] += phase.duration
                buckets["execute"] -= phase.duration
    if buckets["execute"] < 0.0:  # float residue of the staging split
        buckets["execute"] = 0.0
    residual = duration - covered
    if residual > (_EPS if saw_jobs else 0.0):
        # no grid jobs: the whole invocation is compute (local services,
        # synchronization statistics steps), however short — only job
        # steps carry float residue worth filtering.  With jobs, the
        # remainder is enactor/service-layer coordination around the
        # submissions.
        buckets["execute" if not saw_jobs else "enactor"] += residual
    return {key: seconds for key, seconds in buckets.items() if seconds > 0.0}


def _walk(run: Span, invocations: Sequence[Span]) -> List[Span]:
    """Backward greedy walk from run end to run start.

    Returns gating invocation spans in reverse chronological order;
    ``None`` gaps are handled by the caller.  At every cursor position
    the span that ends there with the *earliest start* is preferred —
    the longest step back, which also prefers real work over
    zero-duration cache hits that merely coincide.
    """
    candidates = [
        s
        for s in invocations
        if s.end is not None and s.end <= run.end + _EPS and s.start >= run.start - _EPS
    ]
    chain: List[Span] = []
    used: set = set()
    cursor = run.end
    while cursor > run.start + _EPS:
        ending = [
            s
            for s in candidates
            if id(s) not in used and abs((s.end or 0.0) - cursor) <= _EPS
        ]
        if ending:
            step = min(ending, key=lambda s: (s.start, s.span_id))
            used.add(id(step))
            chain.append(step)
            cursor = max(min(cursor, step.start), run.start)
        else:
            # No invocation ends here: an uninstrumented interval (the
            # enactor always closes one at hand-off points, but foreign
            # span streams may not).  Fall back to the latest earlier
            # end and leave a gap for the caller to fill.
            earlier = [
                s
                for s in candidates
                if id(s) not in used and (s.end or 0.0) < cursor - _EPS
            ]
            previous = max((s.end or 0.0 for s in earlier), default=run.start)
            chain.append(
                Span(
                    name="wait",
                    category="analysis",
                    span_id=f"gap@{previous:.6f}",
                    trace_id=run.trace_id,
                    start=max(previous, run.start),
                    end=cursor,
                    status="idle",
                )
            )
            cursor = max(previous, run.start)
    return chain


def observed_critical_path(
    spans: Sequence[Span], trace_id: Optional[str] = None
) -> ObservedCriticalPath:
    """Reconstruct the gating chain of one run from its span stream.

    *spans* is any collection containing the run's spans (an
    :class:`~repro.observability.bus.InMemoryCollector`'s ``spans`` or
    a parsed JSONL export).  With several runs in the stream the most
    recent is analyzed unless *trace_id* selects one.  The returned
    chain tiles ``[run.start, run.end]``: step durations sum to the run
    makespan within float tolerance.
    """
    run = _select_run(spans, trace_id)
    invocations = [
        s for s in spans if s.name == "invocation" and s.trace_id == run.trace_id
    ]
    phase_index = _phase_index(spans, run.trace_id)
    steps: List[CriticalPathStep] = []
    for span in reversed(_walk(run, invocations)):
        if span.name == "wait":
            steps.append(
                CriticalPathStep(
                    processor="(idle)",
                    label="-",
                    kind="wait",
                    start=span.start,
                    end=span.end or span.start,
                    phases={"wait": (span.end or span.start) - span.start},
                    span_id=span.span_id,
                )
            )
            continue
        attrs = span.attributes
        steps.append(
            CriticalPathStep(
                processor=str(attrs.get("processor", "?")),
                label=str(attrs.get("label", "?")),
                kind=str(attrs.get("kind", "invocation")),
                start=span.start,
                end=span.end if span.end is not None else span.start,
                phases=_attribute(span, phase_index),
                job_ids=tuple(int(j) for j in attrs.get("job_ids") or ()),
                span_id=span.span_id,
            )
        )
    return ObservedCriticalPath(
        trace_id=run.trace_id,
        workflow=str(run.attributes.get("workflow", "?")),
        policy=policy_key(run),
        run_start=run.start,
        run_end=run.end if run.end is not None else run.start,
        steps=tuple(steps),
    )


@dataclass(frozen=True)
class CriticalPathDiff:
    """Static prediction vs observed gating chain, service by service."""

    #: service processors on the statically predicted critical path
    static: Tuple[str, ...]
    #: distinct gating services observed, first-appearance order
    observed: Tuple[str, ...]
    #: predicted to gate but never did (a policy hid them — or a bug)
    missing: Tuple[str, ...]
    #: gated the run without being predicted (parallel branch dominated)
    unexpected: Tuple[str, ...]

    @property
    def matches(self) -> bool:
        """True when observation and prediction name the same services."""
        return not self.missing and not self.unexpected


def _expand(name: str) -> List[str]:
    """A grouped virtual service gates for each of its members."""
    return name.split("+")


def diff_against_static(
    observed: ObservedCriticalPath,
    workflow,
    durations: Optional[Mapping[str, float]] = None,
) -> CriticalPathDiff:
    """Compare the observed chain with ``workflow.analysis.critical_path``.

    *workflow* is the (ungrouped) :class:`~repro.workflow.graph.Workflow`;
    grouped invocation names (``crestLines+crestMatch``) are expanded to
    their members before comparing, so a JG run diffs cleanly against
    the original graph.  *durations* forwards to the static predictor.
    """
    from repro.workflow.analysis import critical_path as static_critical_path
    from repro.workflow.graph import ProcessorKind

    static_services = tuple(
        name
        for name in static_critical_path(workflow, durations)
        if workflow.processor(name).kind is ProcessorKind.SERVICE
    )
    observed_services: List[str] = []
    for name in observed.services():
        for member in _expand(name):
            if member not in observed_services:
                observed_services.append(member)
    static_set = set(static_services)
    observed_set = set(observed_services)
    return CriticalPathDiff(
        static=static_services,
        observed=tuple(observed_services),
        missing=tuple(n for n in static_services if n not in observed_set),
        unexpected=tuple(n for n in observed_services if n not in static_set),
    )
