"""Live model-drift reporting: observed runs vs the Section 3.5 model.

The paper's analysis rests on closed-form makespans — equations (1)-(4)
of Section 3.5 — and on reading measured time curves through their
y-intercept ("incompressible time to access the infrastructure") and
slope ("data scalability of the grid").  This module closes the loop at
run time: from one finished enactment it

1. rebuilds the model's ``T[i, j]`` matrix (service *i*, data set *j*)
   out of the observed invocation spans/trace events,
2. evaluates all four policy equations on that matrix and compares the
   run's own policy prediction against the observed makespan of the
   modelled region (synchronization barriers and cache hits sit outside
   the model's hypotheses and are excluded),
3. splits each ``T[i, j]`` into grid overhead and useful time (when job
   records or job phase spans are available) to emit *live* y-intercept
   and slope estimates, plus their ratios against the NOP prediction —
   the Section 5.1 metrics, computed from a single run instead of a
   whole size sweep.

A healthy fault-free simulation shows near-zero drift; a growing gap
between prediction and observation is exactly the signal that a new
scheduling feature (or a bug) broke one of the model's hypotheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.model.makespan import makespans

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids an
    # import cycle: grid.middleware -> observability -> core.trace ->
    # core.enactor -> grid.middleware; events are duck-typed here)
    from repro.core.trace import ExecutionTrace, TraceEvent

__all__ = [
    "DriftError",
    "DriftReport",
    "policy_key",
    "time_matrix",
    "drift_report",
    "drift_report_from_trace",
    "overhead_by_job_from_records",
    "overhead_by_job_from_spans",
]

#: trace-event kinds inside the modelled region (Section 3.5 hypotheses:
#: no synchronization barrier, and a cache hit is not an execution)
_MODELLED_KINDS = ("invocation", "grouped")

_ITEM_LABEL = re.compile(r"^D(\d+)$")


class DriftError(ValueError):
    """The trace cannot be mapped onto the model's T matrix."""


def policy_key(config) -> str:
    """The equation selecting label for *config*: NOP, DP, SP or SP+DP.

    Job grouping changes the matrix (grouped services collapse into one
    row), not the equation, so JG variants map onto the same key.
    """
    dp = bool(getattr(config, "data_parallelism", False))
    sp = bool(getattr(config, "service_parallelism", False))
    if dp and sp:
        return "SP+DP"
    if dp:
        return "DP"
    if sp:
        return "SP"
    return "NOP"


def _item_order(events: Sequence[TraceEvent]) -> List[TraceEvent]:
    """Events of one processor in data-set order.

    Provenance labels (``D0``, ``D7``...) define the item index when
    they parse; otherwise start-time order stands in (correct for the
    barrier policies, where arrival order *is* item order).
    """
    indices = [_ITEM_LABEL.match(e.label) for e in events]
    if all(m is not None for m in indices) and len(
        {int(m.group(1)) for m in indices if m is not None}
    ) == len(events):
        return sorted(events, key=lambda e: int(_ITEM_LABEL.match(e.label).group(1)))
    return sorted(events, key=lambda e: (e.start, e.label))


def time_matrix(
    trace: ExecutionTrace, processors: Optional[Sequence[str]] = None
) -> Tuple[np.ndarray, List[str], List[List[TraceEvent]]]:
    """The model's ``T`` matrix from an observed trace.

    Rows are the critical-path services (defaults to every processor
    with executed events; pass *processors* to restrict to the actual
    critical path when the workflow has parallel branches), columns the
    data sets.  Returns ``(T, row_names, row_events)``.
    """
    executed: Dict[str, List[TraceEvent]] = {}
    for event in trace:
        if event.kind in _MODELLED_KINDS:
            executed.setdefault(event.processor, []).append(event)
    if not executed:
        raise DriftError("trace has no executed invocations (all cached or empty)")
    if processors is None:
        names = list(executed)
    else:
        names = [p for p in processors if p in executed]
        missing = [p for p in processors if p not in executed]
        if missing:
            raise DriftError(f"processors never executed in this trace: {missing}")
        if not names:
            raise DriftError("no requested processor appears in the trace")
    counts = {name: len(executed[name]) for name in names}
    n_items = counts[names[0]]
    uneven = {name: c for name, c in counts.items() if c != n_items}
    if uneven:
        raise DriftError(
            "services saw different stream lengths (pass processors= to "
            f"select the critical path): {dict(sorted(counts.items()))}"
        )
    rows = [_item_order(executed[name]) for name in names]
    T = np.array([[e.duration for e in row] for row in rows], dtype=float)
    return T, names, rows


def overhead_by_job_from_records(records: Iterable) -> Dict[int, float]:
    """``job_id -> grid overhead seconds`` from middleware job records."""
    out: Dict[int, float] = {}
    for record in records:
        overhead = getattr(record, "overhead", None)
        if overhead is not None:
            out[record.job_id] = float(overhead)
    return out


#: job phase spans counted as grid overhead (everything before RUNNING,
#: plus failed-attempt detection time; staging and execution excluded)
_OVERHEAD_PHASES = ("job.submit", "job.schedule", "job.queue", "job.fault")


def overhead_by_job_from_spans(spans: Iterable) -> Dict[int, float]:
    """``job_id -> overhead seconds`` reconstructed from phase spans.

    The offline analogue of :func:`overhead_by_job_from_records` for
    when only an exported span stream is available (e.g. ``report-trace``
    on a JSONL file): sums the submission/scheduling/queuing — and
    failed-attempt — phases per job.  Slightly conservative versus the
    record-based figure, which also counts the completion-notification
    latency inside ``job.run``.
    """
    out: Dict[int, float] = {}
    for span in spans:
        if span.name in _OVERHEAD_PHASES and span.end is not None:
            job_id = span.attributes.get("job_id")
            if job_id is not None:
                out[job_id] = out.get(job_id, 0.0) + span.duration
    return out


@dataclass(frozen=True)
class DriftReport:
    """Predicted-vs-observed makespan plus live Section 5.1 estimates."""

    policy: str
    n_services: int
    n_items: int
    #: makespan of the modelled region (executed invocations only)
    observed_makespan: float
    #: the policy's equation evaluated on the observed T matrix
    predicted_makespan: float
    #: all four equations on the same matrix, keyed by policy label
    predictions: Dict[str, float] = field(default_factory=dict)
    #: live estimate of the regression line's y-intercept (overhead part)
    y_intercept_estimate: float = 0.0
    #: live estimate of the slope: (prediction - intercept) / n_items
    slope_estimate: float = 0.0
    #: Section 5.1 ratios of this run's policy against the NOP prediction
    y_intercept_ratio_vs_nop: float = 1.0
    slope_ratio_vs_nop: float = 1.0
    row_names: Tuple[str, ...] = ()

    @property
    def drift(self) -> float:
        """Signed seconds of drift: observed minus predicted."""
        return self.observed_makespan - self.predicted_makespan

    @property
    def relative_error(self) -> float:
        """|drift| normalized by the prediction (0.0 for a 0s prediction)."""
        if self.predicted_makespan == 0:
            return 0.0 if self.observed_makespan == 0 else float("inf")
        return abs(self.drift) / self.predicted_makespan

    @property
    def speedup_vs_nop(self) -> float:
        """Predicted NOP makespan over this policy's prediction."""
        nop = self.predictions.get("NOP", 0.0)
        if self.predicted_makespan == 0:
            return float("inf") if nop > 0 else 1.0
        return nop / self.predicted_makespan


def _ratio(reference: float, analyzed: float) -> float:
    if analyzed == 0:
        return float("inf") if reference > 0 else 1.0
    return reference / analyzed


def drift_report_from_trace(
    trace: ExecutionTrace,
    policy: str,
    overhead_by_job: Optional[Mapping[int, float]] = None,
    processors: Optional[Sequence[str]] = None,
) -> DriftReport:
    """Build a :class:`DriftReport` from a trace and a policy label.

    *overhead_by_job* (job id -> overhead seconds) feeds the intercept /
    slope split; without it the run is treated as overhead-free (true
    for local services and the ideal testbed).
    """
    if policy not in ("NOP", "DP", "SP", "SP+DP"):
        raise DriftError(f"unknown policy {policy!r}; expected NOP, DP, SP or SP+DP")
    T, names, rows = time_matrix(trace, processors=processors)
    n_services, n_items = T.shape

    included = [event for row in rows for event in row]
    observed = max(e.end for e in included) - min(e.start for e in included)

    predictions = makespans(T)
    predicted = predictions[policy]

    overheads = np.zeros_like(T)
    if overhead_by_job:
        for i, row in enumerate(rows):
            for j, event in enumerate(row):
                overheads[i, j] = sum(
                    overhead_by_job.get(job_id, 0.0) for job_id in event.job_ids
                )
        # Overhead lies in [0, span]; float residue in the per-record
        # subtraction can land epsilon outside either bound.
        overheads = np.clip(overheads, 0.0, T)
    intercepts = makespans(overheads)

    def slope(policy_label: str) -> float:
        return (predictions[policy_label] - intercepts[policy_label]) / n_items

    return DriftReport(
        policy=policy,
        n_services=n_services,
        n_items=n_items,
        observed_makespan=float(observed),
        predicted_makespan=float(predicted),
        predictions={k: float(v) for k, v in predictions.items()},
        y_intercept_estimate=float(intercepts[policy]),
        slope_estimate=float(slope(policy)),
        y_intercept_ratio_vs_nop=_ratio(intercepts["NOP"], intercepts[policy]),
        slope_ratio_vs_nop=_ratio(slope("NOP"), slope(policy)),
        row_names=tuple(names),
    )


def drift_report(
    result,
    records: Optional[Iterable] = None,
    processors: Optional[Sequence[str]] = None,
) -> DriftReport:
    """Drift report for one :class:`~repro.core.enactor.EnactmentResult`.

    Pass ``records=grid.records`` to split each observed time into grid
    overhead and useful work for the intercept/slope estimates.
    """
    overhead_by_job = (
        overhead_by_job_from_records(records) if records is not None else None
    )
    return drift_report_from_trace(
        result.trace,
        policy_key(result.config),
        overhead_by_job=overhead_by_job,
        processors=processors,
    )
