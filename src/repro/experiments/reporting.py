"""Report formatting: text tables and paper-vs-measured comparisons.

These renderers produce the artifacts the benchmark suite prints and
EXPERIMENTS.md records: Table 1/Table 2 layouts, the Section 5.2/5.3
ratio analyses, and explicit shape checks (configuration ordering,
linearity, which metric each optimization moves).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cache import CacheStatsSnapshot
from repro.experiments.calibration import PAPER_TABLE1, PAPER_TABLE2
from repro.experiments.harness import SweepResult
from repro.model.metrics import ConfigurationFit, ratios_table
from repro.observability.alerts import Alert
from repro.observability.critical_path import (
    PHASE_KEYS,
    CriticalPathDiff,
    ObservedCriticalPath,
)
from repro.observability.drift import DriftReport
from repro.observability.health import CEHealth
from repro.observability.runstore import RunComparison
from repro.observability.spans import Span

__all__ = [
    "format_table1",
    "format_table2",
    "format_ratios",
    "format_cache_stats",
    "format_reexecution",
    "format_phase_breakdown",
    "format_drift",
    "format_critical_path",
    "format_critical_path_diff",
    "format_ce_utilization",
    "format_run_comparison",
    "format_health",
    "format_alerts",
    "format_failures",
    "paper_comparison",
    "check_ordering",
    "SECTION52_PAIRS",
]

#: the (analyzed, reference) comparisons of Sections 5.2 and 5.3
SECTION52_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("DP", "NOP"),
    ("SP+DP", "DP"),
    ("JG", "NOP"),
    ("SP+DP+JG", "SP+DP"),
)


def _grid(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    def line(cells):
        return " | ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), "-+-".join("-" * w for w in widths)]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def format_table1(sweep: SweepResult, with_hours: bool = False) -> str:
    """Render the measured Table 1 (execution time per config and size)."""
    headers = ["Configuration"] + [f"{s} pairs" for s in sweep.sizes]
    rows = []
    for label in sweep.config_labels:
        cells = [label]
        for size in sweep.sizes:
            makespan = sweep.cell(label, size).makespan
            cells.append(
                f"{makespan:.0f}s ({makespan / 3600:.2f}h)" if with_hours else f"{makespan:.0f}"
            )
        rows.append(cells)
    return _grid(headers, rows)


def format_table2(fits: Mapping[str, ConfigurationFit]) -> str:
    """Render the measured Table 2 (y-intercept and slope per config)."""
    headers = ["Configuration", "y-intercept (s)", "slope (s/data set)", "r^2"]
    rows = [
        [label, f"{fit.y_intercept:.0f}", f"{fit.slope:.1f}", f"{fit.fit.r_squared:.4f}"]
        for label, fit in fits.items()
    ]
    return _grid(headers, rows)


def format_ratios(
    fits: Mapping[str, ConfigurationFit],
    pairs: Sequence[Tuple[str, str]] = SECTION52_PAIRS,
) -> str:
    """Render the Section 5.2/5.3 speed-up and ratio analysis."""
    headers = [
        "Analyzed vs reference",
        "speed-ups (per size)",
        "y-intercept ratio",
        "slope ratio",
    ]
    rows = []
    for entry in ratios_table(fits, pairs):
        speedups = ", ".join(f"{s:.2f}" for s in entry["speedups"])
        rows.append(
            [
                f"{entry['analyzed']} vs {entry['reference']}",
                speedups,
                f"{entry['y_intercept_ratio']:.2f}",
                f"{entry['slope_ratio']:.2f}",
            ]
        )
    return _grid(headers, rows)


def format_cache_stats(stats: Optional[CacheStatsSnapshot]) -> str:
    """Per-service cache counters as a table (hits, misses, hit rate...).

    This is the warm-re-execution companion of Table 1: it shows which
    services' submissions a run skipped and how many bytes of results
    back that saving.
    """
    if stats is None or not stats.per_service:
        return "(result caching disabled or unused)"
    headers = ["Service", "hits", "coalesced", "misses", "hit rate", "stores", "bytes"]
    def row(name, s):
        return [name, str(s.hits), str(s.coalesced), str(s.misses),
                f"{s.hit_rate:.0%}", str(s.stores), str(s.bytes_stored)]
    rows = [row(name, s) for name, s in stats]
    rows.append(row("TOTAL", stats.total))
    return _grid(headers, rows)


def format_reexecution(
    rows: Sequence[Tuple[str, float, float, int, int, Optional[CacheStatsSnapshot]]],
) -> str:
    """Cold-vs-warm makespan table, one row per configuration.

    Each row is ``(label, cold_makespan, warm_makespan, cold_jobs,
    warm_jobs, warm_stats)``; the speed-up column is what the cache
    benchmark asserts on.
    """
    headers = ["Configuration", "cold (s)", "warm (s)", "speed-up",
               "cold jobs", "warm jobs", "warm hit rate"]
    out = []
    for label, cold, warm, cold_jobs, warm_jobs, stats in rows:
        if warm > 0:
            speedup = f"{cold / warm:.0f}x"
        else:
            speedup = "inf" if cold > 0 else "-"
        hit_rate = f"{stats.hit_rate:.0%}" if stats is not None else "-"
        out.append([label, f"{cold:.0f}", f"{warm:.2f}", speedup,
                    str(cold_jobs), str(warm_jobs), hit_rate])
    return _grid(headers, out)


#: canonical display order for span names in phase breakdowns
_SPAN_ORDER = (
    "run",
    "invocation",
    "cache.lookup",
    "grid.job",
    "job.attempt",
    "job.submit",
    "job.schedule",
    "job.queue",
    "job.run",
    "job.stage_in",
    "job.stage_out",
    "job.fault",
)


def format_phase_breakdown(spans: Sequence[Span]) -> str:
    """Per-span-name duration statistics for one run's span stream.

    This is the "where did the time go" table: submission / scheduling /
    queuing / running / staging phases side by side, with the enactor's
    invocation and cache-lookup spans above them for context.
    """
    if not spans:
        return "(no spans)"
    groups: Dict[str, list] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span.duration)
    names = [n for n in _SPAN_ORDER if n in groups]
    names += sorted(set(groups) - set(names))
    headers = ["Span", "count", "total (s)", "mean (s)", "min (s)", "max (s)"]
    rows = []
    for name in names:
        durations = groups[name]
        rows.append(
            [
                name,
                str(len(durations)),
                f"{sum(durations):.1f}",
                f"{sum(durations) / len(durations):.2f}",
                f"{min(durations):.2f}",
                f"{max(durations):.2f}",
            ]
        )
    return _grid(headers, rows)


def format_drift(report: DriftReport) -> str:
    """The model-drift report: equations (1)-(4) vs the observed run.

    The table gives all four policy predictions computed from the same
    observed T matrix; the lines below compare the run's own policy
    against what it actually measured and state the live Section 5.1
    estimates (y-intercept, slope, ratios vs NOP).
    """
    headers = ["Policy", "predicted makespan (s)", ""]
    rows = [
        [label, f"{report.predictions.get(label, 0.0):.1f}",
         "<- this run" if label == report.policy else ""]
        for label in ("NOP", "DP", "SP", "SP+DP")
    ]
    lines = [
        _grid(headers, rows),
        "",
        f"modelled region: {report.n_services} services x {report.n_items} "
        f"data sets ({', '.join(report.row_names)})",
        f"observed makespan: {report.observed_makespan:.1f}s",
        f"predicted ({report.policy}): {report.predicted_makespan:.1f}s",
        f"drift: {report.drift:+.1f}s (relative error {report.relative_error:.1%})",
        f"y-intercept estimate: {report.y_intercept_estimate:.1f}s "
        f"(ratio vs NOP {report.y_intercept_ratio_vs_nop:.2f})",
        f"slope estimate: {report.slope_estimate:.2f}s/data set "
        f"(ratio vs NOP {report.slope_ratio_vs_nop:.2f})",
        f"predicted speed-up vs NOP: {report.speedup_vs_nop:.2f}x",
    ]
    return "\n".join(lines)


def format_critical_path(observed: ObservedCriticalPath) -> str:
    """The observed gating chain, one row per step, plus phase totals.

    The footer re-states the tiling identity the reconstruction
    guarantees — step durations (and phase buckets) sum to the run
    makespan — so a reader can see at a glance that nothing was lost.
    """
    headers = ["#", "processor", "label", "kind", "start (s)",
               "duration (s)", "dominant phase"]
    rows = []
    for index, step in enumerate(observed.steps, start=1):
        rows.append(
            [
                str(index),
                step.processor,
                step.label,
                step.kind,
                f"{step.start:.1f}",
                f"{step.duration:.1f}",
                step.dominant_phase(),
            ]
        )
    totals = observed.phase_totals()
    phase_cells = [
        f"{key}={totals[key]:.1f}s" for key in PHASE_KEYS if key in totals
    ]
    lines = [
        f"run {observed.trace_id} ({observed.workflow}, {observed.policy}): "
        f"{len(observed.steps)} gating steps",
        _grid(headers, rows),
        "",
        "phase totals: " + (", ".join(phase_cells) or "(none)"),
        f"grid overhead on the chain: {observed.overhead_total():.1f}s",
        f"chain total: {observed.total:.1f}s = run makespan {observed.makespan:.1f}s",
    ]
    return "\n".join(lines)


def format_critical_path_diff(diff: CriticalPathDiff) -> str:
    """Static prediction vs observed gating services, one verdict line."""
    lines = [
        "static prediction: " + (" -> ".join(diff.static) or "(empty)"),
        "observed gating:   " + (" -> ".join(diff.observed) or "(empty)"),
    ]
    if diff.matches:
        lines.append("verdict: observed chain matches the static prediction")
    else:
        if diff.missing:
            lines.append(
                "predicted but never gated: " + ", ".join(diff.missing)
            )
        if diff.unexpected:
            lines.append(
                "gated but not predicted:   " + ", ".join(diff.unexpected)
            )
    return "\n".join(lines)


def format_ce_utilization(rows: Sequence[Mapping[str, object]]) -> str:
    """Per-CE summary table from ``timeline.utilization_table`` rows."""
    if not rows:
        return "(no grid jobs in the span stream)"
    headers = ["CE", "jobs", "peak running", "peak queued",
               "busy fraction", "mean running"]
    out = [
        [
            str(row["ce"]),
            str(row["jobs"]),
            str(row["peak_running"]),
            str(row["peak_queued"]),
            f"{row['busy_fraction']:.0%}",
            f"{row['mean_running']:.2f}",
        ]
        for row in rows
    ]
    return _grid(headers, out)


def format_run_comparison(comparison: RunComparison) -> str:
    """Baseline-vs-candidate verdict: every changed key, both values."""
    baseline = comparison.baseline
    candidate = comparison.candidate

    def show(value: object) -> str:
        return "(absent)" if value is None else repr(value)

    lines = [
        f"baseline:  {baseline.run_id or '(file)'} {baseline.policy} "
        f"makespan {baseline.makespan:.1f}s",
        f"candidate: {candidate.run_id or '(file)'} {candidate.policy} "
        f"makespan {candidate.makespan:.1f}s",
        f"compared {len(comparison.checked)} keys "
        "(run_id, note and created_at are provenance)",
    ]
    if comparison.changes:
        lines.append("")
        lines.append("changed:")
        lines.extend(
            f"  {change.key}: {show(change.baseline)} -> {show(change.candidate)}"
            for change in comparison.changes
        )
    lines.append("")
    lines.append(
        "verdict: OK (identical)"
        if comparison.ok
        else f"verdict: {len(comparison.changes)} key(s) changed "
        "(re-record the baseline if the change is intended)"
    )
    return "\n".join(lines)


def format_health(table: Sequence[CEHealth]) -> str:
    """Per-CE health table from ``RunMonitor.health_table()``."""
    if not table:
        return "(no grid activity observed)"
    headers = ["CE", "score", "attempts", "faults", "fault rate",
               "stragglers", "med queue", "med run", "med TTF", "flags"]
    rows = []
    for health in table:
        flags = []
        if health.is_blackhole:
            flags.append("BLACKHOLE")
        if health.is_straggler:
            flags.append("STRAGGLER")
        rows.append([
            health.ce,
            f"{health.score:.2f}",
            str(health.attempts),
            str(health.faults),
            f"{health.fault_rate:.0%}",
            f"{health.straggler_jobs}/{health.completed}",
            f"{health.median_queue:.1f}s",
            f"{health.median_run:.1f}s",
            f"{health.median_ttf:.1f}s" if health.faults else "-",
            ",".join(flags) or "-",
        ])
    return _grid(headers, rows)


def format_alerts(alerts: Sequence[Alert]) -> str:
    """Chronological alert table from ``RunMonitor.sorted_alerts()``."""
    if not alerts:
        return "(no alerts raised)"
    headers = ["t (s)", "kind", "severity", "scope", "subject", "message"]
    rows = [
        [
            f"{alert.time:.1f}",
            alert.kind,
            alert.severity,
            alert.scope,
            alert.subject,
            alert.message,
        ]
        for alert in alerts
    ]
    return _grid(headers, rows)


def format_failures(rows: Sequence[Mapping[str, object]]) -> str:
    """Dead-letter table from failure-report rows.

    Accepts :meth:`repro.core.failures.FailureReport.to_rows` (live run)
    or :func:`repro.observability.failure_rows_from_spans` (exported
    trace) — the two produce the same row schema.
    """
    if not rows:
        return "(no contained failures)"
    headers = ["processor", "item", "kind", "computing elements", "error"]
    table = []
    for row in rows:
        ces = row.get("computing_elements") or ()
        table.append(
            [
                str(row.get("processor", "")),
                str(row.get("label", "")),
                str(row.get("kind", "failed")),
                ", ".join(str(c) for c in ces) or "-",
                _truncate(str(row.get("error", "")), 60),
            ]
        )
    return _grid(headers, table)


def _truncate(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def paper_comparison(sweep: SweepResult) -> str:
    """Side-by-side paper-vs-measured table for every Table 1 cell.

    Also reports, per configuration, the paper's regression line next
    to the measured one — the shape comparison EXPERIMENTS.md records.
    """
    headers = ["Configuration", "size", "paper (s)", "measured (s)", "measured/paper"]
    rows = []
    for label in sweep.config_labels:
        for size in sweep.sizes:
            paper = PAPER_TABLE1.get(label, {}).get(size)
            measured = sweep.cell(label, size).makespan
            ratio = f"{measured / paper:.2f}" if paper else "-"
            rows.append([label, size, f"{paper:.0f}" if paper else "-", f"{measured:.0f}", ratio])
    table = _grid(headers, rows)

    fits = sweep.table2()
    headers2 = ["Configuration", "paper y-int", "measured y-int", "paper slope", "measured slope"]
    rows2 = []
    for label in sweep.config_labels:
        paper = PAPER_TABLE2.get(label)
        fit = fits[label]
        rows2.append(
            [
                label,
                f"{paper[0]:.0f}" if paper else "-",
                f"{fit.y_intercept:.0f}",
                f"{paper[1]:.0f}" if paper else "-",
                f"{fit.slope:.1f}",
            ]
        )
    return table + "\n\n" + _grid(headers2, rows2)


def check_ordering(sweep: SweepResult) -> Dict[int, bool]:
    """Check the paper's headline shape at every size.

    The published ordering at every input size is
    ``NOP > JG > SP > DP > SP+DP > SP+DP+JG``; returns size -> whether
    the measured sweep preserves it.
    """
    expected = ["NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"]
    present = [label for label in expected if label in sweep.config_labels]
    verdict: Dict[int, bool] = {}
    for size in sweep.sizes:
        times = [sweep.cell(label, size).makespan for label in present]
        verdict[size] = all(t1 > t2 for t1, t2 in zip(times, times[1:]))
    return verdict
