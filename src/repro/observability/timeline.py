"""Resource timelines: utilization and queue-depth curves from spans.

The paper's execution diagrams (Figures 4-6) show *what ran when*; this
module derives the infrastructure view from the same span stream —
per computing element, how many jobs were running and how many sat in
the batch queue at every instant — plus a dependency-free ASCII Gantt
renderer so the terminal can show both layers at once:

* the **enactor lanes** (one per processor) reproduce the paper's
  diagrams on real simulated time,
* the **grid lanes** (one per CE) show where the broker put the load
  and where the queues backed up — the per-resource story behind a
  DP burst or an SP pipeline.

The two interval sweeps here (:func:`step_function` and
:func:`busy_seconds`) are the only copies in the tree:
:class:`repro.core.trace.ExecutionTrace` calls ``step_function`` for
its peak concurrency.  Zero-duration intervals are
handled as bursts: a cache hit (an instantaneous span) still produces
a visible ``(t, n+1)`` blip.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.observability.spans import Span

__all__ = [
    "step_function",
    "peak",
    "time_average",
    "busy_seconds",
    "utilization_table",
    "render_gantt",
]

Profile = List[Tuple[float, int]]


def step_function(intervals: Iterable[Tuple[float, float]]) -> Profile:
    """``(time, active_count)`` breakpoints for a set of intervals.

    Zero-length intervals contribute a momentary ``(t, active + burst)``
    breakpoint immediately followed by ``(t, active)``, so peaks see
    them while the profile still settles at the correct steady level.
    """
    starts: Dict[float, int] = {}
    ends: Dict[float, int] = {}
    instants: Dict[float, int] = {}
    for begin, finish in intervals:
        if begin == finish:
            instants[begin] = instants.get(begin, 0) + 1
        else:
            starts[begin] = starts.get(begin, 0) + 1
            ends[finish] = ends.get(finish, 0) + 1
    profile: Profile = []
    active = 0
    for time in sorted({*starts, *ends, *instants}):
        active += starts.get(time, 0) - ends.get(time, 0)
        burst = instants.get(time, 0)
        if burst:
            profile.append((time, active + burst))
        profile.append((time, active))
    return profile


def peak(profile: Profile) -> int:
    """Highest level the step function reaches (0 when empty)."""
    return max((count for _, count in profile), default=0)


def time_average(profile: Profile, start: float, end: float) -> float:
    """Time-weighted mean level of *profile* over ``[start, end]``."""
    if end <= start:
        return 0.0
    total = 0.0
    level = 0
    cursor = start
    for time, count in profile:
        if time > cursor:
            total += level * (min(time, end) - cursor)
            cursor = min(time, end)
        if time >= end:
            break
        level = count
    if cursor < end:
        total += level * (end - cursor)
    return total / (end - start)


def busy_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Union-of-intervals coverage (overlaps not double-counted)."""
    busy = 0.0
    current_start: Optional[float] = None
    current_end = float("-inf")
    for begin, finish in sorted(intervals):
        if current_start is None or begin > current_end:
            if current_start is not None:
                busy += current_end - current_start
            current_start, current_end = begin, finish
        else:
            current_end = max(current_end, finish)
    if current_start is not None:
        busy += current_end - current_start
    return busy


def _intervals_by_ce(
    spans: Iterable[Span], name: str
) -> Dict[str, List[Tuple[float, float]]]:
    out: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.name != name or span.end is None:
            continue
        ce = span.attributes.get("ce")
        if ce is None:
            continue
        out.setdefault(str(ce), []).append((span.start, span.end))
    return out


def utilization_table(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """One summary row per CE: jobs, peaks, busy fraction.

    Rows are plain dicts (``ce``, ``jobs``, ``peak_running``,
    ``peak_queued``, ``busy_fraction``, ``mean_running``) so reporting
    can format them without importing this module's internals.
    """
    running = _intervals_by_ce(spans, "job.run")
    queued = _intervals_by_ce(spans, "job.queue")
    window = _window(spans)
    rows: List[Dict[str, object]] = []
    for ce in sorted(set(running) | set(queued)):
        intervals = running.get(ce, [])
        profile = step_function(intervals)
        span_of_run = 0.0
        mean = 0.0
        if window is not None:
            span_of_run = window[1] - window[0]
            mean = time_average(profile, *window)
        rows.append(
            {
                "ce": ce,
                "jobs": len(intervals),
                "peak_running": peak(profile),
                "peak_queued": peak(step_function(queued.get(ce, []))),
                "busy_fraction": (
                    busy_seconds(intervals) / span_of_run if span_of_run > 0 else 0.0
                ),
                "mean_running": mean,
            }
        )
    return rows


# -- ASCII Gantt ---------------------------------------------------------


def _window(spans: Sequence[Span]) -> Optional[Tuple[float, float]]:
    """The run span's bounds, or the stream's envelope as a fallback."""
    runs = [s for s in spans if s.name == "run" and s.end is not None]
    if runs:
        return min(s.start for s in runs), max(s.end for s in runs)  # type: ignore[type-var]
    finished = [s for s in spans if s.end is not None]
    if not finished:
        return None
    return min(s.start for s in finished), max(s.end for s in finished)  # type: ignore[type-var]


def _level_char(count: int) -> str:
    if count <= 0:
        return "."
    if count == 1:
        return "#"
    if count <= 9:
        return str(count)
    return "+"


def _lane_row(
    intervals: Sequence[Tuple[float, float]], t0: float, dt: float, width: int
) -> str:
    counts = [0] * width
    for begin, finish in intervals:
        if dt <= 0:
            first, last = 0, width - 1
        else:
            first = int((begin - t0) / dt)
            # a zero-length interval still owns the cell containing it
            last = int(max(finish - t0, begin - t0) / dt)
            if finish > begin and (finish - t0) / dt == float(last) and last > first:
                last -= 1  # half-open: an interval ending on a boundary stays left
        for column in range(max(0, first), min(width - 1, last) + 1):
            counts[column] += 1
    return "".join(_level_char(c) for c in counts)


def render_gantt(
    spans: Sequence[Span],
    width: int = 72,
    include_queue: bool = True,
) -> str:
    """Terminal Gantt chart of one span stream, no dependencies.

    Three lane groups: invocations per processor (the enactor's view),
    running jobs per CE, and — when *include_queue* — queue depth per
    CE.  Cells show concurrency: ``.`` idle, ``#`` one, digits for 2-9,
    ``+`` beyond.  Lane labels are left-padded; every CE that ran or
    queued a job gets a row even if the window squeezes its activity
    into a single column.
    """
    window = _window(spans)
    if window is None:
        return "(no finished spans to render)"
    t0, t1 = window
    horizon = max(t1 - t0, 0.0)
    dt = horizon / width if width > 0 else 0.0

    lanes: List[Tuple[str, str, Sequence[Tuple[float, float]]]] = []
    by_processor: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.name == "invocation" and span.end is not None:
            processor = str(span.attributes.get("processor", "?"))
            by_processor.setdefault(processor, []).append((span.start, span.end))
    for processor, intervals in by_processor.items():
        lanes.append(("invocations", processor, intervals))
    running = _intervals_by_ce(spans, "job.run")
    for ce in sorted(running):
        lanes.append(("running", ce, running[ce]))
    if include_queue:
        queued = _intervals_by_ce(spans, "job.queue")
        for ce in sorted(queued):
            lanes.append(("queued", ce, queued[ce]))

    if not lanes:
        return "(no invocation or job spans to render)"

    label_width = max(len(label) for _, label, _ in lanes)
    lines: List[str] = [
        f"window: {t0:.1f}s .. {t1:.1f}s "
        f"({horizon:.1f}s, {dt:.1f}s/column; . idle, # one, 2-9/+ overlap)"
    ]
    group_titles = {
        "invocations": "enactor: invocations per processor",
        "running": "grid: running jobs per CE",
        "queued": "grid: queued jobs per CE",
    }
    current_group: Optional[str] = None
    for group, label, intervals in lanes:
        if group != current_group:
            lines.append(f"-- {group_titles[group]} --")
            current_group = group
        row = _lane_row(intervals, t0, dt, width)
        profile = step_function(intervals)
        lines.append(
            f"{label.rjust(label_width)} |{row}| n={len(intervals)} peak={peak(profile)}"
        )
    return "\n".join(lines)
