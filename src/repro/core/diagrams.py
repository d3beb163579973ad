"""Paper-style execution diagrams (Figures 4, 5 and 6).

"On this kind of diagram, the abscissa axis represents time.  When a
data set Di appears on a row corresponding to a processor Pj, it means
that Di is being processed by Pj at the current time. [...] Crosses
represent idle cycles."

:func:`execution_diagram` renders an :class:`~repro.core.trace.ExecutionTrace`
into that exact visual language: one row per processor (top-most = last
processor, as in the paper), time discretized into cells of a given
width; each cell shows the labels of the items being processed during
that slot, or ``X`` when the processor is idle.  An event spanning
several cells repeats its label in each (the paper's ``D1 D1 D1`` for a
three-slot-long job in Figure 6).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.trace import ExecutionTrace

__all__ = ["execution_diagram", "infer_cell_width", "diagram_rows"]


def infer_cell_width(trace: ExecutionTrace) -> float:
    """Guess a good time-cell width: the shortest event duration.

    For the constant-time workloads of Figures 4/5 every event has the
    same duration T, so the guess is exact.
    """
    durations = [e.duration for e in trace if e.duration > 0]
    if not durations:
        return 1.0
    return min(durations)


def diagram_rows(
    trace: ExecutionTrace,
    processors: Optional[Sequence[str]] = None,
    cell: Optional[float] = None,
) -> "dict[str, List[str]]":
    """The diagram as data: processor -> list of cell strings."""
    if processors is None:
        processors = trace.processors()
    width = cell if cell is not None else infer_cell_width(trace)
    if width <= 0:
        raise ValueError(f"cell width must be > 0, got {width}")
    t0 = trace.start_time or 0.0
    t_end = trace.end_time or 0.0
    n_cells = max(1, math.ceil((t_end - t0) / width - 1e-9))
    rows: "dict[str, List[str]]" = {}
    for processor in processors:
        events = trace.for_processor(processor)
        cells: List[str] = []
        for k in range(n_cells):
            lo = t0 + k * width
            hi = lo + width
            # Use a strictly interior probe band so touching endpoints
            # do not bleed into neighbouring cells.
            labels = [
                e.label for e in events if e.overlaps(lo + 1e-9, hi - 1e-9)
            ]
            cells.append(" ".join(labels) if labels else "X")
        rows[processor] = cells
    return rows


def execution_diagram(
    trace: ExecutionTrace,
    processors: Optional[Sequence[str]] = None,
    cell: Optional[float] = None,
    reverse: bool = True,
) -> str:
    """Render the trace in the paper's Figure 4/5/6 style.

    ``reverse=True`` puts the last processor on top, matching the paper
    (P3 above P2 above P1).
    """
    rows = diagram_rows(trace, processors=processors, cell=cell)
    names = list(rows)
    if reverse:
        names = names[::-1]
    name_width = max((len(n) for n in names), default=1)
    cell_width = max(
        (len(content) for cells in rows.values() for content in cells), default=1
    )
    lines = []
    for name in names:
        cells = " | ".join(content.center(cell_width) for content in rows[name])
        lines.append(f"{name.rjust(name_width)} | {cells} |")
    return "\n".join(lines)
