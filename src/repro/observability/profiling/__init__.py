"""Hot-path profiling: deterministic scopes and flamegraphs.

The measurement side of making the event core fast: it names where
the time goes before anyone rebuilds anything.  A :class:`Profiler` watches an enactment from outside
through one ``sys.setprofile`` hook (:meth:`Profiler.active`) and
accounts every ``repro`` function — event dispatch, resumed process
bodies, invocation lifecycle, submission, brokering, cache lookups,
and the instrumentation bus itself — into a scope tree with per-call
self/cumulative time, bucketed per component.  Snapshots
(:class:`Profile`) export to collapsed-stack / speedscope flamegraphs
and diff into ranked per-component regression tables
(``profile diff``), the one place host cost is attributed: run
summaries carry no profile counters.

No code outside this package refers to the profiler: off, it costs
nothing.
"""

from repro.observability.profiling.attribution import (
    ComponentDelta,
    ProfileDiff,
    ScopeDelta,
    attribute,
    diff_profiles,
    format_profile_diff,
    format_profile_report,
)
from repro.observability.profiling.clock import (
    Clock,
    ManualClock,
    TickClock,
    wall_clock,
)
from repro.observability.profiling.flamegraph import (
    collapsed_weights,
    parse_collapsed,
    parse_speedscope,
    speedscope_json,
    to_collapsed,
    to_speedscope,
)
from repro.observability.profiling.profiler import (
    Profile,
    Profiler,
    ProfilerError,
    ScopeStats,
)

__all__ = [
    "Clock",
    "wall_clock",
    "TickClock",
    "ManualClock",
    "Profiler",
    "Profile",
    "ProfilerError",
    "ScopeStats",
    "collapsed_weights",
    "to_collapsed",
    "parse_collapsed",
    "to_speedscope",
    "parse_speedscope",
    "speedscope_json",
    "ComponentDelta",
    "ScopeDelta",
    "ProfileDiff",
    "attribute",
    "diff_profiles",
    "format_profile_report",
    "format_profile_diff",
]
