"""Hot-path profiling: deterministic scopes and flamegraphs.

The measurement side of ROADMAP item 2 ("make the event core
scream").  A :class:`Profiler` watches an enactment from outside
through one ``sys.setprofile`` hook (:meth:`Profiler.active`) and
accounts every ``repro`` function — event dispatch, resumed process
bodies, invocation lifecycle, submission, brokering, cache lookups,
and the instrumentation bus itself — into a scope tree with per-call
self/cumulative time, bucketed per component.  Snapshots
(:class:`Profile`) export to collapsed-stack / speedscope flamegraphs
and diff into ranked per-component regression tables that
``compare-runs`` prints when a throughput budget trips.

No code outside this package refers to the profiler: off, it costs
nothing.
"""

from repro.observability.profiling.attribution import (
    PROFILE_PREFIX,
    ComponentDelta,
    ProfileDiff,
    ScopeDelta,
    attribute,
    components_from_counters,
    diff_profiles,
    format_attribution,
    format_profile_diff,
    format_profile_report,
    profile_counters,
)
from repro.observability.profiling.clock import (
    Clock,
    ManualClock,
    TickClock,
    resolve_clock,
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
    "resolve_clock",
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
    "PROFILE_PREFIX",
    "profile_counters",
    "components_from_counters",
    "ComponentDelta",
    "ScopeDelta",
    "ProfileDiff",
    "attribute",
    "diff_profiles",
    "format_attribution",
    "format_profile_report",
    "format_profile_diff",
]
