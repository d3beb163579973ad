"""Turn profiles into answers: reports, diffs, regression attribution.

A tripped ``compare-runs --budget-throughput`` gate says the run got
slower; this module says *where*.  Three layers:

* :func:`profile_counters` folds a profile into flat runstore counters
  — ``perf.profile.<component>`` (self microseconds) and
  ``perf.profile.<component>.calls`` — so every runstore row carries a
  compact per-component breakdown next to ``perf.events_per_sec``.
* :func:`attribute` ranks the per-component deltas between two counter
  mappings (live profiles or stored runstore rows) — the table
  ``compare-runs`` prints when a throughput budget fails.
* :func:`diff_profiles` is the full-resolution version over two
  profile files: per-component and per-scope deltas, for
  ``repro profile diff``.

Components are scope-name prefixes (``engine``, ``enactor``, ``grid``,
``broker``, ``cache``, ``bus``, ...) — coarse on purpose: the question a
gate failure asks is "which subsystem do I profile next", not "which
line".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.observability.profiling.profiler import Profile

__all__ = [
    "PROFILE_PREFIX",
    "profile_counters",
    "components_from_counters",
    "ComponentDelta",
    "attribute",
    "ScopeDelta",
    "ProfileDiff",
    "diff_profiles",
    "format_attribution",
    "format_profile_report",
    "format_profile_diff",
]

#: runstore counter namespace for the per-component breakdown
PROFILE_PREFIX = "perf.profile."


def profile_counters(profile: Profile) -> Dict[str, float]:
    """Flatten a profile into runstore counters.

    ``perf.profile.<component>`` carries the component's self time in
    microseconds; ``perf.profile.<component>.calls`` its completed
    scope count.  Component names contain no dots, so the two are
    unambiguous to parse back.
    """
    counters: Dict[str, float] = {}
    for component, row in profile.by_component().items():
        counters[f"{PROFILE_PREFIX}{component}"] = round(row["self"] * 1e6, 1)
        counters[f"{PROFILE_PREFIX}{component}.calls"] = float(row["calls"])
    return counters


def components_from_counters(
    counters: Mapping[str, float],
) -> Dict[str, Dict[str, float]]:
    """Parse ``perf.profile.*`` counters back to per-component rows."""
    table: Dict[str, Dict[str, float]] = {}
    for key, value in counters.items():
        if not key.startswith(PROFILE_PREFIX):
            continue
        rest = key[len(PROFILE_PREFIX):]
        if rest.endswith(".calls"):
            component, field = rest[: -len(".calls")], "calls"
        elif "." not in rest:
            component, field = rest, "self_us"
        else:
            continue  # unknown sub-key; ignore rather than misattribute
        table.setdefault(component, {"self_us": 0.0, "calls": 0.0})[field] = float(
            value
        )
    return {name: table[name] for name in sorted(table)}


@dataclass(frozen=True)
class ComponentDelta:
    """One component's movement between baseline and candidate."""

    component: str
    baseline_us: float
    candidate_us: float
    baseline_calls: float = 0.0
    candidate_calls: float = 0.0

    @property
    def delta_us(self) -> float:
        return self.candidate_us - self.baseline_us

    @property
    def ratio(self) -> float:
        """Relative growth; a zero baseline reports the raw growth in seconds."""
        if self.baseline_us > 0:
            return self.delta_us / self.baseline_us
        return self.delta_us / 1e6

    def describe(self) -> str:
        return (
            f"{self.component}: {self.baseline_us:.0f}us -> "
            f"{self.candidate_us:.0f}us  ({self.delta_us:+.0f}us, "
            f"{self.ratio:+.0%}; calls {self.baseline_calls:.0f} -> "
            f"{self.candidate_calls:.0f})"
        )


def attribute(
    baseline: Mapping[str, float], candidate: Mapping[str, float]
) -> List[ComponentDelta]:
    """Rank components by absolute self-time growth, worst first.

    Inputs are counter mappings containing ``perf.profile.*`` keys —
    runstore rows or :func:`profile_counters` output.  Components seen
    on only one side count from/to zero.  Empty when neither side
    carries a profile breakdown.
    """
    left = components_from_counters(baseline)
    right = components_from_counters(candidate)
    deltas = [
        ComponentDelta(
            component=name,
            baseline_us=left.get(name, {}).get("self_us", 0.0),
            candidate_us=right.get(name, {}).get("self_us", 0.0),
            baseline_calls=left.get(name, {}).get("calls", 0.0),
            candidate_calls=right.get(name, {}).get("calls", 0.0),
        )
        for name in sorted(set(left) | set(right))
    ]
    return sorted(deltas, key=lambda d: (-d.delta_us, d.component))


@dataclass(frozen=True)
class ScopeDelta:
    """One scope path's self-time movement between two profiles."""

    path: Tuple[str, ...]
    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline


@dataclass(frozen=True)
class ProfileDiff:
    """Everything that moved between two profiles."""

    baseline: Profile
    candidate: Profile
    components: Tuple[ComponentDelta, ...]
    scopes: Tuple[ScopeDelta, ...]

    @property
    def top_component(self) -> "ComponentDelta | None":
        """The worst-regressed component, if anything regressed."""
        for delta in self.components:
            if delta.delta_us > 0:
                return delta
        return None


def diff_profiles(baseline: Profile, candidate: Profile) -> ProfileDiff:
    """Full-resolution diff: components and scopes."""
    components = attribute(profile_counters(baseline), profile_counters(candidate))
    left = {path: node.self_time for path, node in baseline.walk()}
    right = {path: node.self_time for path, node in candidate.walk()}
    scopes = sorted(
        (
            ScopeDelta(path, left.get(path, 0.0), right.get(path, 0.0))
            for path in set(left) | set(right)
        ),
        key=lambda d: (-d.delta, d.path),
    )
    return ProfileDiff(
        baseline=baseline,
        candidate=candidate,
        components=tuple(components),
        scopes=tuple(scopes),
    )


# -- formatting ------------------------------------------------------------


def format_attribution(deltas: List[ComponentDelta], limit: int = 5) -> List[str]:
    """Printable lines naming the top regressed components.

    Only components that actually grew appear; an empty list means the
    slowdown is not visible in the component breakdown (or no
    breakdown was recorded).
    """
    regressed = [d for d in deltas if d.delta_us > 0][:limit]
    if not regressed:
        return []
    lines = ["top regressed components (perf.profile.*, self time):"]
    lines.extend(f"  {delta.describe()}" for delta in regressed)
    return lines


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """Minimal aligned table (kept local: observability must not import
    the experiments reporting helpers)."""
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(row) for row in rows)
    return out


def format_profile_report(profile: Profile, limit: int = 15) -> str:
    """Human report: component table, hottest scopes."""
    lines: List[str] = [
        f"profile: {profile.label or '(unlabelled)'}  "
        f"clock={profile.clock}  total={profile.total_time * 1e3:.3f}ms"
    ]
    components = profile.by_component()
    total = profile.total_time or 1.0
    if components:
        rows = [
            [
                name,
                f"{row['self'] * 1e6:.0f}",
                f"{row['self'] / total:.1%}",
                f"{row['calls']:.0f}",
            ]
            for name, row in sorted(
                components.items(), key=lambda item: -item[1]["self"]
            )
        ]
        lines.append("")
        lines.extend(_table(["component", "self (us)", "share", "calls"], rows))
    hottest = profile.hottest(limit)
    if hottest:
        rows = [
            [
                ";".join(path),
                f"{node.self_time * 1e6:.0f}",
                f"{node.cum * 1e6:.0f}",
                f"{node.calls}",
            ]
            for path, node in hottest
        ]
        lines.append("")
        lines.extend(_table(["scope", "self (us)", "cum (us)", "calls"], rows))
    return "\n".join(lines)


def format_profile_diff(diff: ProfileDiff, limit: int = 10) -> str:
    """Human diff: ranked components, biggest scope moves."""
    lines = [
        f"baseline:  {diff.baseline.label or '(unlabelled)'}  "
        f"total={diff.baseline.total_time * 1e3:.3f}ms",
        f"candidate: {diff.candidate.label or '(unlabelled)'}  "
        f"total={diff.candidate.total_time * 1e3:.3f}ms",
    ]
    if diff.baseline.clock != diff.candidate.clock:
        lines.append(
            f"WARNING: clocks differ ({diff.baseline.clock} vs "
            f"{diff.candidate.clock}); deltas are not comparable units"
        )
    rows = [
        [
            d.component,
            f"{d.baseline_us:.0f}",
            f"{d.candidate_us:.0f}",
            f"{d.delta_us:+.0f}",
            f"{d.ratio:+.0%}",
            f"{d.baseline_calls:.0f} -> {d.candidate_calls:.0f}",
        ]
        for d in diff.components
    ]
    if rows:
        lines.append("")
        lines.extend(
            _table(
                ["component", "base (us)", "cand (us)", "delta", "ratio", "calls"],
                rows,
            )
        )
    moved = [d for d in diff.scopes if d.delta != 0.0][:limit]
    if moved:
        lines.append("")
        lines.append("biggest scope moves (self time):")
        lines.extend(
            f"  {';'.join(d.path)}: {d.baseline * 1e6:.0f}us -> "
            f"{d.candidate * 1e6:.0f}us ({d.delta * 1e6:+.0f}us)"
            for d in moved
        )
    return "\n".join(lines)
