"""Turn profiles into answers: reports, diffs, regression attribution.

Run summaries hold simulated quantities only, so a saved profile is
where host cost is attributed.  Two layers:

* :func:`attribute` ranks the per-component self-time deltas between
  two profiles, worst first.
* :func:`diff_profiles` adds the per-scope deltas — the table
  ``repro profile diff`` prints, ending with the top regressed
  component.

Components are scope-name prefixes (``engine``, ``enactor``, ``grid``,
``broker``, ``cache``, ``bus``, ...) — coarse on purpose: the question a
slowdown asks is "which subsystem do I profile next", not "which
line".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.observability.profiling.profiler import Profile

__all__ = [
    "ComponentDelta",
    "attribute",
    "ScopeDelta",
    "ProfileDiff",
    "diff_profiles",
    "format_profile_report",
    "format_profile_diff",
]


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


def attribute(baseline: Profile, candidate: Profile) -> List[ComponentDelta]:
    """Rank components by absolute self-time growth, worst first.

    Components seen in only one profile count from/to zero.  Empty when
    neither profile accounted anything.
    """
    left, right = baseline.by_component(), candidate.by_component()
    none = {"self": 0.0, "calls": 0}
    deltas = [
        ComponentDelta(
            component=name,
            baseline_us=left.get(name, none)["self"] * 1e6,
            candidate_us=right.get(name, none)["self"] * 1e6,
            baseline_calls=left.get(name, none)["calls"],
            candidate_calls=right.get(name, none)["calls"],
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
    components = attribute(baseline, candidate)
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
