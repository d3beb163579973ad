"""Tests for profile diffs and regression attribution."""

import pytest

from repro.observability.profiling import (
    ManualClock,
    Profiler,
    attribute,
    diff_profiles,
    format_profile_diff,
    format_profile_report,
)

# scope names as the setprofile hook spells them
STEP = "engine.sim.engine:Engine.step"
INVOKE = "enactor.core.enactor:MoteurEnactor._invoke"


def build_profile(engine_us=100, enactor_us=50, label=None):
    profiler = Profiler(clock=ManualClock(), label=label)
    clock = profiler.clock
    with profiler.scope(STEP):
        clock.advance(engine_us * 1e-6)
        with profiler.scope(INVOKE):
            clock.advance(enactor_us * 1e-6)
    return profiler.snapshot()


class TestAttribute:
    def test_worst_regression_ranks_first(self):
        base = build_profile(engine_us=100, enactor_us=50)
        cand = build_profile(engine_us=120, enactor_us=200)
        deltas = attribute(base, cand)
        assert [d.component for d in deltas] == ["enactor", "engine"]
        assert deltas[0].delta_us == pytest.approx(150.0)
        assert deltas[0].ratio == pytest.approx(3.0)
        assert (deltas[0].baseline_calls, deltas[0].candidate_calls) == (1, 1)

    def test_one_sided_components_count_from_zero(self):
        profiler = Profiler(clock=ManualClock())
        with profiler.scope("cache.cache:ResultCache.lookup"):
            profiler.clock.advance(30e-6)
        deltas = attribute(Profiler(clock=ManualClock()).snapshot(), profiler.snapshot())
        assert len(deltas) == 1
        assert deltas[0].component == "cache"
        assert deltas[0].baseline_us == 0.0
        assert deltas[0].candidate_us == pytest.approx(30.0)

    def test_empty_when_no_breakdown_on_either_side(self):
        empty = Profiler(clock=ManualClock()).snapshot()
        assert attribute(empty, empty) == []


class TestFormatAttribution:
    def test_names_the_regressed_component(self):
        base = build_profile(engine_us=100, enactor_us=50)
        cand = build_profile(engine_us=100, enactor_us=150)
        lines = format_profile_diff(diff_profiles(base, cand)).splitlines()
        rows = lines[lines.index("") + 3:]
        assert rows[0].split()[:5] == ["enactor", "50", "150", "+100", "+200%"]
        assert rows[1].split()[:4] == ["engine", "100", "100", "+0"]
        moves = lines[lines.index("biggest scope moves (self time):") + 1:]
        assert moves == [f"  {STEP};{INVOKE}: 50us -> 150us (+100us)"]

    def test_empty_when_nothing_regressed(self):
        profile = build_profile()
        text = format_profile_diff(diff_profiles(profile, profile))
        assert "biggest scope moves" not in text
        rows = text.splitlines()[5:]
        assert [row.split()[3] for row in rows] == ["+0", "+0"]


class TestDiffProfiles:
    def test_components_and_scopes(self):
        base = build_profile(engine_us=100, enactor_us=50, label="base")
        cand = build_profile(engine_us=100, enactor_us=90, label="cand")
        diff = diff_profiles(base, cand)
        assert diff.top_component.component == "enactor"
        worst_scope = diff.scopes[0]
        assert worst_scope.path == (STEP, INVOKE)
        assert worst_scope.delta == pytest.approx(40e-6)

    def test_top_component_none_when_nothing_grew(self):
        profile = build_profile()
        assert diff_profiles(profile, profile).top_component is None


class TestFormatting:
    def test_report_mentions_components_and_scopes(self):
        text = format_profile_report(build_profile(label="r"))
        assert "profile: r" in text
        assert "component" in text
        assert f"{STEP};{INVOKE}" in text

    def test_diff_warns_on_clock_mismatch(self):
        wall_side = Profiler().snapshot()  # default clock -> "wall"
        manual_side = build_profile()  # ManualClock -> "custom"
        text = format_profile_diff(diff_profiles(wall_side, manual_side))
        assert "WARNING: clocks differ" in text
