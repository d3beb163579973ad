"""Tests for profile counters, diffs, and regression attribution."""

import pytest

from repro.observability.profiling import (
    ManualClock,
    Profiler,
    attribute,
    components_from_counters,
    diff_profiles,
    format_attribution,
    format_profile_diff,
    format_profile_report,
    profile_counters,
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


class TestProfileCounters:
    def test_counters_carry_self_micros_and_calls(self):
        counters = profile_counters(build_profile())
        assert counters["perf.profile.engine"] == pytest.approx(100.0)
        assert counters["perf.profile.engine.calls"] == 1.0
        assert counters["perf.profile.enactor"] == pytest.approx(50.0)

    def test_components_from_counters_is_the_inverse(self):
        counters = profile_counters(build_profile())
        table = components_from_counters(counters)
        assert table == {
            "engine": {"self_us": 100.0, "calls": 1.0},
            "enactor": {"self_us": 50.0, "calls": 1.0},
        }

    def test_non_profile_and_unknown_keys_ignored(self):
        table = components_from_counters(
            {
                "perf.events_per_sec": 9.0,
                "perf.profile.engine": 5.0,
                "perf.profile.engine.bogus.key": 1.0,
            }
        )
        assert table == {"engine": {"self_us": 5.0, "calls": 0.0}}


class TestAttribute:
    def test_worst_regression_ranks_first(self):
        base = profile_counters(build_profile(engine_us=100, enactor_us=50))
        cand = profile_counters(build_profile(engine_us=120, enactor_us=200))
        deltas = attribute(base, cand)
        assert deltas[0].component == "enactor"
        assert deltas[0].delta_us == pytest.approx(150.0)
        assert deltas[1].component == "engine"

    def test_one_sided_components_count_from_zero(self):
        deltas = attribute({}, {"perf.profile.cache": 30.0})
        assert len(deltas) == 1
        assert deltas[0].baseline_us == 0.0
        assert deltas[0].candidate_us == pytest.approx(30.0)

    def test_empty_when_no_breakdown_on_either_side(self):
        assert attribute({"perf.events_per_sec": 1.0}, {}) == []


class TestFormatAttribution:
    def test_names_the_regressed_component(self):
        base = profile_counters(build_profile(engine_us=100, enactor_us=50))
        cand = profile_counters(build_profile(engine_us=100, enactor_us=150))
        lines = format_attribution(attribute(base, cand))
        assert lines[0].startswith("top regressed components")
        assert any("enactor" in line for line in lines[1:])
        assert not any("engine:" in line for line in lines)

    def test_empty_when_nothing_regressed(self):
        counters = profile_counters(build_profile())
        assert format_attribution(attribute(counters, counters)) == []


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
