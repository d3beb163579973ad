"""Flamegraph exporter tests: strict round-trips and byte-identity.

The byte-identity test is the acceptance criterion for the
deterministic clock: two identically seeded bronze enactments must
produce the same profile JSON and the same flamegraph exports, byte
for byte.
"""

import pytest

from repro.apps.bronze_standard import BronzeStandardApplication
from repro.core.config import OptimizationConfig
from repro.grid.testbeds import egee_like_testbed
from repro.observability.profiling import (
    ManualClock,
    Profiler,
    ProfilerError,
    TickClock,
    collapsed_weights,
    parse_collapsed,
    parse_speedscope,
    speedscope_json,
    to_collapsed,
    to_speedscope,
)
from repro.sim.engine import Engine
from repro.util.rng import RandomStreams

# scope names as the setprofile hook spells them
STEP = "engine.sim.engine:Engine.step"
INVOKE = "enactor.core.enactor:MoteurEnactor._invoke"
LOOKUP = "cache.cache:ResultCache.lookup"
RANK = "broker.grid.broker:ResourceBroker._choose"


def sample_profile():
    profiler = Profiler(clock=ManualClock(), label="sample")
    clock = profiler.clock
    with profiler.scope(STEP):
        clock.advance(10e-6)
        with profiler.scope(INVOKE):
            clock.advance(25e-6)
        with profiler.scope(LOOKUP):
            clock.advance(3e-6)
    with profiler.scope(RANK):
        clock.advance(7e-6)
    return profiler.snapshot()


def profiled_bronze(seed=42, pairs=2):
    """One deterministic-clock bronze enactment; returns the Profile."""
    engine = Engine()
    streams = RandomStreams(seed=seed)
    grid = egee_like_testbed(
        engine, streams, n_sites=6, workers_per_ce=40, with_background_load=False
    )
    app = BronzeStandardApplication(engine, grid, streams)
    config = next(
        c for c in OptimizationConfig.paper_configurations() if c.label == "SP+DP"
    )
    profiler = Profiler(clock=TickClock(), label="bronze smoke")
    app.enact(config, n_pairs=pairs, profiler=profiler)
    return profiler.snapshot()


class TestCollapsed:
    def test_roundtrip_through_strict_parser(self):
        profile = sample_profile()
        assert parse_collapsed(to_collapsed(profile)) == collapsed_weights(profile)

    def test_weights_are_self_time_micros(self):
        weights = collapsed_weights(sample_profile())
        assert weights[(STEP,)] == 10
        assert weights[(STEP, INVOKE)] == 25
        assert weights[(RANK,)] == 7

    def test_zero_weight_stacks_dropped(self):
        profiler = Profiler(clock=ManualClock())
        with profiler.scope("instant"):
            pass
        assert collapsed_weights(profiler.snapshot()) == {}
        assert to_collapsed(profiler.snapshot()) == ""

    def test_lines_sorted_and_newline_terminated(self):
        text = to_collapsed(sample_profile())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines == sorted(lines)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("stackonly", "not 'stack weight'"),
            ("a;b twelve", "not an integer"),
            ("a;b 0", "must be positive"),
            ("a;;b 3", "empty frame"),
            ("a 1\na 2", "duplicate stack"),
        ],
    )
    def test_strict_parser_rejects(self, bad, message):
        with pytest.raises(ProfilerError, match=message):
            parse_collapsed(bad)


class TestSpeedscope:
    def test_roundtrip_through_strict_parser(self):
        profile = sample_profile()
        assert parse_speedscope(to_speedscope(profile)) == collapsed_weights(profile)
        assert parse_speedscope(speedscope_json(profile)) == (
            collapsed_weights(profile)
        )

    def test_end_value_equals_weight_sum(self):
        doc = to_speedscope(sample_profile())
        prof = doc["profiles"][0]
        assert prof["endValue"] == sum(prof["weights"])

    def test_parser_rejects_wrong_schema(self):
        doc = to_speedscope(sample_profile())
        doc["$schema"] = "https://example.com/nope.json"
        with pytest.raises(ProfilerError, match="schema"):
            parse_speedscope(doc)

    def test_parser_rejects_frame_index_out_of_range(self):
        doc = to_speedscope(sample_profile())
        doc["profiles"][0]["samples"][0] = [999]
        with pytest.raises(ProfilerError, match="out of range"):
            parse_speedscope(doc)

    def test_parser_rejects_mismatched_end_value(self):
        doc = to_speedscope(sample_profile())
        doc["profiles"][0]["endValue"] = 1
        with pytest.raises(ProfilerError, match="endValue"):
            parse_speedscope(doc)

    def test_parser_rejects_non_json_text(self):
        with pytest.raises(ProfilerError, match="not JSON"):
            parse_speedscope("{broken")


class TestByteIdentity:
    """Two identically seeded runs -> identical bytes, everywhere."""

    def test_profiles_and_flamegraphs_are_byte_identical(self):
        first = profiled_bronze(seed=42)
        second = profiled_bronze(seed=42)
        assert first.to_json() == second.to_json()
        assert to_collapsed(first) == to_collapsed(second)
        assert speedscope_json(first) == speedscope_json(second)

    def test_different_seeds_still_roundtrip(self):
        profile = profiled_bronze(seed=7)
        assert parse_collapsed(to_collapsed(profile)) == collapsed_weights(profile)
        assert parse_speedscope(speedscope_json(profile)) == (
            collapsed_weights(profile)
        )

    def test_bronze_profile_names_hot_components(self):
        components = profiled_bronze(seed=42).by_component()
        assert "engine" in components
        assert "enactor" in components
        assert components["engine"]["self"] > 0
