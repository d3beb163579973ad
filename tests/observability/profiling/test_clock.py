"""Tests for the shared clock helpers."""

import pytest

from repro.observability.profiling import (
    ManualClock,
    TickClock,
    resolve_clock,
    wall_clock,
)


class TestWallClock:
    def test_monotone(self):
        readings = [wall_clock() for _ in range(10)]
        assert readings == sorted(readings)


class TestTickClock:
    def test_every_reading_advances_one_quantum(self):
        clock = TickClock(quantum=0.5)
        assert clock() == pytest.approx(0.5)
        assert clock() == pytest.approx(1.0)
        assert clock.ticks == 2

    def test_tick_reads_whole_quanta(self):
        clock = TickClock(quantum=0.5)
        assert clock.tick() == 1
        assert clock() == pytest.approx(1.0)
        assert clock.tick() == 3

    def test_default_quantum_is_one_microsecond(self):
        clock = TickClock()
        assert clock() == pytest.approx(1e-6)

    def test_rejects_nonpositive_quantum(self):
        with pytest.raises(ValueError, match="quantum"):
            TickClock(quantum=0.0)

    def test_two_clocks_are_independent(self):
        a, b = TickClock(), TickClock()
        a()
        a()
        assert b() == pytest.approx(1e-6)


class TestManualClock:
    def test_reads_do_not_advance(self):
        clock = ManualClock(now=3.0)
        assert clock() == clock() == 3.0

    def test_advance(self):
        clock = ManualClock()
        assert clock.advance(2.5) == 2.5
        assert clock() == 2.5

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestResolveClock:
    def test_none_and_wall_map_to_shared_helper(self):
        assert resolve_clock(None) is wall_clock
        assert resolve_clock("wall") is wall_clock

    def test_deterministic_returns_fresh_tick_clock(self):
        one = resolve_clock("deterministic")
        two = resolve_clock("tick")
        assert isinstance(one, TickClock) and isinstance(two, TickClock)
        assert one is not two

    def test_callable_passes_through(self):
        clock = ManualClock()
        assert resolve_clock(clock) is clock

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown clock"):
            resolve_clock("sundial")
