"""Property: scope self times always sum to the root cumulative time.

Whatever shape the scope tree takes — however enter/exit interleave,
however deep the nesting, however often names repeat — every quantum
the clock hands out while a scope is open must be accounted to exactly
one scope's self time.  The flamegraph exports and the per-component
``perf.profile.*`` counters both lean on this invariant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.profiling import ManualClock, Profiler, TickClock

# scope names as the setprofile hook spells them
NAMES = (
    "engine.sim.engine:Engine.step",
    "enactor.core.enactor:MoteurEnactor._invoke",
    "grid.grid.middleware:Grid.submit",
    "broker.grid.broker:ResourceBroker._choose",
)

# (name_index, advance_micros) per step; the replay below balances the
# enters/exits itself, so any list of steps is a valid program.
programs = st.lists(
    st.tuples(st.integers(0, len(NAMES) - 1), st.integers(0, 50)),
    max_size=40,
)


def replay(profiler, clock, program, max_depth=6):
    """Turn a step list into a balanced enter/advance/exit sequence."""
    for name_index, micros in program:
        if profiler.depth >= max_depth or (profiler.depth > 0 and micros % 3 == 0):
            profiler.exit()
        else:
            profiler.enter(NAMES[name_index])
        if clock is not None:
            clock.advance(micros * 1e-6)
    while profiler.depth:
        profiler.exit()


def total_self_time(profile):
    return sum(node.self_time for _path, node in profile.walk())


class TestSelfTimesSumToRootCum:
    @given(program=programs)
    @settings(max_examples=200, deadline=None)
    def test_manual_clock(self, program):
        clock = ManualClock()
        profiler = Profiler(clock=clock)
        replay(profiler, clock, program)
        profile = profiler.snapshot()
        assert total_self_time(profile) == pytest.approx(
            profile.total_time, abs=1e-12
        )

    @given(program=programs)
    @settings(max_examples=200, deadline=None)
    def test_tick_clock(self, program):
        # The deterministic clock advances on every reading, including
        # the profiler's own enter/exit bookkeeping reads — the
        # invariant must absorb that too.
        profiler = Profiler(clock=TickClock())
        replay(profiler, None, program)
        profile = profiler.snapshot()
        assert total_self_time(profile) == pytest.approx(
            profile.total_time, abs=1e-12
        )

    @given(program=programs)
    @settings(max_examples=100, deadline=None)
    def test_component_self_times_partition_the_total(self, program):
        clock = ManualClock()
        profiler = Profiler(clock=clock)
        replay(profiler, clock, program)
        profile = profiler.snapshot()
        by_component = sum(
            row["self"] for row in profile.by_component().values()
        )
        assert by_component == pytest.approx(profile.total_time, abs=1e-12)
