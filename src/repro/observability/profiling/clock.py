"""The one time source every performance number routes through.

``wall_clock`` is a monotonic wall-time reading (``time.perf_counter``)
behind one name, shared by the profiler, the service throughput
counters (:meth:`repro.service.scheduler.EnactmentService.perf_counters`)
and the benchmarks, so swapping the time source is one assignment.

Two identically seeded runs must produce *byte-identical* profile
files, which no wall clock can deliver.  :class:`TickClock` is the
deterministic alternative: every reading advances a fixed quantum, so
durations are call counts in disguise — reproducible across runs,
machines and CI, with the tree shape and relative weights that
flamegraphs and regression attribution need.  :class:`ManualClock` is
the test double whose reading only moves when the test says so.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "wall_clock", "TickClock", "ManualClock", "resolve_clock"]

#: anything callable returning "seconds now" works as a clock
Clock = Callable[[], float]


def wall_clock() -> float:
    """Monotonic wall-clock seconds (the shared ``perf_counter`` alias)."""
    return time.perf_counter()


class TickClock:
    """Deterministic clock: each reading advances one fixed quantum.

    With this clock a scope's "duration" is proportional to the number
    of clock readings taken inside it — i.e. to the number of profiled
    operations — which is a pure function of the simulation's seeded
    control flow.  Same seed, same profile bytes.
    """

    __slots__ = ("ticks", "quantum")

    def __init__(self, quantum: float = 1e-6) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        self.ticks = 0
        self.quantum = quantum

    def tick(self) -> int:
        """Advance one quantum; returns the reading in whole quanta."""
        self.ticks += 1
        return self.ticks

    def __call__(self) -> float:
        return self.tick() * self.quantum


class ManualClock:
    """Test clock: reads return the value last set/advanced to."""

    __slots__ = ("now",)

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self.now += seconds
        return self.now

    def __call__(self) -> float:
        return self.now


def resolve_clock(spec: "str | Clock | None") -> Clock:
    """Map a CLI-ish spec to a clock instance.

    ``None``/"wall" -> the shared wall clock; "deterministic"/"tick"
    -> a fresh :class:`TickClock`; a callable passes through.
    """
    if spec is None or spec == "wall":
        return wall_clock
    if spec in ("deterministic", "tick"):
        return TickClock()
    if callable(spec):
        return spec
    raise ValueError(f"unknown clock spec {spec!r} (wall | deterministic)")
