"""Discrete-event simulation kernel.

A small, dependency-free, generator-based DES engine in the style of
SimPy: simulated *processes* are Python generators that ``yield``
events; the :class:`~repro.sim.engine.Engine` advances a virtual clock
and resumes processes when the events they wait on trigger.

The kernel is deterministic: given the same seeded random streams and
the same process structure, two runs produce identical traces.  Ties in
time are broken by event creation order (a monotonically increasing
sequence number), never by hash order.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Resource",
    "Store",
]
