"""Shared cost counters for tier-1 cost contracts.

Counts, never clocks: what a run leaves alive, or holds at a given
event, is a deterministic function of the seeded control flow and the
interpreter's object layout, so a contract can pin it with a ceiling
and ratchet it down.  :func:`retained_per_job` counts what a finished
run keeps; :func:`in_flight_per_job` what a running one holds.
"""

import gc
import sys
import tracemalloc
import types
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro.sim.engine import Engine, Event, Process


@dataclass(frozen=True)
class Retained:
    """What a run left alive, per grid job."""

    #: GC-tracked objects (``len(gc.get_objects())``)
    objects: float
    #: allocated memory blocks (``sys.getallocatedblocks()``)
    blocks: float
    #: bytes tracemalloc still traces
    bytes: float


def retained_per_job(run: Callable[[], Tuple[Any, int]]) -> Tuple[Retained, Any]:
    """Per-job counts of what *run* leaves alive, and what it kept.

    *run* takes no argument and returns ``(kept, jobs)``: the objects
    that must stay alive while counting (e.g. the result and the grid)
    and the number of grid jobs the run submitted.  Build the testbed
    and the application before calling, so the baseline, taken after
    ``gc.collect()``, excludes them; the counts are taken after a
    second ``gc.collect()`` with *kept* alive.
    """
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        objects, blocks = len(gc.get_objects()), sys.getallocatedblocks()
        traced = tracemalloc.get_traced_memory()[0]
        kept, jobs = run()
        gc.collect()
        retained = Retained(
            objects=(len(gc.get_objects()) - objects) / jobs,
            blocks=(sys.getallocatedblocks() - blocks) / jobs,
            bytes=(tracemalloc.get_traced_memory()[0] - traced) / jobs,
        )
    finally:
        if started:
            tracemalloc.stop()
    return retained, kept


@dataclass(frozen=True)
class InFlight:
    """What a run holds at one event index, per grid job in flight then."""

    #: grid jobs submitted and not yet finished at that event
    jobs: int
    #: ``Process`` objects
    processes: float
    #: other ``Event`` objects (timeouts, composites, plain events)
    events: float
    #: bound-method objects
    methods: float
    #: generator objects
    generators: float
    #: bytes tracemalloc traces
    bytes: float


def _census() -> Counter:
    """Live GC-tracked objects of the kinds :class:`InFlight` counts."""
    kinds: Counter = Counter()
    for obj in gc.get_objects():
        if isinstance(obj, Process):
            kinds["processes"] += 1
        elif isinstance(obj, Event):
            kinds["events"] += 1
        elif isinstance(obj, types.MethodType):
            kinds["methods"] += 1
        elif isinstance(obj, types.GeneratorType):
            kinds["generators"] += 1
    return kinds


def in_flight_per_job(
    engine: Engine,
    start: Callable[[], Any],
    at_event: int,
    jobs_in_flight: Callable[[], int],
) -> Tuple[InFlight, Any]:
    """Per in-flight job counts at *engine*'s *at_event*-th processed event.

    *start* takes no argument, starts the run without driving it (e.g.
    ``MoteurEnactor.enact``) and returns what must stay alive while
    counting; *jobs_in_flight* reads how many grid jobs are in flight.
    Build the testbed and the application before calling: the baseline,
    taken after ``gc.collect()``, excludes them.  The engine is then
    stepped event by event up to *at_event*, so the count sees the run
    mid-flight, at the same point of a seeded run every time.
    """
    # A run abandoned mid-flight closes its suspended generators when
    # collected, and what their ``finally`` blocks free or schedule is
    # only garbage on the next pass: collect until nothing is left.
    while gc.collect():
        pass
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = _census()
        traced = tracemalloc.get_traced_memory()[0]
        kept = start()
        while engine.events_processed < at_event:
            engine.step()
        gc.collect()
        jobs = jobs_in_flight()
        after = _census()
        held = tracemalloc.get_traced_memory()[0] - traced
    finally:
        if started:
            tracemalloc.stop()
    per_job = {kind: (after[kind] - before[kind]) / jobs for kind in
               ("processes", "events", "methods", "generators")}
    return InFlight(jobs=jobs, bytes=held / jobs, **per_job), kept
