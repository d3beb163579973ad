"""Shared cost counters for tier-1 cost contracts.

Counts, never clocks: what a run leaves alive is a deterministic
function of the seeded control flow and the interpreter's object
layout, so a contract can pin it with a ceiling and ratchet it down.
"""

import gc
import sys
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Tuple


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
