"""Allocation-pressure accounting: how much memory does a run churn?

Object counts need no counter of their own: every ``Engine.schedule``,
``invocation_key`` or ``InstrumentationBus.begin`` call is a scope in
the profile tree, so heap pushes, provenance keys and spans emitted are
the ``calls`` of those scopes.

:class:`MemoryTracker` adds the optional ``tracemalloc`` dimension:
real allocated-byte deltas and peak, for when counts are not enough.
It is off by default because ``tracemalloc`` itself costs 2-4x — and
its numbers are machine-dependent, so they live in the profile's
*memory* section, never in the deterministic byte-identical part.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["MemoryTracker"]


class MemoryTracker:
    """Optional ``tracemalloc`` snapshot deltas around a profiled run.

    ``start()``/``stop()`` bracket the region; ``report()`` returns
    ``{"allocated_bytes": ..., "peak_bytes": ...}`` or ``None`` when
    tracking never ran (disabled, or tracemalloc unavailable).  If
    tracemalloc was already tracing (e.g. an outer test harness), the
    tracker piggybacks on it and leaves it running.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._tracemalloc = None
        self._started = False
        self._owns_tracing = False
        self._baseline = 0
        self._report: Optional[Dict[str, int]] = None
        if enabled:
            try:
                import tracemalloc
            except ImportError:  # pragma: no cover - stdlib, but stay gated
                self.enabled = False
            else:
                self._tracemalloc = tracemalloc

    def start(self) -> None:
        if not self.enabled or self._started:
            return
        tm = self._tracemalloc
        if not tm.is_tracing():
            tm.start()
            self._owns_tracing = True
        self._baseline = tm.get_traced_memory()[0]
        tm.reset_peak()
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        tm = self._tracemalloc
        current, peak = tm.get_traced_memory()
        self._report = {
            "allocated_bytes": max(0, current - self._baseline),
            "peak_bytes": peak,
        }
        if self._owns_tracing:
            tm.stop()
            self._owns_tracing = False
        self._started = False

    def report(self) -> Optional[Dict[str, int]]:
        """The last start/stop delta, or None if tracking never ran."""
        return dict(self._report) if self._report is not None else None
