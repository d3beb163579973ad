"""The metrics registry: counters, gauges and histograms in one place.

Spans answer "what happened when"; metrics answer "how much, in total".
The registry is the numeric side of the instrumentation bus: the
enactor counts invocations and cache outcomes, the middleware feeds job
overhead / queue-wait / makespan histograms and retry counters, the
transfer layer accumulates staged bytes, and the enactor's concurrency
gauge tracks the in-flight high-water mark the paper's H2 hypothesis
(unbounded data parallelism) cares about.

Snapshots are immutable and support ``since(baseline)`` — the enactor
takes a baseline at ``enact()`` and attaches the delta to its
:class:`~repro.core.enactor.EnactmentResult`, so a registry shared
across many runs still yields clean per-run numbers (the same protocol
the cache stats use).

Thread safety: the enactment service runs a background scheduler
thread while API threads submit and cancel, and several concurrent
enactors share one registry — so every mutation (``inc`` / ``set`` /
``add`` / ``observe``), create-on-first-use lookup, and ``snapshot()``
is guarded by a lock.  Metrics created through a registry share the
registry's lock (a snapshot is then a consistent cut); standalone
metrics get their own.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
]


class Counter:
    """A monotonically increasing count (events, bytes, retries...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0; counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time level with a high-water mark (e.g. concurrency)."""

    __slots__ = ("name", "value", "high_water", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        """Set the current level."""
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value

    def add(self, delta: float) -> None:
        """Adjust the current level by *delta* (one atomic read-modify-write)."""
        with self._lock:
            self.value += delta
            if self.value > self.high_water:
                self.high_water = self.value


class Histogram:
    """A distribution of observations (job overheads, durations...).

    Observations are kept in full — simulation-scale cardinalities are
    thousands, not billions — which is what lets snapshots compute exact
    per-run deltas and percentiles without pre-binning.
    """

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._values.append(value)

    @property
    def count(self) -> int:
        """Number of observations so far."""
        with self._lock:
            return len(self._values)

    def values(self) -> Tuple[float, ...]:
        """All observations, recording order."""
        with self._lock:
            return tuple(self._values)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen view of a histogram (full values, derived stats)."""

    values: Tuple[float, ...] = ()

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self.values)

    @property
    def total(self) -> float:
        """Sum of observations."""
        return float(sum(self.values))

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self.total / self.count if self.values else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (nearest-rank; 0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def since(self, baseline: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations recorded after *baseline* was taken.

        Histograms are append-only, so the delta is a suffix slice.
        """
        return HistogramSnapshot(values=self.values[baseline.count:])


@dataclass(frozen=True)
class MetricsSnapshot:
    """All registry values at one instant (or the delta between two)."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    #: gauge name -> high-water mark over the covered window
    gauge_peaks: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str) -> float:
        """Counter value (0.0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def gauge(self, name: str) -> float:
        """Gauge level (0.0 if never set)."""
        return self.gauges.get(name, 0.0)

    def histogram(self, name: str) -> HistogramSnapshot:
        """Histogram view (empty if never observed)."""
        return self.histograms.get(name, HistogramSnapshot())

    def since(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """Per-run view: what happened after *baseline* was taken.

        Counters subtract; histograms keep only post-baseline
        observations; gauges keep their current level and peak (levels
        are instantaneous, not cumulative, so subtraction would lie).
        """
        names = set(self.counters) | set(baseline.counters)
        counters = {
            name: self.counters.get(name, 0.0) - baseline.counters.get(name, 0.0)
            for name in names
        }
        histograms = {
            name: snap.since(baseline.histogram(name))
            for name, snap in self.histograms.items()
        }
        return MetricsSnapshot(
            counters={k: v for k, v in counters.items() if v != 0.0},
            gauges=dict(self.gauges),
            gauge_peaks=dict(self.gauge_peaks),
            histograms={k: v for k, v in histograms.items() if v.count},
        )

    def names(self) -> Tuple[str, ...]:
        """Every metric name present, sorted."""
        return tuple(sorted({*self.counters, *self.gauges, *self.histograms}))

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


class MetricsRegistry:
    """Create-on-first-use registry of named metrics.

    All metrics created through a registry share one re-entrant lock,
    so lookups, mutations and :meth:`snapshot` are mutually exclusive —
    a snapshot is a *consistent cut* even while a scheduler thread and
    N enactors keep incrementing.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called *name* (created on first use)."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name, lock=self._lock)
            return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge called *name* (created on first use)."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name, lock=self._lock)
            return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram called *name* (created on first use)."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, lock=self._lock)
            return metric

    def snapshot(self) -> MetricsSnapshot:
        """Frozen view of everything, right now (a consistent cut)."""
        with self._lock:
            return MetricsSnapshot(
                counters={name: c.value for name, c in self._counters.items()},
                gauges={name: g.value for name, g in self._gauges.items()},
                gauge_peaks={name: g.high_water for name, g in self._gauges.items()},
                histograms={
                    name: HistogramSnapshot(values=h.values())
                    for name, h in self._histograms.items()
                },
            )
