"""Cache observability: per-service hit/miss/store/byte counters.

The counters answer the experiment-level questions the warm-run study
needs: which services actually hit, how much submission work a warm
re-execution skipped, and how many bytes of results back that saving.
:class:`CacheStats` is the live mutable accumulator owned by a
:class:`~repro.cache.ResultCache`; :meth:`CacheStats.snapshot` produces
the frozen per-run view the enactor attaches to its
:class:`~repro.core.enactor.EnactmentResult` (a shared cache accumulates
across runs, so per-run numbers are a snapshot delta).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

__all__ = ["ServiceCacheStats", "CacheStats", "CacheStatsSnapshot"]


@dataclass(frozen=True)
class ServiceCacheStats:
    """Counters for one service (or the totals row)."""

    hits: int = 0
    #: misses that led to an execution (and then a store)
    misses: int = 0
    #: invocations de-duplicated against an identical in-flight one
    coalesced: int = 0
    stores: int = 0
    #: payload bytes of the entries stored
    bytes_stored: int = 0

    @property
    def lookups(self) -> int:
        """Total cache consultations."""
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that avoided an execution (hits + coalesced)."""
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.hits + self.coalesced) / lookups

    def __add__(self, other: "ServiceCacheStats") -> "ServiceCacheStats":
        return ServiceCacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            coalesced=self.coalesced + other.coalesced,
            stores=self.stores + other.stores,
            bytes_stored=self.bytes_stored + other.bytes_stored,
        )

    def __sub__(self, other: "ServiceCacheStats") -> "ServiceCacheStats":
        return ServiceCacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            coalesced=self.coalesced - other.coalesced,
            stores=self.stores - other.stores,
            bytes_stored=self.bytes_stored - other.bytes_stored,
        )


@dataclass(frozen=True)
class CacheStatsSnapshot:
    """Immutable per-service counters at (or between) points in time."""

    per_service: Dict[str, ServiceCacheStats] = field(default_factory=dict)

    @property
    def total(self) -> ServiceCacheStats:
        """All services summed."""
        total = ServiceCacheStats()
        for stats in self.per_service.values():
            total = total + stats
        return total

    @property
    def hit_rate(self) -> float:
        """Overall fraction of lookups served without execution."""
        return self.total.hit_rate

    def services(self) -> Tuple[str, ...]:
        """Service names, sorted."""
        return tuple(sorted(self.per_service))

    def __iter__(self) -> Iterator[Tuple[str, ServiceCacheStats]]:
        for name in self.services():
            yield name, self.per_service[name]

    def __sub__(self, other: "CacheStatsSnapshot") -> "CacheStatsSnapshot":
        names = set(self.per_service) | set(other.per_service)
        empty = ServiceCacheStats()
        delta = {
            name: self.per_service.get(name, empty) - other.per_service.get(name, empty)
            for name in names
        }
        # Drop all-zero rows so per-run snapshots list only active services.
        delta = {name: stats for name, stats in delta.items() if stats != empty}
        return CacheStatsSnapshot(per_service=delta)


class _ServiceCounts:
    """One service's live counters (mutable; frozen by :meth:`freeze`)."""

    __slots__ = ("hits", "misses", "coalesced", "stores", "bytes_stored")

    def __init__(self) -> None:
        self.hits = self.misses = self.coalesced = self.stores = self.bytes_stored = 0

    def freeze(self) -> ServiceCacheStats:
        return ServiceCacheStats(
            hits=self.hits,
            misses=self.misses,
            coalesced=self.coalesced,
            stores=self.stores,
            bytes_stored=self.bytes_stored,
        )


class CacheStats:
    """Mutable accumulator the cache records into.

    Counters are bumped in place; only :meth:`snapshot` builds the
    frozen :class:`ServiceCacheStats` rows, so a hit costs an integer
    add rather than a new dataclass.
    """

    def __init__(self) -> None:
        self._per_service: Dict[str, _ServiceCounts] = {}

    def _counts(self, service: str) -> _ServiceCounts:
        counts = self._per_service.get(service)
        if counts is None:
            counts = self._per_service[service] = _ServiceCounts()
        return counts

    def record_hit(self, service: str) -> None:
        """A store lookup returned a usable entry."""
        self._counts(service).hits += 1

    def record_miss(self, service: str) -> None:
        """No entry; the invocation will execute (and then store)."""
        self._counts(service).misses += 1

    def record_coalesced(self, service: str) -> None:
        """De-duplicated against an identical in-flight invocation."""
        self._counts(service).coalesced += 1

    def record_store(self, service: str, size_bytes: int) -> None:
        """A freshly computed result entered the store."""
        counts = self._counts(service)
        counts.stores += 1
        counts.bytes_stored += size_bytes

    def snapshot(self) -> CacheStatsSnapshot:
        """Frozen copy of the counters right now."""
        return CacheStatsSnapshot(
            per_service={name: counts.freeze() for name, counts in self._per_service.items()}
        )
