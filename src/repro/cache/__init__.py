"""Provenance-keyed result cache: warm re-execution (nearly) for free.

The paper's input-data-set language exists "to save and store the input
data set in order to be able to re-execute workflows on the same data
set" (Section 4.1) — but re-executing without *memoization* pays the
full submission/queuing overhead Section 3.5 models all over again.
This subsystem closes that gap:

* :mod:`~repro.cache.keys` derives deterministic, content-addressed
  keys from service identity (descriptor fingerprints, covering every
  stage of virtual grouped services) plus the input tokens' history-tree
  lineage and payload values,
* :mod:`~repro.cache.store` provides the in-memory store and the
  append-only on-disk log store behind one protocol; a store keeps
  every entry it is given,
* :mod:`~repro.cache.stats` counts hits/misses/stores/bytes per service
  for the experiment reports.

:class:`ResultCache` is the facade the enactor talks to.  It also owns
**single-flight de-duplication**: when two in-flight invocations carry
identical keys (possible with several concurrent enactments sharing one
engine), the second waits on the first instead of executing — a cache
with a thundering-herd hole would re-submit exactly the jobs it exists
to avoid.

Usage::

    from repro.cache import ResultCache, FileStore

    cache = ResultCache(store=FileStore("/tmp/bronze-cache"))
    result = MoteurEnactor(engine, wf, config, grid=grid, cache=cache).run(ds)
    print(result.cache_stats.hit_rate)

Caching is on exactly when the caller passes a :class:`ResultCache`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cache.keys import (
    TokenFact,
    fingerprint_datum,
    history_fingerprint,
    invocation_key,
    service_fingerprint,
)
from repro.cache.stats import CacheStats, CacheStatsSnapshot, ServiceCacheStats
from repro.cache.store import (
    CacheEntry,
    CacheStoreError,
    FileStore,
    InMemoryStore,
    ResultStore,
)
from repro.services.base import GridData, Service
from repro.sim.engine import Engine, Event

__all__ = [
    "ResultCache",
    "CacheStats",
    "CacheStatsSnapshot",
    "ServiceCacheStats",
    "CacheEntry",
    "CacheStoreError",
    "FileStore",
    "InMemoryStore",
    "ResultStore",
    "invocation_key",
    "service_fingerprint",
    "history_fingerprint",
    "fingerprint_datum",
]


class ResultCache:
    """Store + stats + single-flight, behind one object.

    One instance may be shared across enactors and across runs — that
    is the whole point for warm re-execution.  With a
    :class:`FileStore` the sharing extends across processes.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        stats: Optional[CacheStats] = None,
    ) -> None:
        self.store: ResultStore = store if store is not None else InMemoryStore()
        self.stats = stats or CacheStats()
        #: (engine id, key) -> completion event of the executing leader
        self._inflight: Dict[Tuple[int, str], Event] = {}

    # -- lookup/store --------------------------------------------------
    def lookup(self, key: str, service: str) -> Optional[Dict[str, GridData]]:
        """Cached outputs for *key*, recording a hit; None on absence.

        A miss is **not** recorded here — the enactor may still coalesce
        onto an identical in-flight invocation; it reports the final
        classification through :meth:`record_miss` /
        :meth:`record_coalesced`.
        """
        entry = self.store.get(key)
        if entry is None:
            return None
        self.stats.record_hit(service)
        return entry.outputs

    def record_miss(self, service: str) -> None:
        """The lookup missed and the invocation will really execute."""
        self.stats.record_miss(service)

    def put(self, key: str, service: str, outputs: Mapping[str, GridData]) -> None:
        """Store freshly computed outputs under *key*.

        The stored bytes counted are the length of the outputs' canonical
        text, the part of a log line that holds them.
        """
        entry = CacheEntry(key=key, service=service, outputs=dict(outputs))
        self.store.put(entry)
        self.stats.record_store(service, len(entry.outputs_text))

    def clear(self) -> None:
        """Drop every stored entry (stats are kept)."""
        self.store.clear()

    def __len__(self) -> int:
        return len(self.store)

    # -- single-flight de-duplication ----------------------------------
    def flight_leader(self, engine: Engine, key: str) -> Optional[Event]:
        """The in-flight completion event for *key* on *engine*, if any."""
        return self._inflight.get((id(engine), key))

    def open_flight(self, engine: Engine, key: str) -> Event:
        """Register this invocation as the executing leader for *key*.

        Returns the event later invocations with the same key wait on.
        """
        slot = (id(engine), key)
        if slot in self._inflight:
            raise CacheStoreError(f"flight already open for key {key[:16]}...")
        event = engine.event(name=f"cache-flight:{key[:12]}")
        # Pre-defuse: if the leader fails and no follower is waiting,
        # the failed event must not crash the engine when popped.
        event.defused = True
        self._inflight[slot] = event
        return event

    def close_flight(
        self,
        engine: Engine,
        key: str,
        outputs: Optional[Mapping[str, GridData]] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Resolve the leader's flight, waking coalesced followers."""
        event = self._inflight.pop((id(engine), key), None)
        if event is None or event.triggered:
            return
        if error is not None:
            event.fail(error)
        else:
            event.succeed(dict(outputs or {}))

    def record_coalesced(self, service: str) -> None:
        """An invocation waited on an identical in-flight one."""
        self.stats.record_coalesced(service)

    # -- observability -------------------------------------------------
    def snapshot(self) -> CacheStatsSnapshot:
        """Frozen stats counters right now."""
        return self.stats.snapshot()

    def __repr__(self) -> str:
        return f"<ResultCache store={self.store!r} inflight={len(self._inflight)}>"
