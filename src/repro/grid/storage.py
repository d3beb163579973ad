"""Storage elements, logical files and the replica catalog.

The paper's executable descriptors reference data by **Grid File Name**
(GFN) and leave physical placement to the middleware (Figure 8: access
``type="GFN"``).  We model:

* :class:`LogicalFile` — a GFN plus a size (sizes drive transfer times;
  the Bronze Standard images are 7.8 MB raw / ~2.3 MB compressed),
* :class:`StorageElement` — a named store attached to a site,
* :class:`ReplicaCatalog` — the GFN -> {storage elements} mapping with
  registration and replica resolution.

A catalog lookup chooses the replica closest to the requesting site
(same site wins, then any remote replica deterministically by name) —
the simulator's stand-in for the LCG replica-selection heuristics.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.util import codec
from repro.util.units import MEBIBYTE

__all__ = [
    "LogicalFile",
    "StorageElement",
    "ReplicaCatalog",
    "UnknownFileError",
    "ReplicaUnavailableError",
]

_file_counter = itertools.count(1)


class UnknownFileError(KeyError):
    """Raised when resolving a GFN the catalog has never seen."""


class ReplicaUnavailableError(LookupError):
    """A *known* GFN has no live replica left.

    Distinct from :class:`UnknownFileError` (the catalog never heard of
    the file — a wiring bug) — this is a durability event: every replica
    is lost, quarantined, or was tried and failed.  Carries the GFN and
    the sites that were tried so failure reports and failover logic can
    say exactly where the data died.
    """

    def __init__(self, gfn: str, sites_tried: Sequence[str] = ()) -> None:
        self.gfn = gfn
        self.sites_tried = tuple(sites_tried)
        where = ", ".join(self.sites_tried) if self.sites_tried else "none"
        super().__init__(f"no live replica of {gfn!r} (sites tried: {where})")


@codec.register("LogicalFile")
@dataclass(frozen=True)
class LogicalFile:
    """A grid file: logical name (GFN) + size in bytes.

    Sizes are interned as **ints** at construction (fractional byte
    counts from calibration arithmetic are rounded): byte totals
    accumulated across thousands of transfers stay integer-exact, so
    per-link sums equal global totals to the byte — the invariant the
    data-flow accounting is gated on.
    """

    gfn: str
    size: int = 1 * MEBIBYTE

    def __post_init__(self) -> None:
        if not self.gfn:
            raise ValueError("LogicalFile needs a non-empty GFN")
        if self.size < 0:
            raise ValueError(f"size must be >= 0, got {self.size}")
        if not isinstance(self.size, int):
            object.__setattr__(self, "size", int(round(float(self.size))))

    @staticmethod
    def fresh(prefix: str, size: float) -> "LogicalFile":
        """Mint a unique GFN under *prefix* (for newly produced outputs)."""
        return LogicalFile(gfn=f"gfn://{prefix}/{next(_file_counter):08d}", size=size)

    @property
    def checksum(self) -> str:
        """Deterministic content digest for stage-in verification.

        The simulator has no real bytes, so the digest is derived from
        the file identity — what matters is that every healthy replica
        of a GFN agrees on it and an injected corruption does not.
        """
        return hashlib.sha256(f"{self.gfn}:{self.size}".encode()).hexdigest()[:16]


class StorageElement:
    """A storage endpoint living at a site."""

    def __init__(self, name: str, site: str) -> None:
        if not name:
            raise ValueError("StorageElement needs a name")
        self.name = name
        self.site = site
        self._files: Set[str] = set()
        self._lost: Set[str] = set()
        self._quarantined: Set[str] = set()

    def holds(self, gfn: str) -> bool:
        """True if this SE has a replica of *gfn* (healthy or not)."""
        return gfn in self._files

    def healthy(self, gfn: str) -> bool:
        """True if this SE has a usable replica of *gfn*."""
        return gfn in self._files and gfn not in self._lost and gfn not in self._quarantined

    def add(self, gfn: str) -> None:
        """Record a replica of *gfn* on this SE (clears any bad state)."""
        self._files.add(gfn)
        self._lost.discard(gfn)
        self._quarantined.discard(gfn)

    def mark_lost(self, gfn: str) -> None:
        """The replica of *gfn* here is gone (disk loss, deletion)."""
        if gfn in self._files:
            self._lost.add(gfn)

    def quarantine(self, gfn: str) -> None:
        """The replica of *gfn* here failed verification; never serve it."""
        if gfn in self._files:
            self._quarantined.add(gfn)

    @property
    def file_count(self) -> int:
        """Number of replicas stored here."""
        return len(self._files)

    @property
    def lost_count(self) -> int:
        """Replicas marked lost on this SE."""
        return len(self._lost)

    @property
    def quarantined_count(self) -> int:
        """Replicas quarantined on this SE."""
        return len(self._quarantined)

    def __repr__(self) -> str:
        return f"<StorageElement {self.name!r} site={self.site!r} files={len(self._files)}>"


class ReplicaCatalog:
    """GFN -> replicas mapping plus file metadata."""

    def __init__(self) -> None:
        self._replicas: Dict[str, List[StorageElement]] = {}
        self._meta: Dict[str, LogicalFile] = {}
        #: observers called as ``(file, element)`` after every
        #: registration, in add order; the grid registers its metrics
        #: hook here and a data-flow collector adds its own.
        self.observers: List[Callable[[LogicalFile, StorageElement], None]] = []

    def add_observer(
        self, observer: Callable[[LogicalFile, StorageElement], None]
    ) -> Callable[[LogicalFile, StorageElement], None]:
        """Register a registration observer (multicast; fires in add order)."""
        self.observers.append(observer)
        return observer

    def register(self, file: LogicalFile, element: StorageElement) -> None:
        """Register (or add a replica of) *file* on *element*."""
        known = self._meta.get(file.gfn)
        if known is not None and known.size != file.size:
            raise ValueError(
                f"GFN {file.gfn!r} re-registered with a different size "
                f"({known.size} vs {file.size})"
            )
        self._meta[file.gfn] = file
        replicas = self._replicas.setdefault(file.gfn, [])
        if element not in replicas:
            replicas.append(element)
        element.add(file.gfn)
        for observer in self.observers:
            observer(file, element)

    def lookup(self, gfn: str) -> LogicalFile:
        """Return the :class:`LogicalFile` metadata for *gfn*."""
        try:
            return self._meta[gfn]
        except KeyError:
            raise UnknownFileError(gfn) from None

    def replicas(self, gfn: str) -> List[StorageElement]:
        """All SEs holding *gfn* (registration order)."""
        if gfn not in self._replicas:
            raise UnknownFileError(gfn)
        return list(self._replicas[gfn])

    def healthy_replicas(self, gfn: str) -> List[StorageElement]:
        """SEs holding a usable (not lost, not quarantined) replica."""
        return [se for se in self.replicas(gfn) if se.healthy(gfn)]

    def healthy_replica_count(self, gfn: str) -> int:
        """How many usable replicas *gfn* still has (repair's scan metric)."""
        return len(self.healthy_replicas(gfn))

    def failover_order(
        self, gfn: str, site: str, exclude: Iterable[str] = ()
    ) -> List[StorageElement]:
        """Healthy replicas in deterministic preference order for *site*.

        Same-site replicas first (registration order), then remote ones
        by SE name — the same rule :meth:`closest_replica` applies, kept
        as a full ranking so transfer failover walks replicas in a
        reproducible order.  *exclude* drops SE names already tried.
        """
        excluded = set(exclude)
        candidates = [
            se for se in self.healthy_replicas(gfn) if se.name not in excluded
        ]
        local = [se for se in candidates if se.site == site]
        remote = sorted(
            (se for se in candidates if se.site != site), key=lambda se: se.name
        )
        return local + remote

    def closest_replica(self, gfn: str, site: str) -> StorageElement:
        """Pick the replica to read from for a job running at *site*.

        Same-site replicas win; otherwise the lexicographically first SE
        name is used so that the choice is deterministic.  Raises
        :class:`ReplicaUnavailableError` when the file is known but no
        usable replica survives — the data-death signal the failure
        containment machinery turns into a poisoned lineage.
        """
        ranked = self.failover_order(gfn, site)
        if not ranked:
            tried = tuple(se.site for se in self.replicas(gfn))
            raise ReplicaUnavailableError(gfn, tried)
        return ranked[0]

    def knows(self, gfn: str) -> bool:
        """True if *gfn* has been registered."""
        return gfn in self._meta

    def gfns(self) -> Iterable[str]:
        """All registered GFNs (sorted, for deterministic iteration)."""
        return sorted(self._meta)

    def __len__(self) -> int:
        return len(self._meta)
