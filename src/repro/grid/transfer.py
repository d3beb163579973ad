"""Network transfer-time model.

Transfers happen when a job stages its input files in from storage
elements and registers its outputs back (Figure 7: "Input data
transfer" / "Output data transfer" around every service invocation —
precisely the cost that job grouping removes for intermediate data).

The model is a per-link affine law::

    time(src_site, dst_site, size) = latency(src, dst) + size / bandwidth(src, dst)

with distinct intra-site (LAN) and inter-site (WAN) defaults and
optional per-pair overrides.  This is intentionally simple — the paper
treats transfer time as part of the lumped grid overhead — but it is a
real model: grouped jobs demonstrably save the intermediate transfers,
and the saving scales with data size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.util.units import MEBIBYTE

__all__ = ["LinkParameters", "NetworkModel", "TransferObserver", "DegradedWindow"]

#: observer signature: ``(src_site, dst_site, size_bytes, seconds)``
TransferObserver = Callable[[str, str, float, float], None]


@dataclass(frozen=True)
class DegradedWindow:
    """A timed bandwidth brown-out on matching links.

    While ``start <= now < end`` every transfer whose endpoints match
    (``None`` endpoints match any site) takes ``factor`` times longer —
    the congested-backbone / throttled-SE pathology, injected
    deterministically so chaos runs stay replayable.
    """

    start: float
    end: float
    factor: float
    src: Optional[str] = None
    dst: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"window must have end > start, got [{self.start}, {self.end})")
        if self.factor < 1.0:
            raise ValueError(f"degradation factor must be >= 1, got {self.factor}")

    def matches(self, src_site: str, dst_site: str, now: float) -> bool:
        """Does this window slow a src -> dst transfer happening at *now*?"""
        if not self.start <= now < self.end:
            return False
        if self.src is not None and self.src != src_site:
            return False
        return self.dst is None or self.dst == dst_site


@dataclass(frozen=True)
class LinkParameters:
    """One directed link: fixed latency (s) + bandwidth (bytes/s)."""

    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    def transfer_time(self, size: float) -> float:
        """Seconds to move *size* bytes over this link."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        return self.latency + size / self.bandwidth


@dataclass
class NetworkModel:
    """Site-to-site transfer times with LAN/WAN defaults and overrides."""

    lan: LinkParameters = field(
        default_factory=lambda: LinkParameters(latency=0.1, bandwidth=100 * MEBIBYTE)
    )
    wan: LinkParameters = field(
        default_factory=lambda: LinkParameters(latency=2.0, bandwidth=5 * MEBIBYTE)
    )
    overrides: Dict[Tuple[str, str], LinkParameters] = field(default_factory=dict)
    #: fleet-wide probability that one transfer attempt fails mid-flight
    failure_probability: float = 0.0
    #: per-directed-link failure probability overrides
    link_failure_probability: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: timed bandwidth brown-outs (applied when a transfer passes ``now``)
    degraded_windows: Tuple[DegradedWindow, ...] = ()
    #: observers called as ``(src_site, dst_site, size, seconds)`` for
    #: every transfer-time evaluation, in registration order.  The grid
    #: registers its metrics hook here and a
    #: :class:`~repro.observability.dataflow.DataFlowCollector` adds its
    #: own — they compose instead of replacing each other.  Purely
    #: observational — no timing impact.
    observers: List[TransferObserver] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for label, p in [("failure_probability", self.failure_probability)] + [
            (f"link_failure_probability[{pair}]", p)
            for pair, p in self.link_failure_probability.items()
        ]:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {p}")

    @classmethod
    def instantaneous(cls) -> "NetworkModel":
        """Zero-latency, effectively infinite-bandwidth network (ideal grid)."""
        fast = LinkParameters(latency=0.0, bandwidth=float("inf"))
        return cls(lan=fast, wan=fast)

    def link(self, src_site: str, dst_site: str) -> LinkParameters:
        """The parameters governing a src -> dst transfer."""
        override = self.overrides.get((src_site, dst_site))
        if override is not None:
            return override
        return self.lan if src_site == dst_site else self.wan

    def add_observer(self, observer: TransferObserver) -> TransferObserver:
        """Register a transfer observer (multicast; fires in add order)."""
        self.observers.append(observer)
        return observer

    @property
    def has_faults(self) -> bool:
        """True when any transfer attempt can fail."""
        return self.failure_probability > 0.0 or any(
            p > 0.0 for p in self.link_failure_probability.values()
        )

    def failure_probability_for(self, src_site: str, dst_site: str) -> float:
        """The failure probability governing a src -> dst attempt."""
        override = self.link_failure_probability.get((src_site, dst_site))
        if override is not None:
            return override
        return self.failure_probability

    def degradation_factor(self, src_site: str, dst_site: str, now: float) -> float:
        """Combined slow-down of every degraded window live at *now*."""
        factor = 1.0
        for window in self.degraded_windows:
            if window.matches(src_site, dst_site, now):
                factor *= window.factor
        return factor

    def raw_transfer_time(
        self,
        src_site: str,
        dst_site: str,
        size: float,
        now: Optional[float] = None,
    ) -> float:
        """Transfer seconds *without* firing observers.

        The chaos stage-in path prices doomed attempts with this (a
        failed transfer delivers no bytes, so it must not enter the
        byte ledger) and only reports the final successful copy through
        :meth:`transfer_time`.  Passing *now* applies any degraded
        windows live at that instant.
        """
        seconds = self.link(src_site, dst_site).transfer_time(size)
        if now is not None:
            seconds *= self.degradation_factor(src_site, dst_site, now)
        return seconds

    def transfer_time(
        self,
        src_site: str,
        dst_site: str,
        size: float,
        now: Optional[float] = None,
    ) -> float:
        """Seconds to move *size* bytes from *src_site* to *dst_site*."""
        seconds = self.raw_transfer_time(src_site, dst_site, size, now=now)
        for observer in self.observers:
            observer(src_site, dst_site, size, seconds)
        return seconds
