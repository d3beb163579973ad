"""Failure injection and resubmission policy.

Production-grid jobs fail for reasons unrelated to the application
(middleware hiccups, full scratch disks, expired proxies...).  The
paper's Figure 6 narrative makes this concrete: "D0 was submitted twice
because an error occurred".  Failures interact with the optimization
study in two ways:

* they lengthen *some* jobs enormously, feeding the execution-time
  variability that makes service parallelism profitable even under
  data parallelism, and
* resubmission multiplies the per-job overhead, amplifying what job
  grouping saves.

The model: each *attempt* fails independently with ``probability``.
A failing attempt is detected only after ``detection_delay`` (the user
notices via job monitoring), then the middleware resubmits, up to
``max_attempts`` total attempts.

Failure is rarely uniform across a production grid: the classic EGEE
pathology is the *blackhole* site that fails nearly everything it is
given, and fails it fast.  ``ce_probability`` / ``ce_detection_delay``
override the fleet-wide numbers for named computing elements so
testbeds can inject exactly that asymmetry (and the live monitor can
be tested against a known ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.util.distributions import Constant, Distribution, as_distribution

__all__ = ["FaultModel", "OutageSchedule", "DurabilityFaultModel"]


@dataclass(frozen=True)
class FaultModel:
    """Per-attempt failure model with bounded resubmission."""

    probability: float = 0.0
    detection_delay: Distribution = field(default_factory=lambda: Constant(0.0))
    max_attempts: int = 3
    #: per-CE failure probability overrides (CE name -> probability)
    ce_probability: Mapping[str, float] = field(default_factory=dict)
    #: per-CE detection-delay overrides (CE name -> distribution)
    ce_detection_delay: Mapping[str, Distribution] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        for ce, p in self.ce_probability.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"probability for CE {ce!r} must be in [0, 1], got {p}"
                )

    @classmethod
    def none(cls) -> "FaultModel":
        """No failures (ideal and model-validation testbeds)."""
        return cls(probability=0.0, max_attempts=1)

    @classmethod
    def from_values(
        cls,
        probability: float,
        detection_delay: "float | Distribution" = 0.0,
        max_attempts: int = 3,
        ce_probability: Optional[Mapping[str, float]] = None,
        ce_detection_delay: Optional[Mapping[str, "float | Distribution"]] = None,
    ) -> "FaultModel":
        """Build coercing bare delay numbers to constant distributions."""
        delays: Dict[str, Distribution] = {
            ce: as_distribution(delay)
            for ce, delay in (ce_detection_delay or {}).items()
        }
        return cls(
            probability=probability,
            detection_delay=as_distribution(detection_delay),
            max_attempts=max_attempts,
            ce_probability=dict(ce_probability or {}),
            ce_detection_delay=delays,
        )

    def probability_for(self, ce: Optional[str] = None) -> float:
        """The failure probability governing an attempt on *ce*."""
        if ce is not None and ce in self.ce_probability:
            return self.ce_probability[ce]
        return self.probability

    def attempt_fails(self, rng: np.random.Generator, ce: Optional[str] = None) -> bool:
        """Sample whether one attempt (on *ce*, when known) fails.

        The random stream is consumed whenever *any* CE can fail, so
        which CE the broker happened to pick never shifts the draws
        seen by later jobs — keeps seeded runs comparable across
        feedback on/off ablations.
        """
        if self.probability == 0.0 and not self.ce_probability:
            return False
        return bool(rng.random() < self.probability_for(ce))

    def sample_detection_delay(
        self, rng: np.random.Generator, ce: Optional[str] = None
    ) -> float:
        """How long a failure goes unnoticed before resubmission."""
        if ce is not None and ce in self.ce_detection_delay:
            return self.ce_detection_delay[ce].sample(rng)
        return self.detection_delay.sample(rng)


def _normalise_windows(
    windows: Iterable[Tuple[float, float]],
) -> Tuple[Tuple[float, float], ...]:
    """Sort, validate, and merge overlapping ``[start, end)`` windows."""
    ordered = sorted((float(s), float(e)) for s, e in windows)
    merged: list = []
    for start, end in ordered:
        if end <= start:
            raise ValueError(f"outage window must have end > start, got [{start}, {end})")
        if start < 0:
            raise ValueError(f"outage window must start at >= 0, got {start}")
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


@dataclass(frozen=True)
class OutageSchedule:
    """Deterministic down/up timeline for sites, CEs, and storage elements.

    A *subject* is any failure-domain name — a site (``site01``, taking
    its CE and SE down with it), a computing element (``site01-ce``), or
    a storage element (``site01-se``).  Each subject owns a sorted tuple
    of half-open ``[start, end)`` down-windows; outside every window the
    subject is up.  The schedule is a pure value: no clocks, no RNG
    state — so chaos runs replay byte-identically.
    """

    #: subject name -> merged, sorted ``(start, end)`` down-windows
    windows: Mapping[str, Tuple[Tuple[float, float], ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {
            subject: _normalise_windows(spans)
            for subject, spans in self.windows.items()
            if spans
        }
        object.__setattr__(self, "windows", cleaned)

    @classmethod
    def none(cls) -> "OutageSchedule":
        """The always-up schedule (every non-chaotic testbed)."""
        return cls()

    @classmethod
    def from_windows(
        cls, windows: Mapping[str, Iterable[Tuple[float, float]]]
    ) -> "OutageSchedule":
        """Build from a plain mapping of subject -> window list."""
        return cls({subject: tuple(spans) for subject, spans in windows.items()})

    def with_flapping(
        self,
        subject: str,
        start: float,
        down: float,
        up: float,
        cycles: int,
    ) -> "OutageSchedule":
        """A copy where *subject* flaps: *cycles* down-windows of length
        *down* separated by *up* seconds of health, starting at *start*."""
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        if down <= 0 or up < 0:
            raise ValueError(f"need down > 0 and up >= 0, got down={down} up={up}")
        flaps = [
            (start + k * (down + up), start + k * (down + up) + down)
            for k in range(cycles)
        ]
        merged = dict(self.windows)
        merged[subject] = tuple(merged.get(subject, ())) + tuple(flaps)
        return OutageSchedule(merged)

    @property
    def empty(self) -> bool:
        """True when no subject ever goes down."""
        return not self.windows

    def down_windows(self, subject: str) -> Tuple[Tuple[float, float], ...]:
        """The merged down-windows of one subject (empty if always up)."""
        return self.windows.get(subject, ())

    def is_down(self, subject: str, now: float) -> bool:
        """Is *subject* inside one of its ``[start, end)`` down-windows?"""
        for start, end in self.windows.get(subject, ()):
            if start <= now < end:
                return True
            if now < start:
                break
        return False

    def next_up(self, subject: str, now: float) -> float:
        """When *subject* is next up: *now* if already up, else the end
        of the down-window containing *now*."""
        for start, end in self.windows.get(subject, ()):
            if start <= now < end:
                return end
            if now < start:
                break
        return now


@dataclass(frozen=True)
class DurabilityFaultModel:
    """Replica loss and corruption injected on stage-in accesses.

    Every verified access to a replica draws exactly one number (when
    the model is active at all), so which replica the failover logic
    happened to pick never shifts the draws seen by later accesses —
    the same stream-stability rule :meth:`FaultModel.attempt_fails`
    follows for job faults.
    """

    #: probability that the accessed replica turns out to be lost
    loss_probability: float = 0.0
    #: probability that the transfer completes but the checksum mismatches
    corruption_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_probability", "corruption_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.loss_probability + self.corruption_probability > 1.0:
            raise ValueError("loss + corruption probabilities must not exceed 1")

    @classmethod
    def none(cls) -> "DurabilityFaultModel":
        """Perfectly durable storage (every non-chaotic testbed)."""
        return cls()

    @property
    def active(self) -> bool:
        """True when any replica fault can fire."""
        return self.loss_probability > 0.0 or self.corruption_probability > 0.0

    def access_outcome(self, rng: np.random.Generator) -> str:
        """Sample one access: ``"ok"``, ``"lost"``, or ``"corrupt"``."""
        if not self.active:
            return "ok"
        draw = rng.random()
        if draw < self.loss_probability:
            return "lost"
        if draw < self.loss_probability + self.corruption_probability:
            return "corrupt"
        return "ok"
