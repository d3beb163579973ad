"""Online per-CE health scoring from rolling robust statistics.

Production-grid behaviour is erratic *while you run*: Section 5.1
models queue times as a random y-intercept/slope precisely because the
"time to access the infrastructure" varies wildly between jobs, and
the Figure 6 narrative ("D0 was submitted twice because an error
occurred") shows operators reacting to faults mid-run.  This module is
the statistical substrate of that reaction: it maintains, incrementally
as job phase spans close, per-computing-element summaries robust to the
heavy-tailed distributions the testbeds are calibrated with.

Two failure signatures matter (both inherited from EGEE operations):

**stragglers**
    jobs whose queue or run phase is abnormally long compared to the
    fleet, measured by a robust z-score — ``(x - median) / (1.4826 *
    MAD)`` — so a handful of enormous outliers cannot inflate the scale
    estimate the way they would a standard deviation.  A CE that keeps
    producing straggler jobs is itself flagged.

**blackholes**
    the classic fast-failure mode: a CE that accepts jobs and fails
    them *quickly*.  Under least-loaded ranking a blackhole is
    self-reinforcing — its queue drains instantly, so it looks idle and
    attracts ever more jobs.  Detected as a high fault rate combined
    with an abnormally *low* median time-to-failure.

Everything here is pure bookkeeping over closed span durations: feeding
the same durations in the same order always reproduces the same scores,
which is what makes the monitor's replay invariant testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "RobustStats",
    "robust_stats",
    "robust_z",
    "RollingSample",
    "HealthThresholds",
    "CEHealth",
    "FleetHealth",
]

#: consistency constant making MAD comparable to a standard deviation
#: for normal data (1 / Phi^-1(3/4))
MAD_SCALE = 1.4826

#: same idea for the mean absolute deviation (sqrt(pi/2)), the fallback
#: scale when the MAD degenerates to zero
MEAN_AD_SCALE = 1.2533


def _median(sorted_values: List[float]) -> float:
    n = len(sorted_values)
    mid = n // 2
    if n % 2:
        return sorted_values[mid]
    return 0.5 * (sorted_values[mid - 1] + sorted_values[mid])


@dataclass(frozen=True)
class RobustStats:
    """Median/MAD summary of a sample, with a degeneracy-proof scale.

    ``scale`` is ``MAD_SCALE * mad`` when the MAD is positive; for
    zero-variance samples (every value identical — constant-duration
    phases on the ideal testbed do this) it falls back to the scaled
    mean absolute deviation, and to ``0.0`` when even that vanishes.
    """

    count: int
    median: float
    mad: float
    scale: float


def robust_stats(values: "List[float] | Tuple[float, ...]") -> RobustStats:
    """Median, MAD and a usable scale estimate for *values*.

    Raises :class:`ValueError` on an empty sample — callers guard with
    their own ``min_samples`` thresholds anyway.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    med = _median(ordered)
    deviations = sorted(abs(v - med) for v in ordered)
    mad = _median(deviations)
    if mad > 0.0:
        scale = MAD_SCALE * mad
    else:
        # MAD = 0 happens whenever more than half the sample sits on the
        # median (zero-variance phases, quantized durations).  Fall back
        # to the mean absolute deviation so a genuinely spread sample
        # still gets a finite scale.
        mean_ad = sum(deviations) / len(deviations)
        scale = MEAN_AD_SCALE * mean_ad
    return RobustStats(count=len(ordered), median=med, mad=mad, scale=scale)


def robust_z(value: float, stats: RobustStats) -> float:
    """Robust z-score of *value* against *stats*.

    With a degenerate scale (all reference values identical) any
    deviation is infinitely surprising: returns ``0.0`` on the median
    and ``±inf`` off it, never a division error.
    """
    centered = value - stats.median
    if stats.scale == 0.0:
        if centered == 0.0:
            return 0.0
        return float("inf") if centered > 0 else float("-inf")
    return centered / stats.scale


class RollingSample:
    """A bounded rolling window of observations with cached statistics.

    ``maxlen`` bounds memory so the monitor stays O(window) per CE no
    matter how long the run is; statistics are recomputed lazily and
    cached until the next :meth:`add`.
    """

    def __init__(self, maxlen: int = 512) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._values: Deque[float] = deque(maxlen=maxlen)
        self._cached: Optional[RobustStats] = None

    def add(self, value: float) -> None:
        """Append one observation (evicting the oldest when full)."""
        self._values.append(float(value))
        self._cached = None

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> List[float]:
        """The current window contents, oldest first."""
        return list(self._values)

    def stats(self) -> RobustStats:
        """Robust statistics over the current window (cached)."""
        if self._cached is None:
            self._cached = robust_stats(list(self._values))
        return self._cached


@dataclass(frozen=True)
class HealthThresholds:
    """When does a CE statistic become a flag?

    All detections are gated on ``min_samples`` observations so a
    single unlucky job can neither brand a CE a blackhole nor a
    straggler (single-sample CEs always score healthy).
    """

    #: robust z above which one queue/run phase marks a straggler *job*
    straggler_z: float = 3.5
    #: fraction of a CE's completed jobs flagged as stragglers before
    #: the CE itself is flagged
    ce_straggler_fraction: float = 0.5
    #: attempt fault rate at or above which a CE is blackhole-suspect
    blackhole_fault_rate: float = 0.5
    #: a blackhole fails *fast*: its median time-to-failure must sit
    #: below this fraction of the fleet's median successful run phase
    blackhole_ttf_factor: float = 0.5
    #: absolute time-to-failure (seconds) below which "fast" holds even
    #: without fleet context (no successful run observed yet)
    blackhole_ttf_floor: float = 120.0
    #: observations needed before any CE-level flag can raise
    min_samples: int = 4

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if not 0.0 < self.ce_straggler_fraction <= 1.0:
            raise ValueError(
                f"ce_straggler_fraction must be in (0, 1], got {self.ce_straggler_fraction}"
            )
        if not 0.0 < self.blackhole_fault_rate <= 1.0:
            raise ValueError(
                f"blackhole_fault_rate must be in (0, 1], got {self.blackhole_fault_rate}"
            )


@dataclass
class CEHealth:
    """One computing element's rolling health summary."""

    ce: str
    #: successfully completed run phases observed
    completed: int = 0
    #: failed attempts observed (job.fault spans)
    faults: int = 0
    #: straggler-flagged jobs (distinct job ids)
    straggler_jobs: int = 0
    median_queue: float = 0.0
    median_run: float = 0.0
    #: median time from matching to failure detection (0 when faultless)
    median_ttf: float = 0.0
    is_straggler: bool = False
    is_blackhole: bool = False
    #: composite score in [0, 1]: 1.0 = healthy
    score: float = 1.0

    @property
    def attempts(self) -> int:
        """Total attempts this CE handled (completions + faults)."""
        return self.completed + self.faults

    @property
    def fault_rate(self) -> float:
        """Failed attempts over total attempts (0.0 before any attempt)."""
        total = self.attempts
        return self.faults / total if total else 0.0

    @property
    def straggler_fraction(self) -> float:
        """Straggler jobs over completed jobs (0.0 before any completion)."""
        return self.straggler_jobs / self.completed if self.completed else 0.0

    @property
    def flagged(self) -> bool:
        """True when either failure signature holds."""
        return self.is_straggler or self.is_blackhole


class FleetHealth:
    """Rolling robust statistics for every CE plus the fleet baseline.

    The fleet-wide windows (one per phase name) are the reference
    population straggler z-scores are computed against; per-CE windows
    feed the CE summaries.  All updates are driven by the monitor as
    phase spans close — this class never looks at a clock.
    """

    #: phase spans whose durations feed straggler detection
    STRAGGLER_PHASES = ("job.queue", "job.run")

    def __init__(
        self,
        thresholds: Optional[HealthThresholds] = None,
        window: int = 512,
    ) -> None:
        self.thresholds = thresholds if thresholds is not None else HealthThresholds()
        self._window = window
        #: fleet-wide duration windows, keyed by phase span name
        self._fleet: Dict[str, RollingSample] = {}
        #: fleet windows keyed by (phase, job group) — straggler z-scores
        #: compare like with like (one service's jobs against the same
        #: service fleet-wide), so heterogeneous services do not read as
        #: pathology
        self._fleet_grouped: Dict[Tuple[str, str], RollingSample] = {}
        #: per-CE duration windows, keyed by (ce, phase span name)
        self._per_ce: Dict[Tuple[str, str], RollingSample] = {}
        #: per-CE time-to-failure windows
        self._ttf: Dict[str, RollingSample] = {}
        #: ce -> set of job ids flagged as stragglers (kept as a dict
        #: for deterministic iteration; values unused)
        self._straggler_jobs: Dict[str, Dict[int, None]] = {}
        #: counters per CE, insertion order = first-seen order
        self._completed: Dict[str, int] = {}
        self._faults: Dict[str, int] = {}

    # -- updates ---------------------------------------------------------
    def _touch(self, ce: str) -> None:
        self._completed.setdefault(ce, 0)
        self._faults.setdefault(ce, 0)

    def _sample(self, table: Dict, key) -> RollingSample:
        sample = table.get(key)
        if sample is None:
            sample = table[key] = RollingSample(maxlen=self._window)
        return sample

    def observe_phase(
        self,
        ce: str,
        phase: str,
        duration: float,
        job_id: Optional[int] = None,
        group: Optional[str] = None,
    ) -> bool:
        """Record one closed phase duration; returns True for a straggler.

        *group* names the job's population (typically the submitting
        service): when given, the straggler z-score is computed against
        the fleet window of that group only, so a service with long
        jobs is not misread as straggling next to a service with short
        ones.  The z-score is computed against the window *before* the
        new value is added, so one extreme observation cannot drag the
        reference median toward itself in the very comparison that is
        supposed to catch it.
        """
        self._touch(ce)
        is_straggler = False
        if phase in self.STRAGGLER_PHASES:
            if group is not None:
                reference = self._sample(self._fleet_grouped, (phase, group))
            else:
                reference = self._sample(self._fleet, phase)
            if len(reference) >= self.thresholds.min_samples:
                if robust_z(duration, reference.stats()) > self.thresholds.straggler_z:
                    is_straggler = True
                    if job_id is not None:
                        self._straggler_jobs.setdefault(ce, {})[job_id] = None
            if group is not None:
                reference.add(duration)
                self._sample(self._fleet, phase).add(duration)
            else:
                reference.add(duration)
        self._sample(self._per_ce, (ce, phase)).add(duration)
        if phase == "job.run":
            self._completed[ce] += 1
        return is_straggler

    def observe_fault(self, ce: str, time_to_failure: float) -> None:
        """Record one failed attempt on *ce* and its detection latency."""
        self._touch(ce)
        self._faults[ce] += 1
        self._sample(self._ttf, ce).add(time_to_failure)

    # -- queries ---------------------------------------------------------
    def ces(self) -> List[str]:
        """Every CE observed so far, first-seen order."""
        return list(self._completed)

    def seen(self, ce: str) -> bool:
        """True once *ce* produced at least one observation."""
        return ce in self._completed

    def fleet_median(self, phase: str) -> Optional[float]:
        """Fleet-wide median duration of *phase*, or None before data."""
        sample = self._fleet.get(phase)
        if sample is None or len(sample) == 0:
            return None
        return sample.stats().median

    def _ce_median(self, ce: str, phase: str) -> float:
        sample = self._per_ce.get((ce, phase))
        if sample is None or len(sample) == 0:
            return 0.0
        return sample.stats().median

    def health_of(self, ce: str) -> CEHealth:
        """The current :class:`CEHealth` summary of *ce*."""
        self._touch(ce)
        thresholds = self.thresholds
        completed = self._completed[ce]
        faults = self._faults[ce]
        straggler_jobs = len(self._straggler_jobs.get(ce, {}))
        ttf_sample = self._ttf.get(ce)
        median_ttf = (
            ttf_sample.stats().median if ttf_sample is not None and len(ttf_sample) else 0.0
        )
        health = CEHealth(
            ce=ce,
            completed=completed,
            faults=faults,
            straggler_jobs=straggler_jobs,
            median_queue=self._ce_median(ce, "job.queue"),
            median_run=self._ce_median(ce, "job.run"),
            median_ttf=median_ttf,
        )

        # Straggler CE: enough completions, and a qualifying fraction of
        # them were individually flagged against the fleet.
        if (
            completed >= thresholds.min_samples
            and health.straggler_fraction >= thresholds.ce_straggler_fraction
        ):
            health.is_straggler = True

        # Blackhole CE: enough attempts, dominated by faults, and those
        # faults arrive fast — relative to the fleet's successful run
        # phase when one exists, otherwise against the absolute floor.
        if health.attempts >= thresholds.min_samples and (
            health.fault_rate >= thresholds.blackhole_fault_rate
        ):
            fleet_run = self.fleet_median("job.run")
            if fleet_run is not None and fleet_run > 0:
                fast = median_ttf <= thresholds.blackhole_ttf_factor * fleet_run
            else:
                fast = median_ttf <= thresholds.blackhole_ttf_floor
            if fast:
                health.is_blackhole = True

        # Composite score: start healthy, subtract the failure evidence.
        score = 1.0
        score -= min(1.0, health.fault_rate)
        score -= 0.5 * min(1.0, health.straggler_fraction)
        if health.is_blackhole:
            score -= 0.5
        if health.is_straggler:
            score -= 0.25
        health.score = max(0.0, min(1.0, score))
        return health

    def table(self) -> List[CEHealth]:
        """Health summaries for every observed CE, first-seen order."""
        return [self.health_of(ce) for ce in self.ces()]
