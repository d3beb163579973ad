"""Stochastic middleware-overhead model.

The paper (Sections 3.5.4 and 5.1) attributes the distinctive
performance behaviour of production grids to a large, highly variable
per-job overhead: "the overhead introduced by submission, scheduling,
queuing and data transfers times can be very high (around 10 minutes)
and quite variable (± 5 minutes)".

We decompose that overhead into the phases an LCG2-like stack actually
has; each phase gets its own :class:`~repro.util.distributions.Distribution`:

``submission``
    User interface accepting the job and shipping it to the Resource
    Broker (sandbox upload, authentication, ...).
``brokering``
    Matchmaking at the Resource Broker and dispatch to the chosen
    computing element.
``queue_extra``
    Middleware-induced queue residency at the CE **on top of** the
    contention computed by the batch simulation (information-system
    staleness, ranking errors, jobs landing on busy sites, other VOs'
    jobs ahead in the local queue that we do not simulate
    individually...).  On a heavily shared infrastructure this is the
    dominant, heavy-tailed term.
``completion_notification``
    Delay between the job finishing on the worker and the submitter
    observing DONE (logging & bookkeeping propagation).

`total_mean()` exposes the calibrated expectation so experiment code
can reason about regimes (overhead-dominated vs compute-dominated).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.distributions import Constant, Distribution, as_distribution

__all__ = ["OverheadModel", "OverheadSample"]


@dataclass(frozen=True, slots=True)
class OverheadSample:
    """One job's sampled overhead phases, in seconds."""

    submission: float
    brokering: float
    queue_extra: float
    completion_notification: float

    @property
    def total(self) -> float:
        """Sum of all overhead phases."""
        return self.submission + self.brokering + self.queue_extra + self.completion_notification

    def under_load(self, scale: float) -> "OverheadSample":
        """Scale the load-sensitive phases (brokering + queue residency).

        Queue waits and matchmaking latency on a shared grid grow with
        how much work is in flight; submission and completion
        notification are per-job constants.  The middleware applies
        this with ``scale`` derived from current grid utilization —
        see :meth:`repro.grid.middleware.Grid.load_factor`.
        """
        if scale < 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        return OverheadSample(
            submission=self.submission,
            brokering=self.brokering * scale,
            queue_extra=self.queue_extra * scale,
            completion_notification=self.completion_notification,
        )


@dataclass(frozen=True)
class OverheadModel:
    """Per-phase overhead distributions (see module docstring)."""

    submission: Distribution = field(default_factory=lambda: Constant(0.0))
    brokering: Distribution = field(default_factory=lambda: Constant(0.0))
    queue_extra: Distribution = field(default_factory=lambda: Constant(0.0))
    completion_notification: Distribution = field(default_factory=lambda: Constant(0.0))

    @classmethod
    def zero(cls) -> "OverheadModel":
        """No overhead at all — the idealized grid of Section 3.5's model."""
        return cls()

    @classmethod
    def from_values(
        cls,
        submission: "float | Distribution" = 0.0,
        brokering: "float | Distribution" = 0.0,
        queue_extra: "float | Distribution" = 0.0,
        completion_notification: "float | Distribution" = 0.0,
    ) -> "OverheadModel":
        """Build a model coercing bare numbers to constants."""
        return cls(
            submission=as_distribution(submission),
            brokering=as_distribution(brokering),
            queue_extra=as_distribution(queue_extra),
            completion_notification=as_distribution(completion_notification),
        )

    def sample(self, rng: np.random.Generator) -> OverheadSample:
        """Draw one job's worth of overhead phases."""
        return OverheadSample(
            submission=self.submission.sample(rng),
            brokering=self.brokering.sample(rng),
            queue_extra=self.queue_extra.sample(rng),
            completion_notification=self.completion_notification.sample(rng),
        )

    def total_mean(self) -> float:
        """Expected total overhead per job."""
        return (
            self.submission.mean()
            + self.brokering.mean()
            + self.queue_extra.mean()
            + self.completion_notification.mean()
        )
