"""Probability distributions for stochastic simulation parameters.

Every random quantity in the simulator (job overheads, compute times,
background-load inter-arrivals, failure delays, ...) is described by a
:class:`Distribution` object sampled with an explicit
:class:`numpy.random.Generator`.  Keeping the generator external makes
components reproducible and lets tests drive them with fixed streams.

The paper repeatedly stresses that EGEE's per-job overhead is *high and
variable* ("around 10 minutes ... ± 5 minutes", Section 5.1) and that
this variability is precisely why service parallelism pays off even
under data parallelism (Section 3.5.4).  The distributions here are the
knobs that the calibration layer (`repro.experiments.calibration`) turns
to reproduce that regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Distribution",
    "Constant",
    "Uniform",
    "TruncatedNormal",
    "LogNormal",
    "SumOf",
    "as_distribution",
]


class Distribution:
    """Base class: a non-negative random duration/size generator."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytical mean of the distribution."""
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw *n* values (vectorized where the backend allows)."""
        return np.array([self.sample(rng) for _ in range(n)], dtype=float)


@dataclass(frozen=True)
class Constant(Distribution):
    """Degenerate distribution: always *value*.  Used by ideal testbeds."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"Constant value must be >= 0, got {self.value}")

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=float)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"need 0 <= low <= high, got [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)


@dataclass(frozen=True)
class TruncatedNormal(Distribution):
    """Normal(mu, sigma) truncated below at *floor* by resampling.

    This is the paper-calibration workhorse: "10 minutes ± 5 minutes"
    overheads become ``TruncatedNormal(600, 300, floor=30)``.

    The analytical mean reported is the mean of the *truncated*
    distribution (computed from the standard one-sided truncation
    formula), so calibration code can reason about the effective value.
    """

    mu: float
    sigma: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.floor < 0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.sigma == 0:
            return max(self.mu, self.floor)
        for _ in range(1000):
            value = rng.normal(self.mu, self.sigma)
            if value >= self.floor:
                return float(value)
        return self.floor  # pragma: no cover - pathological parameters

    def mean(self) -> float:
        if self.sigma == 0:
            return max(self.mu, self.floor)
        alpha = (self.floor - self.mu) / self.sigma
        phi = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(alpha / math.sqrt(2.0)))
        tail = 1.0 - big_phi
        if tail <= 0:  # pragma: no cover - floor far above mu
            return self.floor
        return self.mu + self.sigma * phi / tail

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sigma == 0:
            return np.full(n, max(self.mu, self.floor), dtype=float)
        out = rng.normal(self.mu, self.sigma, size=n)
        bad = out < self.floor
        while bad.any():
            out[bad] = rng.normal(self.mu, self.sigma, size=int(bad.sum()))
            bad = out < self.floor
        return out


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal parameterized by its *arithmetic* mean and sigma of the log.

    Heavy right tail — a good model for batch-queue waiting times on a
    loaded multi-user grid, where a few jobs get stuck far longer than
    the median (the paper's "D1 remained blocked on a waiting queue").
    """

    mean_value: float
    sigma_log: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"mean_value must be > 0, got {self.mean_value}")
        if self.sigma_log < 0:
            raise ValueError(f"sigma_log must be >= 0, got {self.sigma_log}")

    def _mu_log(self) -> float:
        return math.log(self.mean_value) - 0.5 * self.sigma_log**2

    def sample(self, rng: np.random.Generator) -> float:
        if self.sigma_log == 0:
            return self.mean_value
        return float(rng.lognormal(self._mu_log(), self.sigma_log))

    def mean(self) -> float:
        return self.mean_value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.sigma_log == 0:
            return np.full(n, self.mean_value, dtype=float)
        return rng.lognormal(self._mu_log(), self.sigma_log, size=n)


class SumOf(Distribution):
    """Sum of independent component distributions.

    Used by composite (grouped) services: a grouped job's compute time
    is the sum of its constituents' compute times (Section 3.6 — the
    codes run back-to-back inside a single grid job).
    """

    def __init__(self, components: Sequence[Distribution]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("SumOf needs at least one component")
        for c in comps:
            if not isinstance(c, Distribution):
                raise TypeError(f"SumOf components must be Distributions, got {type(c).__name__}")
        self.components = comps

    def sample(self, rng: np.random.Generator) -> float:
        return float(sum(c.sample(rng) for c in self.components))

    def mean(self) -> float:
        return float(sum(c.mean() for c in self.components))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        total = np.zeros(n, dtype=float)
        for c in self.components:
            total += c.sample_many(rng, n)
        return total

    def __repr__(self) -> str:
        return f"SumOf({len(self.components)} components, mean={self.mean():.3g})"


def as_distribution(value: "float | Distribution") -> Distribution:
    """Coerce a bare number to :class:`Constant`; pass distributions through."""
    if isinstance(value, Distribution):
        return value
    if isinstance(value, (int, float)):
        return Constant(float(value))
    raise TypeError(f"expected number or Distribution, got {type(value).__name__}")
