"""Probabilistic makespan modelling (Section 5.4 and reference [12]).

The deterministic model of Section 3.5 predicts ``S_SDP = 1`` — no gain
from service parallelism once data parallelism is on.  The experiments
contradict it because per-job times on EGEE are random.  This module
quantifies that effect:

* under DP with a stage barrier, each stage costs the **maximum** of
  ``n_D`` i.i.d. job times, so the workflow costs the sum of ``n_W``
  such maxima.  The expected maximum grows with both ``n_D`` and the
  dispersion of the distribution (extreme-value statistics);
* under DP+SP each item flows independently, so the workflow costs the
  **maximum over items of the sum** of ``n_W`` job times — sums
  concentrate, so this maximum is smaller than the sum of maxima
  whenever the job times have any variance.

``expected_sdp_gain`` Monte-Carlo-estimates ``E[Σ_DP] / E[Σ_DSP]`` —
the service-parallelism gain the deterministic theory misses; it is 1.0
exactly for constant times and grows with variability (benchmark E11).

The module also provides the granularity trade-off behind "grouping
jobs of a single service" (the paper's stated future work): grouping
*k* items into one job divides the number of overhead draws by *k* but
serializes the items inside a job, shrinking data parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.distributions import Distribution

__all__ = ["expected_sdp_gain", "GranularityModel"]


def _sample_matrix(
    job_time: Distribution, n_w: int, n_d: int, rng: np.random.Generator, rounds: int
) -> np.ndarray:
    """(rounds, n_w, n_d) samples of i.i.d. per-job times."""
    if n_w < 1 or n_d < 1 or rounds < 1:
        raise ValueError("n_w, n_d and rounds must all be >= 1")
    flat = job_time.sample_many(rng, rounds * n_w * n_d)
    return flat.reshape(rounds, n_w, n_d)


def expected_sdp_gain(
    job_time: Distribution,
    n_w: int,
    n_d: int,
    rng: np.random.Generator,
    rounds: int = 200,
) -> float:
    """E[Σ_DP] / E[Σ_DSP]: the SP-on-top-of-DP gain under randomness.

    Equals 1.0 for constant job times (the deterministic S_SDP) and
    grows with dispersion — the quantitative version of the paper's
    Figure 6 narrative.
    """
    samples = _sample_matrix(job_time, n_w, n_d, rng, rounds)
    dp = samples.max(axis=2).sum(axis=1).mean()
    dsp = samples.sum(axis=1).max(axis=1).mean()
    if dsp == 0:
        return 1.0
    return float(dp / dsp)


@dataclass(frozen=True)
class GranularityModel:
    """Expected makespan of one service stage vs intra-service grouping.

    ``n_d`` items are packed into jobs of ``k`` items each
    (``ceil(n_d / k)`` jobs, run fully in parallel).  Each job pays one
    overhead draw plus ``k`` compute times.  Larger *k* pays fewer
    overheads but serializes more compute — the trade-off the paper
    plans to explore "by grouping jobs of a single service, thus
    finding a trade-off between data parallelism and the system's
    overhead".
    """

    overhead: Distribution
    compute: Distribution
    n_d: int

    def expected_makespan(
        self, k: int, rng: np.random.Generator, rounds: int = 200
    ) -> float:
        """Monte-Carlo E[stage makespan] with jobs of *k* items."""
        if k < 1:
            raise ValueError(f"group size k must be >= 1, got {k}")
        if self.n_d < 1:
            raise ValueError(f"n_d must be >= 1, got {self.n_d}")
        n_jobs = -(-self.n_d // k)  # ceil division
        sizes = [k] * (self.n_d // k)
        if self.n_d % k:
            sizes.append(self.n_d % k)
        assert len(sizes) == n_jobs
        totals = np.empty(rounds, dtype=float)
        for r in range(rounds):
            job_times = [
                self.overhead.sample(rng) + sum(self.compute.sample(rng) for _ in range(s))
                for s in sizes
            ]
            totals[r] = max(job_times)
        return float(totals.mean())
