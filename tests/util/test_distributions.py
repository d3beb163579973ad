"""Tests for the probability-distribution toolkit."""

import numpy as np
import pytest

from repro.util.distributions import (
    Constant,
    LogNormal,
    SumOf,
    TruncatedNormal,
    Uniform,
    as_distribution,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestConstant:
    def test_always_same_value(self, rng):
        dist = Constant(5.0)
        assert all(dist.sample(rng) == 5.0 for _ in range(10))
        assert dist.mean() == 5.0

    def test_sample_many(self, rng):
        assert np.all(Constant(2.0).sample_many(rng, 7) == 2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Constant(-1.0)


class TestUniform:
    def test_bounds_respected(self, rng):
        dist = Uniform(2.0, 4.0)
        samples = dist.sample_many(rng, 1000)
        assert samples.min() >= 2.0 and samples.max() <= 4.0

    def test_mean(self, rng):
        dist = Uniform(2.0, 4.0)
        assert dist.mean() == 3.0
        assert dist.sample_many(rng, 5000).mean() == pytest.approx(3.0, abs=0.05)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Uniform(4.0, 2.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 2.0)


class TestTruncatedNormal:
    def test_floor_respected(self, rng):
        dist = TruncatedNormal(mu=10.0, sigma=20.0, floor=5.0)
        samples = dist.sample_many(rng, 2000)
        assert samples.min() >= 5.0

    def test_zero_sigma_is_constant(self, rng):
        dist = TruncatedNormal(mu=10.0, sigma=0.0, floor=0.0)
        assert dist.sample(rng) == 10.0
        assert dist.mean() == 10.0

    def test_zero_sigma_below_floor_clamps(self, rng):
        dist = TruncatedNormal(mu=1.0, sigma=0.0, floor=5.0)
        assert dist.sample(rng) == 5.0

    def test_analytical_mean_matches_empirical(self, rng):
        dist = TruncatedNormal(mu=600.0, sigma=300.0, floor=30.0)
        empirical = dist.sample_many(rng, 50000).mean()
        assert dist.mean() == pytest.approx(empirical, rel=0.02)

    def test_paper_overhead_regime(self, rng):
        # ~10 minutes +/- 5 minutes, never below 30s
        dist = TruncatedNormal(mu=600.0, sigma=300.0, floor=30.0)
        samples = dist.sample_many(rng, 10000)
        assert 550 < samples.mean() < 700
        assert 200 < samples.std() < 350

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            TruncatedNormal(mu=1.0, sigma=-1.0)


class TestLogNormal:
    def test_mean_parameterization(self, rng):
        dist = LogNormal(mean_value=360.0, sigma_log=0.8)
        assert dist.mean() == 360.0
        assert dist.sample_many(rng, 100000).mean() == pytest.approx(360.0, rel=0.03)

    def test_heavy_tail(self, rng):
        dist = LogNormal(mean_value=100.0, sigma_log=1.0)
        samples = dist.sample_many(rng, 20000)
        assert np.median(samples) < samples.mean()  # right skew

    def test_zero_sigma_is_constant(self, rng):
        dist = LogNormal(mean_value=50.0, sigma_log=0.0)
        assert dist.sample(rng) == 50.0

    def test_positive_mean_required(self):
        with pytest.raises(ValueError):
            LogNormal(mean_value=0.0, sigma_log=1.0)


class TestComposites:
    def test_sum_of_means_add(self, rng):
        dist = SumOf([Constant(1.0), Constant(2.0), Uniform(0.0, 2.0)])
        assert dist.mean() == pytest.approx(4.0)
        assert dist.sample_many(rng, 5000).mean() == pytest.approx(4.0, abs=0.05)

    def test_sum_of_empty_rejected(self):
        with pytest.raises(ValueError):
            SumOf([])

    def test_sum_of_non_distribution_rejected(self):
        with pytest.raises(TypeError):
            SumOf([Constant(1.0), 2.0])


class TestAsDistribution:
    def test_number_becomes_constant(self):
        dist = as_distribution(4)
        assert isinstance(dist, Constant) and dist.value == 4.0

    def test_distribution_passes_through(self):
        dist = Uniform(0, 1)
        assert as_distribution(dist) is dist

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_distribution("fast")
