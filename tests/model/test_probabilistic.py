"""Tests for the probabilistic makespan extension (Section 5.4)."""

import numpy as np
import pytest

from repro.model.probabilistic import GranularityModel, expected_sdp_gain
from repro.util.distributions import Constant, LogNormal, TruncatedNormal


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestExpectedMakespans:
    def test_validation(self, rng):
        with pytest.raises(ValueError):
            expected_sdp_gain(Constant(1.0), 0, 5, rng)


class TestSdpGain:
    def test_one_for_constant_times(self, rng):
        assert expected_sdp_gain(Constant(7.0), 5, 12, rng, rounds=10) == 1.0

    def test_grows_with_variability(self, rng):
        gains = []
        for sigma in (0.1, 0.5, 1.0):
            job = LogNormal(mean_value=100.0, sigma_log=sigma)
            gains.append(expected_sdp_gain(job, 5, 30, rng, rounds=150))
        assert gains[0] < gains[1] < gains[2]
        assert gains[0] > 1.0

    def test_paper_regime_gain_in_measured_range(self, rng):
        # Overhead 600 +/- 300 s on top of ~200 s compute: the paper
        # measured SP-on-DP speed-ups around 1.9-2.3; the statistical
        # model should land in the same region (order of magnitude).
        job = TruncatedNormal(mu=800.0, sigma=300.0, floor=60.0)
        gain = expected_sdp_gain(job, 5, 66, rng, rounds=200)
        assert 1.2 < gain < 3.5


class TestGranularity:
    def test_k_one_maximizes_parallelism_when_overhead_free(self, rng):
        model = GranularityModel(overhead=Constant(0.0), compute=Constant(10.0), n_d=16)
        times = {k: model.expected_makespan(k, rng, rounds=5) for k in (1, 2, 4, 8, 16)}
        assert min(times, key=times.get) == 1

    def test_full_grouping_wins_when_overhead_dominates(self, rng):
        model = GranularityModel(
            overhead=Constant(1000.0), compute=Constant(0.1), n_d=16
        )
        one = model.expected_makespan(1, rng, rounds=5)
        sixteen = model.expected_makespan(16, rng, rounds=5)
        # With parallel jobs each paying the same constant overhead the
        # makespans tie on expectation; variance-free case: equal.
        assert sixteen <= one + 2.0

    def test_intermediate_optimum_with_variable_overhead(self, rng):
        # Variable overhead: many parallel jobs means taking a max over
        # many draws (bad), one giant job serializes compute (bad):
        # somewhere in between wins.
        model = GranularityModel(
            overhead=LogNormal(mean_value=600.0, sigma_log=0.8),
            compute=Constant(60.0),
            n_d=32,
        )
        times = {k: model.expected_makespan(k, rng, rounds=150) for k in (1, 4, 32)}
        assert times[4] < times[1]  # grouping a bit beats max over 32 overheads

    def test_expected_makespan_validation(self, rng):
        model = GranularityModel(overhead=Constant(1.0), compute=Constant(1.0), n_d=4)
        with pytest.raises(ValueError):
            model.expected_makespan(0, rng)

    def test_partial_last_group(self, rng):
        model = GranularityModel(overhead=Constant(10.0), compute=Constant(1.0), n_d=5)
        # k=2 -> groups of 2,2,1; makespan = 10 + 2 = 12
        assert model.expected_makespan(2, rng, rounds=3) == pytest.approx(12.0)
