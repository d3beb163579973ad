"""Tests for failure injection and resubmission."""

import numpy as np
import pytest

from repro.grid.faults import FaultModel


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestFaultModel:
    def test_none_never_fails(self, rng):
        model = FaultModel.none()
        assert not any(model.attempt_fails(rng) for _ in range(1000))

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultModel(probability=1.5)
        with pytest.raises(ValueError):
            FaultModel(probability=-0.1)

    def test_max_attempts_bounds(self):
        with pytest.raises(ValueError):
            FaultModel(probability=0.1, max_attempts=0)

    def test_failure_rate_matches_probability(self, rng):
        model = FaultModel.from_values(probability=0.3)
        failures = sum(model.attempt_fails(rng) for _ in range(20000))
        assert failures / 20000 == pytest.approx(0.3, abs=0.02)

    def test_detection_delay_sampled(self, rng):
        model = FaultModel.from_values(probability=0.5, detection_delay=42.0)
        assert model.sample_detection_delay(rng) == 42.0


class TestPerCEOverrides:
    def test_probability_for(self):
        model = FaultModel.from_values(
            probability=0.02, ce_probability={"hole-ce": 0.9}
        )
        assert model.probability_for("hole-ce") == 0.9
        assert model.probability_for("ok-ce") == 0.02
        assert model.probability_for(None) == 0.02

    def test_ce_probability_validated(self):
        with pytest.raises(ValueError, match="hole"):
            FaultModel.from_values(probability=0.0, ce_probability={"hole": 1.5})

    def test_blackhole_ce_fails_much_more_often(self, rng):
        model = FaultModel.from_values(
            probability=0.02, ce_probability={"hole": 0.9}
        )
        hole = sum(model.attempt_fails(rng, ce="hole") for _ in range(2000))
        ok = sum(model.attempt_fails(rng, ce="ok") for _ in range(2000))
        assert hole / 2000 == pytest.approx(0.9, abs=0.03)
        assert ok / 2000 == pytest.approx(0.02, abs=0.02)

    def test_ce_choice_never_shifts_the_stream(self):
        # one draw per attempt regardless of which CE was picked: seeded
        # runs stay comparable across feedback on/off ablations that
        # route jobs differently
        model = FaultModel.from_values(probability=0.1, ce_probability={"hole": 0.9})
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        for i in range(200):
            model.attempt_fails(rng_a, ce="hole" if i % 2 else "ok")
            model.attempt_fails(rng_b, ce="ok")
        assert rng_a.random() == rng_b.random()

    def test_zero_probability_everywhere_consumes_nothing(self):
        model = FaultModel.none()
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        for _ in range(50):
            model.attempt_fails(rng_a, ce="any")
        assert rng_a.random() == rng_b.random()

    def test_per_ce_detection_delay(self, rng):
        model = FaultModel.from_values(
            probability=0.5,
            detection_delay=120.0,
            ce_detection_delay={"hole": 5.0},
        )
        assert model.sample_detection_delay(rng, ce="hole") == 5.0
        assert model.sample_detection_delay(rng, ce="ok") == 120.0
