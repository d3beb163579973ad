"""FaultModel validation edges: the boundary values are all meaningful.

probability 0 (ideal testbeds) and 1 (every attempt fails) are legal
extremes, max_attempts=1 means "no resubmission at all" — each drives a
distinct branch in the middleware and must be accepted, while anything
outside must be rejected at construction time.
"""

import numpy as np
import pytest

from repro.grid.faults import FaultModel


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestProbabilityEdges:
    def test_zero_is_legal_and_never_fails(self, rng):
        model = FaultModel(probability=0.0)
        assert not any(model.attempt_fails(rng) for _ in range(200))

    def test_one_is_legal_and_always_fails(self, rng):
        model = FaultModel(probability=1.0, max_attempts=3)
        assert all(model.attempt_fails(rng) for _ in range(200))

    @pytest.mark.parametrize("probability", [-1e-9, -0.5, 1.0 + 1e-9, 2.0])
    def test_outside_unit_interval_rejected(self, probability):
        with pytest.raises(ValueError, match="probability"):
            FaultModel(probability=probability)


class TestMaxAttemptsEdges:
    @pytest.mark.parametrize("attempts", [0, -1])
    def test_below_one_rejected(self, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            FaultModel(max_attempts=attempts)

    def test_none_constructor_uses_both_edges(self):
        model = FaultModel.none()
        assert model.probability == 0.0
        assert model.max_attempts == 1


class TestCombinedEdges:
    def test_certain_failure_single_attempt(self, rng):
        """p=1 with one attempt: the job fails exactly once, definitively."""
        model = FaultModel(probability=1.0, max_attempts=1)
        assert model.attempt_fails(rng)
