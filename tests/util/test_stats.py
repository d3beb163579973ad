"""Tests for linear regression and summaries."""

import numpy as np
import pytest

from repro.util.stats import linear_fit


class TestLinearFit:
    def test_exact_line_recovered(self):
        x = [12, 66, 126]
        y = [20784 + 884 * xi for xi in x]  # the paper's NOP line
        fit = linear_fit(x, y)
        assert fit.intercept == pytest.approx(20784)
        assert fit.slope == pytest.approx(884)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line_r_squared_below_one(self):
        rng = np.random.default_rng(0)
        x = np.arange(50)
        y = 3.0 * x + 10 + rng.normal(0, 5.0, size=50)
        fit = linear_fit(x, y)
        assert 0.9 < fit.r_squared < 1.0
        assert fit.slope == pytest.approx(3.0, abs=0.3)

    def test_predict(self):
        fit = linear_fit([0, 1], [1, 3])
        assert fit.intercept + 2 * fit.slope == pytest.approx(5.0)

    def test_constant_y_r_squared_one(self):
        fit = linear_fit([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([2, 2, 2], [1, 2, 3])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1, 2, 3])
