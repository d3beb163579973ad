"""Tests for the optimization configuration."""

import pytest

from repro.core.config import OptimizationConfig


class TestLabels:
    def test_paper_labels(self):
        assert OptimizationConfig.nop().label == "NOP"
        assert OptimizationConfig.dp().label == "DP"
        assert OptimizationConfig.sp().label == "SP"
        assert OptimizationConfig.jg().label == "JG"
        assert OptimizationConfig.sp_dp().label == "SP+DP"
        assert OptimizationConfig.sp_dp_jg().label == "SP+DP+JG"

    def test_str_is_label(self):
        assert str(OptimizationConfig.sp_dp()) == "SP+DP"

    def test_paper_configurations_order(self):
        labels = [c.label for c in OptimizationConfig.paper_configurations()]
        assert labels == ["NOP", "JG", "SP", "DP", "SP+DP", "SP+DP+JG"]


class TestSemantics:
    def test_service_concurrency_without_dp(self):
        assert OptimizationConfig.nop().service_concurrency == 1
        assert OptimizationConfig.sp().service_concurrency == 1

    def test_service_concurrency_with_dp(self):
        assert OptimizationConfig.dp().service_concurrency == float("inf")

    def test_frozen(self):
        config = OptimizationConfig.nop()
        with pytest.raises(AttributeError):
            config.data_parallelism = True
