"""Tests for the per-result and per-workload energy model."""

import pytest

from repro.hwcost.energy import (
    cycles_energy_nj,
    energy_per_result_pj,
    workload_energy_nj,
)
from repro.nacu.config import FunctionMode, NacuConfig


class TestEnergy:
    def test_per_result_is_power_times_period(self):
        config = NacuConfig()
        pj = energy_per_result_pj(FunctionMode.SIGMOID, config)
        assert 1.0 < pj < 100.0  # plausible 28 nm figure

    def test_exp_costs_more_than_sigmoid(self):
        assert energy_per_result_pj(FunctionMode.EXP) > energy_per_result_pj(
            FunctionMode.SIGMOID
        )

    def test_cycles_energy_scales_linearly(self):
        one = cycles_energy_nj(100, FunctionMode.MAC)
        two = cycles_energy_nj(200, FunctionMode.MAC)
        assert two == pytest.approx(2 * one)

    def test_workload_sum(self):
        split = workload_energy_nj(
            {FunctionMode.MAC: 100, FunctionMode.SIGMOID: 50}
        )
        parts = cycles_energy_nj(100, FunctionMode.MAC) + cycles_energy_nj(
            50, FunctionMode.SIGMOID
        )
        assert split == pytest.approx(parts)
