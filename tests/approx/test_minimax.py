"""Tests for the minimax fitting primitives."""

import numpy as np
import pytest

from repro.approx.minimax import fit_constant, fit_linear, max_abs_error
from repro.funcs import sigmoid


class TestFitConstant:
    def test_monotone_function_midpoint(self):
        const, err = fit_constant(lambda x: x, 0.0, 1.0)
        assert const == pytest.approx(0.5)
        assert err == pytest.approx(0.5)

    def test_constant_function_zero_error(self):
        const, err = fit_constant(lambda x: np.full_like(x, 3.0), 0.0, 1.0)
        assert const == 3.0
        assert err == 0.0

    def test_sigmoid_segment(self):
        const, err = fit_constant(sigmoid, 0.0, 1.0)
        expected = (0.5 + sigmoid(1.0)) / 2.0
        assert const == pytest.approx(float(expected))


class TestFitLinear:
    def test_exact_on_affine_function(self):
        fit = fit_linear(lambda x: 2.0 * x + 1.0, -1.0, 3.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)
        assert fit.max_error == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_equioscillation(self):
        # Minimax line for x^2 on [0,1] is x - 1/8 with error 1/8.
        fit = fit_linear(np.square, 0.0, 1.0)
        assert fit.slope == pytest.approx(1.0, abs=1e-6)
        assert fit.intercept == pytest.approx(-0.125, abs=1e-6)
        assert fit.max_error == pytest.approx(0.125, abs=1e-6)

    def test_exp_on_unit_interval(self):
        # Minimax line for e^x on [0,1]: slope e - 1, error ~0.105933.
        fit = fit_linear(np.exp, 0.0, 1.0)
        assert fit.slope == pytest.approx(np.e - 1.0, abs=1e-6)
        assert fit.max_error == pytest.approx(0.105933, abs=1e-4)

    def test_residual_equioscillates(self):
        # Chebyshev: the best line touches +-max_error at three points
        # of alternating sign.
        fit = fit_linear(sigmoid, 0.0, 2.0)
        grid = np.linspace(0.0, 2.0, 4001)
        residual = sigmoid(grid) - fit.eval(grid)
        peaks = np.abs(residual) >= 0.98 * fit.max_error
        signs = np.sign(residual[peaks])
        runs = signs[np.r_[True, signs[1:] != signs[:-1]]]
        assert len(runs) >= 3
        assert np.all(runs[1:] == -runs[:-1])

    def test_beats_endpoint_interpolation(self):
        fit = fit_linear(sigmoid, 0.0, 2.0)
        # Endpoint interpolation error for comparison.
        slope = float((sigmoid(2.0) - sigmoid(0.0)) / 2.0)
        interp_err = max_abs_error(
            sigmoid, lambda x: slope * x + 0.5, 0.0, 2.0
        )
        assert fit.max_error < interp_err

    def test_degenerate_interval(self):
        fit = fit_linear(sigmoid, 1.0, 1.0)
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(float(sigmoid(1.0)))

    def test_reported_error_matches_measured(self):
        fit = fit_linear(sigmoid, 0.0, 4.0)
        measured = max_abs_error(sigmoid, fit.eval, 0.0, 4.0)
        assert measured == pytest.approx(fit.max_error, rel=1e-2)


class TestMaxAbsError:
    def test_zero_for_identical(self):
        assert max_abs_error(sigmoid, sigmoid, -5, 5) == 0.0

    def test_known_offset(self):
        assert max_abs_error(
            lambda x: x, lambda x: x + 0.25, 0.0, 1.0
        ) == pytest.approx(0.25)
