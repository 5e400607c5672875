"""Static worst-case error budget for a NACU configuration.

Section III gives the paper's *format*-level accuracy argument; this
module completes it into a full a-priori bound for the sigmoid path,
summing the four independent error mechanisms:

* PWL approximation error of the worst segment (minimax residual);
* slope quantisation: half a slope LSB times the largest multiplier
  operand (the covered range);
* bias quantisation: half a bias LSB;
* output rounding: half an output LSB;
* saturation tail: ``1 - sigma(range)``, the cost of clamping.

The sum is a guaranteed upper bound on the max error — useful to pick a
configuration *before* simulating it — and the tests confirm measured
errors never exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.approx.minimax import fit_linear_segments
from repro.funcs import sigmoid
from repro.nacu.config import NacuConfig


@dataclass(frozen=True)
class ErrorBudget:
    """Worst-case error contributions of the sigmoid path."""

    approximation: float
    slope_quantisation: float
    bias_quantisation: float
    output_rounding: float
    saturation_tail: float

    @property
    def total(self) -> float:
        """Guaranteed max-error upper bound (mechanisms are additive)."""
        return (
            self.approximation
            + self.slope_quantisation
            + self.bias_quantisation
            + self.output_rounding
            + self.saturation_tail
        )

    def rows(self):
        """(mechanism, bound) pairs plus the total, for reporting."""
        return [
            ("approximation", self.approximation),
            ("slope quantisation", self.slope_quantisation),
            ("bias quantisation", self.bias_quantisation),
            ("output rounding", self.output_rounding),
            ("saturation tail", self.saturation_tail),
            ("TOTAL (bound)", self.total),
        ]


def sigmoid_error_budget(
    config: Optional[NacuConfig] = None, fit_samples: int = 257
) -> ErrorBudget:
    """Compute the static budget for a configuration's sigmoid."""
    config = config or NacuConfig()
    edges = np.linspace(0.0, config.lut_range, config.lut_entries + 1)
    _, _, errors = fit_linear_segments(
        sigmoid, edges[:-1], edges[1:], fit_samples
    )
    return ErrorBudget(
        approximation=float(errors.max()),
        slope_quantisation=config.slope_fmt.resolution / 2.0 * config.lut_range,
        bias_quantisation=config.bias_fmt.resolution / 2.0,
        output_rounding=config.io_fmt.resolution / 2.0,
        saturation_tail=1.0 - float(sigmoid(config.lut_range)),
    )


def tanh_error_budget(config: Optional[NacuConfig] = None) -> float:
    """Bound for tanh: Eq. 3 doubles every sigma-path mechanism."""
    budget = sigmoid_error_budget(config)
    # The output rounding happens after the doubling and is not scaled.
    config = config or NacuConfig()
    return 2.0 * (budget.total - budget.output_rounding) + (
        config.io_fmt.resolution / 2.0
    )


def exp_error_budget(config: Optional[NacuConfig] = None) -> float:
    """Bound for e^x on the normalised domain: Eq. 16's factor of four
    on the sigma bound, plus the divider/output quantisation steps."""
    config = config or NacuConfig()
    sigma_bound = sigmoid_error_budget(config).total
    divider_lsb = config.divider_fmt.resolution
    return 4.0 * sigma_bound + divider_lsb + config.io_fmt.resolution / 2.0
