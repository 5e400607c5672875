"""Uniform piecewise-linear (PWL) approximation — NACU's own family.

Each uniform segment stores a minimax line (slope ``m1`` and intercept
``q`` in the paper's Eq. 8 notation). Coefficient quantisation to LUT word
formats is part of the model, because it is what limits PWL accuracy at
high fractional widths in Fig. 4.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.approx.base import Approximator
from repro.approx.lut import quantise_output
from repro.approx.minimax import fit_linear_segments
from repro.approx.segments import Segment, SegmentTable
from repro.errors import ConfigError, ConvergenceError
from repro.fixedpoint import QFormat

_FIT_SAMPLES = 129


class UniformPWL(Approximator):
    """Uniform-segment PWL with per-segment minimax lines."""

    name = "PWL"

    def __init__(
        self,
        f: Callable[[np.ndarray], np.ndarray],
        x_lo: float,
        x_hi: float,
        n_entries: int,
        slope_fmt: Optional[QFormat] = None,
        intercept_fmt: Optional[QFormat] = None,
        out_fmt: Optional[QFormat] = None,
    ):
        if n_entries < 1:
            raise ConfigError("a PWL table needs at least one segment")
        self.f = f
        self.out_fmt = out_fmt
        edges = np.linspace(x_lo, x_hi, n_entries + 1)
        slopes, intercepts, _ = fit_linear_segments(
            f, edges[:-1], edges[1:], _FIT_SAMPLES
        )
        segments = [
            Segment(*row) for row in zip(
                edges[:-1].tolist(), edges[1:].tolist(),
                slopes.tolist(), intercepts.tolist(),
            )
        ]
        self.table = SegmentTable(segments).quantise_coefficients(
            slope_fmt, intercept_fmt
        )
        slope_bits = slope_fmt.n_bits if slope_fmt else 16
        intercept_bits = intercept_fmt.n_bits if intercept_fmt else 16
        self.word_bits = slope_bits + intercept_bits

    @property
    def n_entries(self) -> int:
        return len(self.table)

    def eval(self, x) -> np.ndarray:
        return quantise_output(self.table.eval(x), self.out_fmt)

    @classmethod
    def for_accuracy(
        cls,
        f: Callable[[np.ndarray], np.ndarray],
        x_lo: float,
        x_hi: float,
        target_error: float,
        max_entries: int = 1 << 14,
        **formats,
    ) -> "UniformPWL":
        """Smallest uniform PWL with max error below ``target_error``."""
        probe = np.linspace(x_lo, x_hi, 8193)
        ref = np.asarray(f(probe), dtype=np.float64)

        def error(n: int) -> float:
            pwl = cls(f, x_lo, x_hi, n, **formats)
            return float(np.max(np.abs(pwl.eval(probe) - ref)))

        n = 1
        while error(n) > target_error:
            n *= 2
            if n > max_entries:
                raise ConvergenceError(
                    f"no uniform PWL below {max_entries} segments reaches "
                    f"max error {target_error:g} (coefficient quantisation "
                    f"may put the target out of reach)"
                )
        lo, hi = n // 2, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if error(mid) <= target_error:
                hi = mid
            else:
                lo = mid
        return cls(f, x_lo, x_hi, hi, **formats)
