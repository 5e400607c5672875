"""Function-approximation engines (paper Section VI taxonomy).

The paper's related-work survey divides the landscape into four families,
all of which are implemented here so Fig. 4 can be regenerated:

* :class:`~repro.approx.lut.UniformLUT` — uniform segments, constant each.
* :class:`~repro.approx.ralut.RangeAddressableLUT` — non-uniform segments,
  constant each (RALUT).
* :class:`~repro.approx.pwl.UniformPWL` — uniform segments, minimax line
  each (the family NACU itself belongs to).
* :class:`~repro.approx.nupwl.NonUniformPWL` — non-uniform segments with
  minimax lines (NUPWL).
* :mod:`~repro.approx.polynomial` — single-segment higher-order
  polynomials (Taylor / minimax), used by several related-work baselines.
"""

from repro._lazy import lazy_names

# The sigmoid LUT build needs only repro.approx.minimax, which must not
# drag every engine in with the package: the engines load on first use.
__getattr__ = lazy_names(globals(), {
    "Approximator": "repro.approx.base",
    "Segment": "repro.approx.segments",
    "SegmentTable": "repro.approx.segments",
    "UniformLUT": "repro.approx.lut",
    "RangeAddressableLUT": "repro.approx.ralut",
    "UniformPWL": "repro.approx.pwl",
    "NonUniformPWL": "repro.approx.nupwl",
    "InterpolatedLUT": "repro.approx.interpolated",
    "PolynomialApproximator": "repro.approx.polynomial",
    "taylor_coefficients": "repro.approx.polynomial",
    "DesignPoint": "repro.approx.explorer",
    "entries_for_accuracy": "repro.approx.explorer",
    "error_for_entries": "repro.approx.explorer",
    "explore_entries_vs_fracbits": "repro.approx.explorer",
    "explore_error_vs_entries": "repro.approx.explorer",
})

__all__ = [
    "Approximator",
    "DesignPoint",
    "InterpolatedLUT",
    "NonUniformPWL",
    "PolynomialApproximator",
    "RangeAddressableLUT",
    "Segment",
    "SegmentTable",
    "UniformLUT",
    "UniformPWL",
    "entries_for_accuracy",
    "error_for_entries",
    "explore_entries_vs_fracbits",
    "explore_error_vs_entries",
    "taylor_coefficients",
]
