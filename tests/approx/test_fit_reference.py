"""The lock-step minimax fitter against the one-segment search it replaced.

``reference_fit_linear`` is the per-segment ternary search that
``fit_linear`` ran before every segment shared one search; the LUT
builder and the error budget used to call it once per segment, and
``PerSegmentPWL`` is ``UniformPWL`` as it was, one ``fit_linear`` call
per segment. Every comparison here is on the float64 bytes.
"""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.error_budget import sigmoid_error_budget
from repro.approx.minimax import (
    _CHUNK_ROWS,
    LinearFit,
    fit_linear,
    fit_linear_segments,
    sample_interval,
)
from repro.approx.pwl import _FIT_SAMPLES, UniformPWL
from repro.approx.segments import Segment, SegmentTable
from repro.errors import ConfigError
from repro.fixedpoint import QFormat
from repro.fixedpoint.rounding import quantize_float
from repro.funcs import sigmoid
from repro.nacu.config import NacuConfig
from repro.nacu.lutgen import build_sigmoid_lut


def _best_intercept(x, y, slope):
    residual = y - slope * x
    lo, hi = float(np.min(residual)), float(np.max(residual))
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def reference_fit_linear(f, x_lo, x_hi, n_samples=257):
    x = sample_interval(x_lo, x_hi, n_samples)
    y = np.asarray(f(x), dtype=np.float64)
    if x_hi <= x_lo:
        const, err = _best_intercept(x, y, 0.0)
        return LinearFit(0.0, const, err)

    secant = (y[-1] - y[0]) / (x[-1] - x[0])
    span = max(abs(secant), 1.0)
    lo_m, hi_m = secant - 2.0 * span, secant + 2.0 * span
    ms = np.empty((2, 1))
    for _ in range(56):
        ms[0, 0] = lo_m + (hi_m - lo_m) / 3.0
        ms[1, 0] = hi_m - (hi_m - lo_m) / 3.0
        r = y - ms * x
        e = (np.max(r, axis=1) - np.min(r, axis=1)) / 2.0
        if e[0] <= e[1]:
            hi_m = ms[1, 0]
        else:
            lo_m = ms[0, 0]
    slope = (lo_m + hi_m) / 2.0
    intercept, err = _best_intercept(x, y, slope)
    return LinearFit(slope, intercept, err)


def reference_lut_words(config):
    edges = np.linspace(0.0, config.lut_range, config.lut_entries + 1)
    fits = [reference_fit_linear(sigmoid, float(lo), float(hi))
            for lo, hi in zip(edges[:-1], edges[1:])]
    slope_raw = quantize_float(np.array([f.slope for f in fits]),
                               config.slope_fmt)
    bias_raw = quantize_float(np.array([f.intercept for f in fits]),
                              config.bias_fmt)
    return slope_raw.tobytes(), bias_raw.tobytes()


def words(fit):
    return struct.pack("<3d", fit.slope, fit.intercept, fit.max_error)


FUNCTIONS = {
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "square": np.square,
    "sin": np.sin,
    "abs": np.abs,
    # Exact residuals: every sample sits on the line, so the signs of
    # the zero extrema reach the intercept's bytes.
    "affine": lambda x: 2.0 * x + 1.0,
    "zero": lambda x: 0.0 * x,
}

bounds = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    lo = draw(bounds)
    kind = draw(st.sampled_from(
        ["any", "equal", "reversed", "next", "narrow", "wide"]
    ))
    if kind == "any":
        hi = draw(bounds)
    elif kind == "equal":
        hi = lo
    elif kind == "reversed":
        hi = lo - draw(st.floats(0.0, 10.0))
    elif kind == "next":
        hi = float(np.nextafter(lo, np.inf))
    elif kind == "narrow":
        hi = lo + draw(st.floats(0.0, 1e-9))
    else:
        lo, hi = -abs(lo) - 1e5, abs(lo) + 1e5
    return lo, hi


samples = st.sampled_from([257, 2, 3, 64, 101])


class TestFitLinearBytes:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(FUNCTIONS)), interval=intervals(),
           n_samples=samples)
    def test_one_segment_matches_the_reference(self, name, interval,
                                               n_samples):
        f = FUNCTIONS[name]
        lo, hi = interval
        got = fit_linear(f, lo, hi, n_samples)
        assert words(got) == words(reference_fit_linear(f, lo, hi, n_samples))

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(FUNCTIONS)),
           rows=st.lists(intervals(), min_size=1, max_size=6),
           n_samples=samples)
    def test_each_row_matches_its_own_fit(self, name, rows, n_samples):
        # A mixed batch (degenerate, sub-ULP and ordinary rows together)
        # must not change any row's grid or search.
        f = FUNCTIONS[name]
        lo, hi = zip(*rows)
        slopes, intercepts, errors = fit_linear_segments(f, lo, hi, n_samples)
        for i, (a, b) in enumerate(rows):
            got = LinearFit(slopes[i], intercepts[i], errors[i])
            assert words(got) == words(reference_fit_linear(f, a, b, n_samples))

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, -3.0), (0.0, 0.0)])
    def test_degenerate_segment_raises_no_warning(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit_linear(sigmoid, lo, hi)
        assert words(got) == words(reference_fit_linear(sigmoid, lo, hi))
        assert got.slope == 0.0


class TestSigmoidLutWords:
    @pytest.mark.parametrize("config", [
        NacuConfig.for_bits(8),
        NacuConfig.for_bits(12),
        NacuConfig.for_bits(16),
        pytest.param(NacuConfig.for_bits(24), marks=pytest.mark.slow),
        NacuConfig(lut_entries=40),
        NacuConfig(lut_entries=30, lut_range=6.0),
        NacuConfig(use_approx_divider=True),
    ], ids=["8", "12", "16", "24", "entries40", "range6", "approx-div"])
    def test_words_match_the_per_segment_loop(self, config):
        lut = build_sigmoid_lut(config)
        assert (lut.slope_raw.tobytes(), lut.bias_raw.tobytes()) == (
            reference_lut_words(config)
        )

    @pytest.mark.parametrize("config,fit_samples", [
        (NacuConfig(), 257),
        (NacuConfig.for_bits(12), 257),
        (NacuConfig(lut_entries=30, lut_range=6.0), 129),
    ])
    def test_error_budget_is_unchanged(self, config, fit_samples):
        edges = np.linspace(0.0, config.lut_range, config.lut_entries + 1)
        worst = max(
            reference_fit_linear(sigmoid, float(lo), float(hi),
                                 fit_samples).max_error
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        budget = sigmoid_error_budget(config, fit_samples)
        assert struct.pack("<d", budget.approximation) == (
            struct.pack("<d", worst)
        )


class PerSegmentPWL(UniformPWL):
    """``UniformPWL`` fitted one ``fit_linear`` call per segment."""

    def __init__(self, f, x_lo, x_hi, n_entries, slope_fmt=None,
                 intercept_fmt=None, out_fmt=None):
        self.f = f
        self.out_fmt = out_fmt
        edges = np.linspace(x_lo, x_hi, n_entries + 1)
        segments = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            fit = fit_linear(f, float(lo), float(hi), _FIT_SAMPLES)
            segments.append(
                Segment(float(lo), float(hi), fit.slope, fit.intercept)
            )
        self.table = reference_quantise_coefficients(
            SegmentTable(segments), slope_fmt, intercept_fmt
        )


def reference_quantise_coefficients(table, slope_fmt, intercept_fmt):
    """``SegmentTable.quantise_coefficients`` as it was: two
    ``quantize_float`` calls per segment."""
    new_segments = []
    for seg in table.segments:
        slope = seg.slope
        intercept = seg.intercept
        if slope_fmt is not None:
            slope = float(quantize_float(slope, slope_fmt)) * slope_fmt.resolution
        if intercept_fmt is not None:
            intercept = (
                float(quantize_float(intercept, intercept_fmt))
                * intercept_fmt.resolution
            )
        new_segments.append(
            Segment(seg.x_lo, seg.x_hi, slope, intercept)
        )
    return SegmentTable(new_segments)


def table_words(table):
    return [struct.pack("<4d", s.x_lo, s.x_hi, s.slope, s.intercept)
            for s in table.segments]


#: LUT word formats: quantisation moves every coefficient, and the
#: accuracy target below stays reachable.
FORMATS = {"slope_fmt": QFormat(0, 14), "intercept_fmt": QFormat(1, 14)}


class TestUniformPWLSegments:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, _CHUNK_ROWS + 1])
    def test_segments_match_the_per_segment_loop(self, n):
        want = PerSegmentPWL(sigmoid, 0.0, 8.0, n).table
        got = UniformPWL(sigmoid, 0.0, 8.0, n).table
        assert len(got) == n
        assert table_words(got) == table_words(want)
        got = UniformPWL(sigmoid, 0.0, 8.0, n, **FORMATS).table
        assert table_words(got) == table_words(
            reference_quantise_coefficients(want, **FORMATS)
        )


class TestSegmentTableVectorised:
    """Whole-vector contiguity checks and coefficient quantising against
    the per-segment loops they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    @pytest.mark.parametrize("formats", [
        {"slope_fmt": None, "intercept_fmt": None},
        FORMATS,
        {"slope_fmt": QFormat(0, 14), "intercept_fmt": None},
        {"slope_fmt": None, "intercept_fmt": QFormat(1, 14)},
        {"slope_fmt": QFormat(0, 4), "intercept_fmt": QFormat(0, 3)},
    ], ids=["none", "both", "slope", "intercept", "saturating"])
    def test_quantised_words_match_the_per_segment_loop(self, n, formats):
        table = UniformPWL(sigmoid, -8.0, 8.0, n).table
        got = table.quantise_coefficients(**formats)
        want = reference_quantise_coefficients(table, **formats)
        assert table_words(got) == table_words(want)
        assert [type(s.slope) for s in got.segments] == [
            type(s.slope) for s in want.segments
        ]

    def test_quantised_words_and_counters_with_a_collector(self):
        from repro.telemetry import Collector, use_collector

        table = UniformPWL(sigmoid, -8.0, 8.0, 64).table
        formats = {"slope_fmt": QFormat(0, 4), "intercept_fmt": QFormat(0, 3)}
        counters = []
        for quantise in (table.quantise_coefficients,
                         lambda **f: reference_quantise_coefficients(table,
                                                                     **f)):
            collector = Collector()
            with use_collector(collector):
                words = table_words(quantise(**formats))
            counters.append(collector.snapshot()["counters"])
        assert counters[0] == counters[1]
        assert counters[0]["fx.saturate.events"] > 0
        assert words == table_words(
            reference_quantise_coefficients(table, **formats)
        )

    @pytest.mark.parametrize("gap_at", [0, 1, 62])
    def test_first_gap_is_named(self, gap_at):
        segments = list(UniformPWL(sigmoid, 0.0, 8.0, 64).table.segments)
        cur = segments[gap_at + 1]
        segments[gap_at + 1] = Segment(cur.x_lo + 0.01, cur.x_hi,
                                       cur.slope, cur.intercept)
        prev = segments[gap_at]
        with pytest.raises(ConfigError) as info:
            SegmentTable(segments)
        assert str(info.value) == (
            f"segments are not contiguous: [{prev.x_lo}, {prev.x_hi}) "
            f"then [{cur.x_lo + 0.01}, {cur.x_hi})"
        )

    def test_near_edges_still_count_as_contiguous(self):
        # np.isclose's default tolerance, as the scalar check had it.
        segments = [Segment(0.0, 1.0, 0.5, 0.0),
                    Segment(1.0 + 1e-9, 2.0, 0.5, 0.0)]
        assert len(SegmentTable(segments)) == 2

    @pytest.mark.parametrize("formats", [{}, FORMATS],
                             ids=["float", "quantised"])
    def test_for_accuracy_picks_the_same_table(self, formats):
        target = 2.0 ** -10 * 0.95
        got = UniformPWL.for_accuracy(sigmoid, 0.0, 8.0, target, **formats)
        want = PerSegmentPWL.for_accuracy(sigmoid, 0.0, 8.0, target,
                                          **formats)
        assert got.n_entries == want.n_entries
        assert table_words(got.table) == table_words(want.table)
