"""Tests for rounding and overflow policies, including property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import RangeError
from repro.fixedpoint import Overflow, QFormat, Rounding
from repro.fixedpoint.rounding import apply_overflow, quantize_float, shift_right_round


class TestShiftRightRound:
    def test_left_shift_for_negative_amount(self):
        assert shift_right_round(3, -2, Rounding.FLOOR) == 12

    def test_floor_rounds_toward_minus_infinity(self):
        assert shift_right_round(-1, 1, Rounding.FLOOR) == -1
        assert shift_right_round(1, 1, Rounding.FLOOR) == 0

    def test_truncate_rounds_toward_zero(self):
        assert shift_right_round(-1, 1, Rounding.TRUNCATE) == 0
        assert shift_right_round(-3, 1, Rounding.TRUNCATE) == -1
        assert shift_right_round(3, 1, Rounding.TRUNCATE) == 1

    def test_nearest_up_ties_away_up(self):
        assert shift_right_round(1, 1, Rounding.NEAREST_UP) == 1
        assert shift_right_round(3, 1, Rounding.NEAREST_UP) == 2
        assert shift_right_round(-1, 1, Rounding.NEAREST_UP) == 0

    def test_nearest_even_ties_to_even(self):
        # 0.5 -> 0 (even), 1.5 -> 2 (even), 2.5 -> 2 (even)
        assert shift_right_round(1, 1, Rounding.NEAREST_EVEN) == 0
        assert shift_right_round(3, 1, Rounding.NEAREST_EVEN) == 2
        assert shift_right_round(5, 1, Rounding.NEAREST_EVEN) == 2

    @given(st.integers(-(2 ** 40), 2 ** 40), st.integers(1, 20))
    def test_nearest_even_matches_float_rint(self, raw, shift):
        got = int(shift_right_round(raw, shift, Rounding.NEAREST_EVEN))
        assert got == int(np.rint(raw / 2.0 ** shift))

    @given(st.integers(-(2 ** 40), 2 ** 40), st.integers(1, 20))
    def test_floor_matches_float_floor(self, raw, shift):
        got = int(shift_right_round(raw, shift, Rounding.FLOOR))
        assert got == int(np.floor(raw / 2.0 ** shift))

    @given(st.integers(-(2 ** 40), 2 ** 40), st.integers(1, 20))
    def test_truncate_matches_float_trunc(self, raw, shift):
        got = int(shift_right_round(raw, shift, Rounding.TRUNCATE))
        assert got == int(np.trunc(raw / 2.0 ** shift))

    @given(st.integers(-(2 ** 40), 2 ** 40), st.integers(1, 20))
    def test_all_modes_within_one_lsb(self, raw, shift):
        exact = raw / 2.0 ** shift
        for mode in Rounding:
            got = int(shift_right_round(raw, shift, mode))
            assert abs(got - exact) < 1.0


class TestApplyOverflow:
    def test_saturate_clamps_both_sides(self):
        fmt = QFormat(1, 2)  # raw in [-8, 7]
        out = apply_overflow(np.array([-100, 100, 3]), fmt, Overflow.SATURATE)
        assert out.tolist() == [-8, 7, 3]

    def test_wrap_is_twos_complement(self):
        fmt = QFormat(1, 2)
        out = apply_overflow(np.array([8, -9, 16]), fmt, Overflow.WRAP)
        assert out.tolist() == [-8, 7, 0]

    def test_wrap_unsigned(self):
        fmt = QFormat(2, 2, signed=False)  # raw in [0, 15]
        out = apply_overflow(np.array([16, -1]), fmt, Overflow.WRAP)
        assert out.tolist() == [0, 15]

    def test_error_raises(self):
        with pytest.raises(RangeError):
            apply_overflow(np.array([8]), QFormat(1, 2), Overflow.ERROR)

    def test_error_passes_in_range(self):
        out = apply_overflow(np.array([7, -8]), QFormat(1, 2), Overflow.ERROR)
        assert out.tolist() == [7, -8]

    @given(st.integers(-(2 ** 30), 2 ** 30))
    def test_wrap_preserves_low_bits(self, raw):
        fmt = QFormat(3, 4)
        wrapped = int(apply_overflow(raw, fmt, Overflow.WRAP))
        assert (wrapped - raw) % fmt.raw_modulus == 0
        assert fmt.raw_min <= wrapped <= fmt.raw_max


class TestOverflowBoundaries:
    """Exact boundary raws, one past them, 0-d scalars and batches."""

    FMT = QFormat(1, 2)  # raw in [-8, 7]

    @pytest.mark.parametrize("mode", list(Overflow))
    def test_exact_bounds_pass_unchanged(self, mode):
        bounds = np.array([self.FMT.raw_min, self.FMT.raw_max])
        out = apply_overflow(bounds, self.FMT, mode)
        np.testing.assert_array_equal(out, bounds)

    def test_one_past_each_bound_saturates(self):
        out = apply_overflow(
            np.array([self.FMT.raw_min - 1, self.FMT.raw_max + 1]),
            self.FMT, Overflow.SATURATE,
        )
        assert out.tolist() == [self.FMT.raw_min, self.FMT.raw_max]

    def test_one_past_each_bound_wraps_to_other_end(self):
        out = apply_overflow(
            np.array([self.FMT.raw_min - 1, self.FMT.raw_max + 1]),
            self.FMT, Overflow.WRAP,
        )
        assert out.tolist() == [self.FMT.raw_max, self.FMT.raw_min]

    @pytest.mark.parametrize("bad", [FMT.raw_min - 1, FMT.raw_max + 1])
    def test_one_past_each_bound_errors(self, bad):
        with pytest.raises(RangeError):
            apply_overflow(np.array([bad]), self.FMT, Overflow.ERROR)

    def test_error_message_reports_raw_range(self):
        with pytest.raises(RangeError, match=r"\[-100, 100\]"):
            apply_overflow(np.array([-100, 0, 100]), self.FMT, Overflow.ERROR)

    @pytest.mark.parametrize("mode", list(Overflow))
    def test_zero_dimensional_in_range(self, mode):
        out = apply_overflow(np.int64(3), self.FMT, mode)
        assert out.ndim == 0
        assert int(out) == 3

    def test_zero_dimensional_out_of_range(self):
        assert int(apply_overflow(np.int64(100), self.FMT, Overflow.SATURATE)) == 7
        assert int(apply_overflow(np.int64(8), self.FMT, Overflow.WRAP)) == -8
        with pytest.raises(RangeError):
            apply_overflow(np.int64(8), self.FMT, Overflow.ERROR)

    def test_batched_2d_mixed(self):
        raws = np.array([[-9, -8, 0], [7, 8, 100]])
        sat = apply_overflow(raws, self.FMT, Overflow.SATURATE)
        assert sat.tolist() == [[-8, -8, 0], [7, 7, 7]]
        wrap = apply_overflow(raws, self.FMT, Overflow.WRAP)
        assert wrap.tolist() == [[7, -8, 0], [7, -8, 4]]
        with pytest.raises(RangeError):
            apply_overflow(raws, self.FMT, Overflow.ERROR)


class TestOverflowTelemetry:
    """apply_overflow folds events and clipped magnitude into a collector."""

    def test_saturate_events_and_magnitude(self):
        from repro.telemetry import Collector, use_collector

        fmt = QFormat(1, 2)
        tel = Collector()
        with use_collector(tel):
            apply_overflow(np.array([-10, -8, 0, 7, 9]), fmt, Overflow.SATURATE)
        assert tel.counters["fx.overflow.checked"] == 5
        assert tel.counters["fx.saturate.events"] == 2
        assert tel.counters["fx.saturate.magnitude"] == 2 + 2  # -10 and 9

    def test_wrap_events_counted_separately(self):
        from repro.telemetry import Collector, use_collector

        fmt = QFormat(1, 2)
        tel = Collector()
        with use_collector(tel):
            apply_overflow(np.array([8, -9, 3]), fmt, Overflow.WRAP)
        assert tel.counters["fx.wrap.events"] == 2
        assert tel.counters["fx.wrap.magnitude"] == 2
        assert "fx.saturate.events" not in tel.counters

    def test_in_range_counts_checked_only(self):
        from repro.telemetry import Collector, use_collector

        tel = Collector()
        with use_collector(tel):
            apply_overflow(np.array([0, 1]), QFormat(1, 2), Overflow.SATURATE)
        assert tel.counters == {"fx.overflow.checked": 2}

    def test_error_mode_stays_uninstrumented(self):
        # The ERROR policy is a test/debug construct; it raises rather
        # than clips, so it must not show up as datapath overflow traffic.
        from repro.telemetry import Collector, use_collector

        tel = Collector()
        with use_collector(tel):
            apply_overflow(np.array([0]), QFormat(1, 2), Overflow.ERROR)
        assert tel.counters == {}


class TestQuantizeFloat:
    def test_exact_values_pass_through(self):
        fmt = QFormat(4, 11)
        assert int(quantize_float(0.5, fmt)) == 1 << 10

    def test_saturates_by_default(self):
        fmt = QFormat(1, 2)
        assert int(quantize_float(100.0, fmt)) == fmt.raw_max
        assert int(quantize_float(-100.0, fmt)) == fmt.raw_min

    @given(st.floats(-15.9, 15.9))
    def test_quantisation_error_bounded_by_half_lsb(self, value):
        fmt = QFormat(4, 11)
        raw = int(quantize_float(value, fmt))
        assert abs(raw * fmt.resolution - value) <= fmt.resolution / 2


class TestQuantizeNonFinite:
    """Out-of-int64 floats saturate like any overflow; NaN is refused.

    A float->int64 cast of an out-of-range value is undefined (x86 gives
    INT64_MIN), so before the cast moved after the clip, +inf and 1e19
    quantised to raw_min and NaN to raw_min too.
    """

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_infinities_and_huge_values_saturate(self, bits):
        from repro.fixedpoint.format_selection import select_format

        fmt = select_format(bits)
        values = np.array([np.inf, -np.inf, 1e19, -1e19])
        want = [fmt.raw_max, fmt.raw_min, fmt.raw_max, fmt.raw_min]
        assert quantize_float(values, fmt).tolist() == want
        for value, raw in zip(values, want):
            assert int(quantize_float(value, fmt)) == raw

    @pytest.mark.parametrize("bits", [8, 12, 16])
    @pytest.mark.parametrize(
        "values", [np.nan, [0.5, np.nan], [np.inf, np.nan, -np.inf]]
    )
    def test_nan_raises(self, bits, values):
        from repro.fixedpoint.format_selection import select_format

        with pytest.raises(RangeError, match="NaN"):
            quantize_float(values, select_format(bits))

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_saturation_telemetry_stays_integer_at_infinity(self, bits):
        from repro.fixedpoint.format_selection import select_format
        from repro.telemetry import Collector, use_collector

        fmt = select_format(bits)
        tel = Collector()
        with use_collector(tel):
            quantize_float(np.array([np.inf, -np.inf, np.inf, 0.0]), fmt)
        counters = tel.counters
        assert counters["fx.overflow.checked"] == 4
        assert counters["fx.saturate.events"] == 3
        magnitude = counters["fx.saturate.magnitude"]
        assert type(magnitude) is int and magnitude >= 3 * 2 ** 62

    @pytest.mark.parametrize("bits", [8, 12, 16])
    def test_engine_sigmoid_of_inf_is_sigmoid_of_max_value(self, bits):
        from repro.engine import BatchEngine

        engine = BatchEngine.for_bits(bits, fast=True)
        fmt = engine.io_fmt
        for inf, bound in ((np.inf, fmt.max_value), (-np.inf, fmt.min_value)):
            got = engine.sigmoid(inf)
            want = engine.sigmoid(bound)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            got = engine.sigmoid(np.array([inf, 0.0]))
            want = engine.sigmoid(np.array([bound, 0.0]))
            assert got.tobytes() == want.tobytes()
