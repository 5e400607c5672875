"""Bit-exactness and latency tests for the restoring divider."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError
from repro.fixedpoint import FxArray, QFormat, Rounding, ops
from repro.nacu.divider import RestoringDivider


IO = QFormat(4, 11)
QUOT = QFormat(2, 14, signed=False)


class TestBitExactness:
    @given(
        st.integers(1, IO.raw_max),
        st.integers(1, IO.raw_max),
    )
    @settings(max_examples=300)
    def test_matches_arithmetic_floor_division(self, num_raw, den_raw):
        num = FxArray.from_raw(num_raw, IO)
        den = FxArray.from_raw(den_raw, IO)
        divider = RestoringDivider(QUOT)
        expected = ops.divide(num, den, out_fmt=QUOT, rounding=Rounding.FLOOR)
        got = divider.divide(num, den)
        assert int(got.raw) == int(expected.raw)

    @given(st.integers(1, IO.raw_max))
    @settings(max_examples=200)
    def test_reciprocal_matches(self, den_raw):
        den = FxArray.from_raw(den_raw, IO)
        divider = RestoringDivider(QUOT)
        expected = ops.reciprocal(den, QUOT, rounding=Rounding.FLOOR)
        assert int(divider.reciprocal(den).raw) == int(expected.raw)

    def test_signed_quadrants(self):
        divider = RestoringDivider(QFormat(4, 11))
        for sn in (1, -1):
            for sd in (1, -1):
                num = FxArray.from_float(sn * 3.0, IO)
                den = FxArray.from_float(sd * 2.0, IO)
                assert float(divider.divide(num, den).to_float()) == sn * sd * 1.5

    def test_vectorised(self):
        num = FxArray.from_float(np.array([1.0, 2.0, 3.0]), IO)
        den = FxArray.from_float(np.array([2.0, 2.0, 2.0]), IO)
        out = RestoringDivider(QFormat(4, 11)).divide(num, den)
        np.testing.assert_allclose(out.to_float(), [0.5, 1.0, 1.5])

    def test_zero_dividend(self):
        out = RestoringDivider(QUOT).divide(
            FxArray.from_float(0.0, IO), FxArray.from_float(1.0, IO)
        )
        assert int(out.raw) == 0

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            RestoringDivider(QUOT).divide(
                FxArray.from_float(1.0, IO), FxArray.from_float(0.0, IO)
            )

    def test_quotient_saturates(self):
        num = FxArray.from_float(15.0, IO)
        den = FxArray.from_raw(1, IO)  # smallest positive divisor
        out = RestoringDivider(QUOT).divide(num, den)
        assert int(out.raw) == QUOT.raw_max

    def test_rejects_too_coarse_quotient(self):
        fine = FxArray.from_float(1.0, QFormat(1, 20))
        with pytest.raises(FormatError):
            RestoringDivider(QFormat(4, 2)).divide(fine, FxArray.from_float(1.0, IO))


class TestSigmaPrimeRange:
    """The exponential path: reciprocal of sigma in [0.5, 1] lands in [1, 2]."""

    @given(st.integers(1 << 10, 1 << 11))
    @settings(max_examples=100)
    def test_reciprocal_in_one_two(self, den_raw):
        den = FxArray.from_raw(den_raw, IO)  # value in [0.5, 1]
        out = RestoringDivider(QUOT).reciprocal(den)
        value = float(out.to_float())
        assert 1.0 - 2.0 ** -14 <= value <= 2.0


class TestLatencyModel:
    def test_default_stage_count(self):
        divider = RestoringDivider(QUOT)
        assert divider.stages == QUOT.ib + QUOT.fb + 2

    def test_explicit_stage_count(self):
        assert RestoringDivider(QUOT, stages=24).fill_latency == 24

    def test_pipelined_throughput(self):
        divider = RestoringDivider(QUOT, stages=24)
        assert divider.throughput_cycles(1) == 24
        assert divider.throughput_cycles(10) == 33
