"""The quantiser and the overflow clip against their two-stage formula.

``quantize_float`` rounds, saturates and casts in place on one float64
copy, and ``apply_overflow(SATURATE)`` clips into its own first
temporary. The reference below is the plain formula they must equal:
scale, round, refuse NaN, ``np.clip`` into int64's guard band, cast,
then ``np.clip`` into the format. Every result must match it in raw
words, dtype, shape and Python type, raise the same ``RangeError``, and
leave the same ``fx.*`` counters in a collector. Each case runs with a
collector installed and without one: ``quantize_float`` takes a lean
branch for float arrays under the default policy only when no collector
is installed, so both of its paths meet the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RangeError
from repro.fixedpoint import Overflow, QFormat, Rounding
from repro.fixedpoint.rounding import (
    _QUANTIZE_LIMIT,
    _record_overflow,
    apply_overflow,
    quantize_float,
)
from repro.telemetry import Collector, use_collector
from repro.telemetry import collector as _telemetry

# Scaling a float near the float64 limit by 2**fb overflows to inf on
# both sides, on purpose: infinities must saturate the same way.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in multiply:RuntimeWarning"
)

#: Formats of every width the serving configs use, up to the widest a
#: QFormat allows (31 bits: 32 would overflow int64 products).
FORMATS = (
    QFormat(2, 5), QFormat(3, 8), QFormat(4, 11), QFormat(4, 19),
    QFormat(6, 24), QFormat(0, 8, signed=False), QFormat(4, 12, signed=False),
)


def reference_overflow(raw, fmt, overflow):
    raw = np.asarray(raw, dtype=np.int64)
    tel = _telemetry._active
    if tel is not None and overflow is not Overflow.ERROR:
        _record_overflow(tel, raw, fmt, overflow)
    if overflow is Overflow.SATURATE:
        return np.clip(raw, fmt.raw_min, fmt.raw_max)
    if overflow is Overflow.WRAP:
        wrapped = np.mod(raw - fmt.raw_min, np.int64(fmt.raw_modulus))
        return (wrapped + fmt.raw_min).astype(np.int64)
    if np.any(raw < fmt.raw_min) or np.any(raw > fmt.raw_max):
        raise RangeError(
            f"raw range [{int(np.min(raw))}, {int(np.max(raw))}] overflows "
            f"format {fmt} (raw range [{fmt.raw_min}, {fmt.raw_max}])"
        )
    return raw


def reference_quantize(values, fmt, rounding, overflow):
    scaled = np.asarray(values, dtype=np.float64) * (1 << fmt.fb)
    raw = {
        Rounding.NEAREST_EVEN: np.rint,
        Rounding.NEAREST_UP: lambda v: np.floor(v + 0.5),
        Rounding.FLOOR: np.floor,
        Rounding.TRUNCATE: np.trunc,
    }[rounding](scaled)
    if np.isnan(raw).any():
        raise RangeError(f"NaN has no value in fixed-point format {fmt}")
    raw = np.clip(raw, -_QUANTIZE_LIMIT, _QUANTIZE_LIMIT)
    return reference_overflow(raw.astype(np.int64), fmt, overflow)


def outcome(func, *args, telemetry=True):
    """``func``'s result with the ``fx.*`` counters it left, or its error.

    ``telemetry=False`` runs it with no collector installed at all.
    """
    collector = Collector() if telemetry else None
    with use_collector(collector):
        try:
            result = func(*args)
        except RangeError as exc:
            result = ("raises", str(exc))
    return result, collector.snapshot()["counters"] if telemetry else {}


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def _specials(fmt):
    lsb = 2.0 ** -fmt.fb
    span = 1 << (fmt.n_bits + 1)
    return st.one_of(
        st.sampled_from([
            np.inf, -np.inf, 1e19, -1e19, 9.3e18, -9.3e18, 0.0, -0.0,
            5e-324, -5e-324, 2.2250738585072014e-308, fmt.max_value,
            fmt.min_value, fmt.max_value + lsb, fmt.min_value - lsb,
        ]),
        # Exactly half an LSB past a code: every tie each rule breaks.
        st.integers(-span, span).map(lambda k: (k + 0.5) * lsb),
        st.floats(allow_nan=False, width=64),
    )


@st.composite
def float_inputs(draw, nan=False):
    fmt = draw(st.sampled_from(FORMATS))
    value = _specials(fmt)
    if nan:
        value = st.one_of(value, st.just(np.nan))
    kind = draw(st.sampled_from(
        ["pyfloat", "pyint", "f64", "f32", "0d", "list", "1d", "2d", "2d_t"]
    ))
    if kind == "pyfloat":
        values = draw(value)
    elif kind == "pyint":
        values = draw(st.integers(-(2 ** 70), 2 ** 70))
    elif kind == "f64":
        values = np.float64(draw(value))
    elif kind == "f32":
        values = np.float32(draw(st.floats(allow_nan=nan, width=32)))
    elif kind == "0d":
        values = np.array(draw(value))
    elif kind == "list":
        values = draw(st.lists(value, max_size=6))
    else:
        flat = draw(st.lists(value, min_size=6, max_size=6))
        values = np.array(flat) if kind == "1d" else np.reshape(flat, (2, 3))
        if kind == "2d_t":
            values = values.T
    if nan and draw(st.booleans()):
        values = np.append(np.asarray(values, dtype=np.float64), np.nan)
    return (
        values, fmt, draw(st.sampled_from(list(Rounding))),
        draw(st.sampled_from(list(Overflow))),
    )


@st.composite
def default_policy_arrays(draw, nan=False):
    """Float arrays under the default rounding and overflow policy."""
    fmt = draw(st.sampled_from(FORMATS))
    if draw(st.booleans()):
        value = st.floats(width=32, allow_nan=False)
        dtype = np.float32
    else:
        value = _specials(fmt)
        dtype = np.float64
    if nan:
        value = st.one_of(value, st.just(np.nan))
    flat = np.array(draw(st.lists(value, min_size=6, max_size=6)),
                    dtype=dtype)
    shape = draw(st.sampled_from(["1d", "2d", "2d_t", "empty"]))
    if shape == "2d":
        values = flat.reshape(2, 3)
    elif shape == "2d_t":
        values = flat.reshape(2, 3).T
    elif shape == "empty":
        values = flat[:0]
    else:
        values = flat
    return values, fmt, Rounding.NEAREST_EVEN, Overflow.SATURATE


@st.composite
def raw_inputs(draw):
    fmt = draw(st.sampled_from(FORMATS))
    span = 1 << (fmt.n_bits + 1)
    word = st.one_of(
        st.integers(-span, span),
        st.sampled_from([fmt.raw_min, fmt.raw_max, fmt.raw_min - 1,
                         fmt.raw_max + 1, 2 ** 63 - 2 ** 31,
                         -(2 ** 63 - 2 ** 31)]),
    )
    kind = draw(st.sampled_from(["pyint", "i64", "0d", "list", "1d", "2d"]))
    if kind == "pyint":
        raw = draw(word)
    elif kind == "i64":
        raw = np.int64(draw(word))
    elif kind == "0d":
        raw = np.array(draw(word), dtype=np.int64)
    elif kind == "list":
        raw = draw(st.lists(word, max_size=6))
    else:
        flat = draw(st.lists(word, min_size=6, max_size=6))
        raw = np.array(flat, dtype=np.int64)
        if kind == "2d":
            raw = raw.reshape(3, 2)
    return raw, fmt, draw(st.sampled_from(list(Overflow)))


TELEMETRY = pytest.mark.parametrize(
    "telemetry", [True, False], ids=["collector", "no_collector"]
)


class TestQuantizeAgainstReference:
    @TELEMETRY
    @settings(max_examples=400, deadline=None)
    @given(case=float_inputs())
    def test_same_words_type_and_counters(self, case, telemetry):
        want, want_counts = outcome(reference_quantize, *case,
                                    telemetry=telemetry)
        got, got_counts = outcome(quantize_float, *case, telemetry=telemetry)
        assert_same(got, want)
        assert got_counts == want_counts

    @TELEMETRY
    @settings(max_examples=200, deadline=None)
    @given(case=default_policy_arrays())
    def test_default_policy_arrays(self, case, telemetry):
        want, want_counts = outcome(reference_quantize, *case,
                                    telemetry=telemetry)
        got, got_counts = outcome(quantize_float, *case, telemetry=telemetry)
        assert_same(got, want)
        assert got_counts == want_counts

    @TELEMETRY
    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(float_inputs(nan=True),
                          default_policy_arrays(nan=True)))
    def test_nan_raises_the_same_error(self, case, telemetry):
        want, _ = outcome(reference_quantize, *case, telemetry=telemetry)
        got, _ = outcome(quantize_float, *case, telemetry=telemetry)
        assert_same(got, want)

    @TELEMETRY
    @pytest.mark.parametrize(
        "values", [np.nan, [0.5, np.nan], np.array(np.nan),
                   np.array([0.5, np.nan])],
    )
    def test_nan_is_refused_with_its_message(self, values, telemetry):
        with use_collector(Collector() if telemetry else None):
            with pytest.raises(RangeError, match="NaN has no value"):
                quantize_float(values, QFormat(4, 11))

    @pytest.mark.parametrize("rounding", list(Rounding))
    def test_input_is_left_untouched(self, rounding):
        values = np.array([0.3, -7.9, 1e19, -np.inf])
        before = values.copy()
        with use_collector(None):
            quantize_float(values, QFormat(4, 11), rounding)
        assert np.array_equal(values, before)


class TestOverflowAgainstReference:
    @TELEMETRY
    @settings(max_examples=300, deadline=None)
    @given(case=raw_inputs())
    def test_same_words_type_and_counters(self, case, telemetry):
        want, want_counts = outcome(reference_overflow, *case,
                                    telemetry=telemetry)
        got, got_counts = outcome(apply_overflow, *case, telemetry=telemetry)
        assert_same(got, want)
        assert got_counts == want_counts

    def test_saturate_leaves_its_input_untouched(self):
        raw = np.array([-5000, 12, 5000], dtype=np.int64)
        out = apply_overflow(raw, QFormat(2, 8), Overflow.SATURATE)
        assert out is not raw
        assert raw.tolist() == [-5000, 12, 5000]
        assert out.tolist() == [-1024, 12, 1023]
