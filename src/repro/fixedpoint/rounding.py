"""Rounding and overflow policies for fixed-point arithmetic.

All helpers operate on numpy int64 arrays (or python ints) holding raw
fixed-point integers, so results are exactly what an RTL implementation
with the same policy would produce.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

from repro.errors import RangeError
from repro.fixedpoint.qformat import MAX_TOTAL_BITS, QFormat
from repro.telemetry import collector as _telemetry

RawLike = Union[int, np.ndarray]

#: Where quantised floats saturate before the int64 cast: inside int64
#: by a guard band as wide as the widest format, so the cast is defined
#: and overflow arithmetic against any format's bounds cannot wrap.
_QUANTIZE_LIMIT = float(2 ** 63 - 2 ** MAX_TOTAL_BITS)


class Rounding(enum.Enum):
    """How to drop fractional bits when narrowing a value."""

    #: Round to nearest, ties to even (IEEE default; used for LUT contents).
    NEAREST_EVEN = "nearest-even"
    #: Round to nearest, ties away from zero upward (simple adder + shift).
    NEAREST_UP = "nearest-up"
    #: Arithmetic shift right — floor; the cheapest hardware option.
    FLOOR = "floor"
    #: Drop bits of the magnitude — truncate toward zero.
    TRUNCATE = "truncate"


class Overflow(enum.Enum):
    """What to do when a raw value exceeds the target format's range."""

    #: Clamp to the most positive / most negative representable value.
    SATURATE = "saturate"
    #: Two's-complement wraparound, as plain registers would do.
    WRAP = "wrap"
    #: Raise :class:`~repro.errors.RangeError`; used in tests.
    ERROR = "error"


def shift_right_round(raw: RawLike, shift: int, rounding: Rounding) -> RawLike:
    """Divide ``raw`` by ``2**shift`` with the requested rounding.

    Negative ``shift`` is a plain left shift (exact).
    """
    raw = np.asarray(raw, dtype=np.int64)
    if shift <= 0:
        return raw << (-shift)
    if rounding is Rounding.FLOOR:
        return raw >> shift
    half = np.int64(1) << (shift - 1)
    if rounding is Rounding.NEAREST_UP:
        return (raw + half) >> shift
    if rounding is Rounding.NEAREST_EVEN:
        # Round-half-even as one shifted add: biasing by half-1 rounds
        # ties down, and adding the floor quotient's parity bit promotes
        # exactly the ties whose floor is odd. Identical to the
        # compare-remainder formulation for every int64 (the softmax fast
        # path leans on this being the fewest-passes spelling).
        return (raw + (half - np.int64(1)) + ((raw >> shift) & np.int64(1))) >> shift
    if rounding is Rounding.TRUNCATE:
        floor_q = raw >> shift
        remainder = raw - (floor_q << shift)  # always in [0, 2**shift)
        # Toward zero: floor for positives, ceil for negatives.
        return floor_q + ((raw < 0) & (remainder != 0)).astype(np.int64)
    raise ValueError(f"unknown rounding mode {rounding!r}")


def _record_overflow(tel, raw: np.ndarray, fmt: QFormat,
                     overflow: Overflow) -> None:
    """Fold one ``apply_overflow`` call into the telemetry collector.

    Event = one element leaving the representable range; magnitude = how
    many raw LSBs past the bound it was (the quantity clipped or wrapped
    away). Only reached when a collector is installed.
    """
    below = np.maximum(np.int64(fmt.raw_min) - raw, 0)
    above = np.maximum(raw - np.int64(fmt.raw_max), 0)
    events = int(np.count_nonzero(below) + np.count_nonzero(above))
    tel.count("fx.overflow.checked", raw.size)
    if events:
        kind = "saturate" if overflow is Overflow.SATURATE else "wrap"
        tel.count(f"fx.{kind}.events", events)
        # Summed in float64: exact below 2**53, and a few elements near
        # the int64 bounds (a quantised +-inf) cannot wrap the total.
        magnitude = np.sum(below, dtype=np.float64) + np.sum(
            above, dtype=np.float64
        )
        tel.count(f"fx.{kind}.magnitude", int(magnitude))


def apply_overflow(raw: RawLike, fmt: QFormat, overflow: Overflow) -> np.ndarray:
    """Fold ``raw`` into ``fmt``'s representable raw range."""
    raw = np.asarray(raw, dtype=np.int64)
    # One module-attribute load + None check per (vectorised) call — the
    # entire cost of disabled telemetry on this hot path.
    tel = _telemetry._active
    if tel is not None and overflow is not Overflow.ERROR:
        _record_overflow(tel, raw, fmt, overflow)
    if overflow is Overflow.SATURATE:
        # np.clip's Python wrapper costs more than the clip itself on a
        # small batch. The upper bound lands in the lower bound's fresh
        # result; a 0-d input comes back as a NumPy scalar, as from
        # np.clip.
        out = np.maximum(raw, fmt.raw_min)
        return np.minimum(out, fmt.raw_max, out=out if out.ndim else None)
    if overflow is Overflow.WRAP:
        modulus = np.int64(fmt.raw_modulus)
        wrapped = np.mod(raw - fmt.raw_min, modulus) + fmt.raw_min
        return wrapped.astype(np.int64)
    if overflow is Overflow.ERROR:
        if np.any(raw < fmt.raw_min) or np.any(raw > fmt.raw_max):
            bad_lo = int(np.min(raw))
            bad_hi = int(np.max(raw))
            raise RangeError(
                f"raw range [{bad_lo}, {bad_hi}] overflows format {fmt} "
                f"(raw range [{fmt.raw_min}, {fmt.raw_max}])"
            )
        return raw
    raise ValueError(f"unknown overflow mode {overflow!r}")


def _float_bounds(fmt: QFormat):
    """``(2**fb, raw_min, raw_max)`` as float64 scalars.

    Memoised on the (frozen) format: a Python-int operand costs a NumPy
    ufunc more than the arithmetic on a small batch.
    """
    bounds = fmt.__dict__.get("_float_bounds")
    if bounds is None:
        bounds = (np.float64(1 << fmt.fb), np.float64(fmt.raw_min),
                  np.float64(fmt.raw_max))
        object.__setattr__(fmt, "_float_bounds", bounds)
    return bounds


def quantize_float(
    values: Union[float, np.ndarray],
    fmt: QFormat,
    rounding: Rounding = Rounding.NEAREST_EVEN,
    overflow: Overflow = Overflow.SATURATE,
) -> np.ndarray:
    """Convert float values to raw integers in ``fmt``.

    Rounds and clips in float64 and casts to int64 last: a float-to-int64
    cast of a value outside int64 is undefined (x86 yields ``INT64_MIN``,
    which would saturate ``+inf`` to ``raw_min``). Raw values beyond
    ``±(2**63 - 2**31)``, infinities included, first saturate there;
    then ``overflow`` folds them into ``fmt`` as for any raw integer.
    NaN has no raw word and raises :class:`~repro.errors.RangeError`.
    """
    if (
        rounding is Rounding.NEAREST_EVEN
        and overflow is Overflow.SATURATE
        and _telemetry._active is None
        and type(values) is np.ndarray
        and values.dtype.char == "d"
        and values.ndim
    ):
        # The serving default with no overflow counters to feed: the
        # clamp to the format's raw range runs in float64, where every
        # bound is exact, so the cast is defined and the words equal
        # the general path's.
        scale, low, high = _float_bounds(fmt)
        raw = values * scale
        np.rint(raw, out=raw)
        if np.count_nonzero(np.isnan(raw)):
            raise RangeError(f"NaN has no value in fixed-point format {fmt}")
        np.maximum(raw, low, out=raw)
        np.minimum(raw, high, out=raw)
        return raw.astype(np.int64)
    # One float64 copy, then every float step in place: a 0-d input
    # stays a 0-d array until apply_overflow.
    raw = np.array(values, dtype=np.float64)
    np.multiply(raw, float(1 << fmt.fb), out=raw)
    if rounding is Rounding.NEAREST_EVEN:
        np.rint(raw, out=raw)
    elif rounding is Rounding.NEAREST_UP:
        np.floor(np.add(raw, 0.5, out=raw), out=raw)
    elif rounding is Rounding.FLOOR:
        np.floor(raw, out=raw)
    elif rounding is Rounding.TRUNCATE:
        np.trunc(raw, out=raw)
    else:
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if np.count_nonzero(np.isnan(raw)):
        raise RangeError(f"NaN has no value in fixed-point format {fmt}")
    np.maximum(raw, -_QUANTIZE_LIMIT, out=raw)
    np.minimum(raw, _QUANTIZE_LIMIT, out=raw)
    return apply_overflow(raw.astype(np.int64), fmt, overflow)
