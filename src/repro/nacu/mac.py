"""The multiply-and-add / MAC stage (top-right of Fig. 2).

One multiplier and one adder with an accumulator feedback path. It serves
three roles (Section V.B): evaluating the PWL line ``slope*|x| + bias``,
accumulating convolution sums before the non-linearity, and summing the
softmax normalisation denominator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.fixedpoint import FxArray, Overflow, QFormat, Rounding, ops
from repro.faults import inject as _faults
from repro.telemetry import collector as _telemetry


class MacUnit:
    """A multiply-accumulate unit with an explicit accumulator register."""

    def __init__(
        self,
        acc_fmt: QFormat,
        rounding: Rounding = Rounding.NEAREST_EVEN,
        overflow: Overflow = Overflow.SATURATE,
        collector=None,
    ):
        self.acc_fmt = acc_fmt
        self.rounding = rounding
        self.overflow = overflow
        self._acc: Optional[FxArray] = None
        #: Injected telemetry collector (None: use the module registry).
        self.collector = collector

    # ------------------------------------------------------------------
    # Combinational use: one multiply-add, no state
    # ------------------------------------------------------------------
    def _result_register(self, result: FxArray) -> FxArray:
        """Fault site mac.acc: the register every MAC result lands in
        (the accumulator in feedback use, the output register otherwise)."""
        plan = _faults._active
        if plan is None or _faults.MAC_ACC not in plan.sites:
            return result
        return plan.cross(
            _faults.MAC_ACC, result, _telemetry.resolve(self.collector)
        )

    def mul_add(
        self, a: FxArray, b: FxArray, c: FxArray, out_fmt: QFormat
    ) -> FxArray:
        """``a*b + c`` with the addend joining at full product precision."""
        return self._result_register(ops.mul_add(
            a, b, c, out_fmt=out_fmt, rounding=self.rounding, overflow=self.overflow
        ))

    # ------------------------------------------------------------------
    # Accumulator use
    # ------------------------------------------------------------------
    @property
    def value(self) -> FxArray:
        """Current accumulator contents."""
        if self._acc is None:
            raise ConfigError("MAC accumulator read before reset()")
        return self._acc

    def reset(self, shape=()) -> None:
        """Clear the accumulator (per output element for array shapes)."""
        self._acc = FxArray.zeros(shape, self.acc_fmt)

    def accumulate(self, a: FxArray, b: FxArray) -> FxArray:
        """One MAC step: ``acc += a * b``; returns the new accumulator."""
        if self._acc is None:
            raise ConfigError("MAC accumulate before reset()")
        self._acc = self._result_register(ops.mul_add(
            a,
            b,
            self._acc,
            out_fmt=self.acc_fmt,
            rounding=self.rounding,
            overflow=self.overflow,
        ))
        return self._acc

    def accumulate_sum(self, values: FxArray, axis: Optional[int] = None) -> FxArray:
        """Fold ``values`` into the accumulator element by element.

        Models the sequential ``sum_j e^(x_j - x_max)`` accumulation of the
        softmax denominator (Eq. 13), including the intermediate rounding
        and saturation each hardware step applies.

        With ``axis=None`` every element folds into a scalar accumulator in
        C order, exactly as before. With an ``axis``, only that dimension is
        serialised: the accumulator keeps the remaining dimensions and each
        step is one vectorised MAC over them (a bank of units running the
        same per-element schedule in lockstep), so the per-slice results are
        raw-identical to running the scalar fold slice by slice.
        """
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            steps = (
                values.raw.size if axis is None
                else np.moveaxis(values.raw, axis, -1).shape[-1]
            )
            tel.count("mac.fold.steps", steps)
            tel.count("mac.fold.elements", values.raw.size)
        fast = self._fold_fast(values, axis, tel)
        if fast is not None:
            return fast
        return self._fold_loop(values, axis)

    def _fold_fast(self, values: FxArray, axis: Optional[int], tel):
        """One vectorised ``cumsum`` fold, or ``None`` for the loop.

        Each bit-serial step is exactly ``acc = clip(acc + a << s)`` with
        ``s = acc_fb - values_fb``: the ``a * 1`` product is exact and the
        single narrowing drops only zero bits when ``s >= 0``, whatever
        the rounding mode. So whenever **no prefix sum can clip**, the
        whole fold collapses to the last cumulative sum — checked exactly
        on the int64 prefixes, never assumed. Falls back (returns
        ``None``) when any prefix could leave the accumulator's raw
        range, a fault plan is armed (the ``mac.acc`` site perturbs each
        step's register), the formats make a step inexact, or the
        accumulator shape is not the plain per-slice fold.
        """
        scale = self.acc_fmt.fb - values.fmt.fb
        if (
            _faults._active is not None
            or self._acc is None
            or scale < 0
            or 2 * values.fmt.fb < self.acc_fmt.fb
        ):
            return None
        acc_raw = self._acc.raw
        if axis is None:
            serial = values.raw.reshape(-1)
        elif axis == -1 or axis == values.raw.ndim - 1:
            serial = values.raw
        else:
            serial = np.moveaxis(values.raw, axis, -1)
        if serial.size == 0:
            return None
        if axis is None:
            if np.ndim(acc_raw) != 0:
                return None
        elif np.shape(acc_raw) != serial.shape[:-1]:
            return None
        # int64 headroom for the raw prefixes, bounded in Python ints.
        lo, hi = int(serial.min()), int(serial.max())
        acc_lo, acc_hi = int(acc_raw.min()), int(acc_raw.max())
        peak = max(-lo, hi) << scale
        start = max(-acc_lo, acc_hi)
        if peak * serial.shape[-1] + start >= (1 << 62):
            return None
        prefixes = np.cumsum(serial << scale if scale else serial, axis=-1)
        if acc_lo or acc_hi:
            prefixes = prefixes + (
                acc_raw if axis is None else acc_raw[..., np.newaxis]
            )
        if (
            int(prefixes.min()) < self.acc_fmt.raw_min
            or int(prefixes.max()) > self.acc_fmt.raw_max
        ):
            return None  # a step would saturate: order matters, walk it
        if tel is not None:
            tel.count("mac.fold.vectorised")
        # Every prefix was just bounds-checked against acc_fmt's raw range,
        # so the final one is in range by construction. ascontiguousarray
        # would promote a 0-d (axis=None) accumulator to 1-D, so the
        # scalar case wraps through asarray instead.
        last = prefixes[..., -1]
        self._acc = FxArray._wrap(
            np.asarray(last) if np.ndim(last) == 0
            else np.ascontiguousarray(last),
            self.acc_fmt,
        )
        return self._acc

    def _fold_loop(self, values: FxArray, axis: Optional[int]) -> FxArray:
        """The bit-serial reference fold: one MAC step per element."""
        one = FxArray.from_raw(1 << values.fmt.fb, QFormat(1, values.fmt.fb))
        if axis is None:
            for raw in values.raw.ravel():
                self.accumulate(FxArray(np.asarray(raw), values.fmt), one)
            return self.value
        serial = np.moveaxis(values.raw, axis, -1)
        for step in range(serial.shape[-1]):
            self.accumulate(FxArray(serial[..., step], values.fmt), one)
        return self.value
