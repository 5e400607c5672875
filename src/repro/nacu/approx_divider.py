"""Approximate reciprocal divider — the paper's Section VIII future work.

"In the future, we plan to optimise out the conventional divider with an
approximate one. This will allow us to significantly lower the area cost
with a small reduction in overall accuracy."

The standard hardware recipe is modelled here: a small seed LUT provides
an initial reciprocal guess, refined by Newton-Raphson iterations
``r' = r * (2 - d * r)`` on the multiply-and-add hardware NACU already
owns. Each iteration roughly squares the relative error, so a 2^s-entry
seed plus one iteration reaches ~2^-2(s+1) relative accuracy. The divisor
NACU cares about (``sigma(x_max - x)``) always lies in [0.5, 1], which is
exactly the normalised-mantissa range the method wants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError, RangeError
from repro.fixedpoint import FxArray, Overflow, QFormat
from repro.fixedpoint.bitops import bit_length
from repro.fixedpoint.rounding import apply_overflow, shift_right_round, Rounding
from repro.faults import inject as _faults
from repro.telemetry import collector as _telemetry

if TYPE_CHECKING:
    from repro.hwcost.gates import GateCounts


class ApproxReciprocalDivider:
    """Seeded Newton-Raphson reciprocal for divisors in [0.5, 1].

    Drop-in for :class:`~repro.nacu.divider.RestoringDivider` on the
    exponential/softmax path (``reciprocal`` plus a general ``divide``
    built from one extra multiplication).
    """

    def __init__(self, out_fmt: QFormat, seed_bits: int = 5, iterations: int = 1,
                 collector=None):
        if seed_bits < 1 or seed_bits > 12:
            raise ConfigError("seed LUT address width must be in [1, 12]")
        if iterations < 0:
            raise ConfigError("iteration count cannot be negative")
        self.out_fmt = out_fmt
        self.seed_bits = seed_bits
        self.iterations = iterations
        #: Injected telemetry collector (None: use the module registry).
        self.collector = collector
        #: Working fraction width of the Newton iteration registers.
        self.work_fb = out_fmt.fb
        # Seed LUT: one reciprocal word per divisor sub-interval of
        # [0.5, 1); entry i covers d in [0.5 + i*step, 0.5 + (i+1)*step).
        n = 1 << seed_bits
        step = 0.5 / n
        midpoints = 0.5 + (np.arange(n) + 0.5) * step
        self.seed_raw = np.round((1.0 / midpoints) * (1 << self.work_fb)).astype(
            np.int64
        )
        # Latency: one LUT cycle plus two multiply cycles per iteration.
        self.stages = 1 + 2 * iterations
        self.fill_latency = self.stages

    def throughput_cycles(self, n: int) -> int:
        """Cycles for ``n`` reciprocals back to back (pipelined)."""
        return self.stages + max(0, n - 1)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _seed_index(self, den: FxArray) -> np.ndarray:
        # Address = the seed_bits bits right below the 1/2 weight.
        shift = den.fmt.fb - 1 - self.seed_bits
        idx = shift_right_round(
            den.raw - (np.int64(1) << (den.fmt.fb - 1)), max(shift, 0), Rounding.FLOOR
        )
        if shift < 0:
            idx = idx << -shift
        return np.clip(idx, 0, len(self.seed_raw) - 1)

    def reciprocal(self, den: FxArray) -> FxArray:
        """``1 / den`` for ``den`` in [0.5, 1] (raises outside)."""
        half_raw = np.int64(1) << (den.fmt.fb - 1)
        one_raw = np.int64(1) << den.fmt.fb
        # The quantised sigma can land one LSB under 0.5; the Newton
        # iteration absorbs that (the seed is just slightly off). Anything
        # further out is a genuine misuse.
        tolerance = np.int64(4)
        plan = _faults._active
        if np.any(den.raw < half_raw - tolerance) or np.any(den.raw > one_raw):
            if plan is None:
                raise RangeError(
                    "approximate reciprocal is specified for divisors in "
                    "[0.5, 1] (the normalised sigma range)"
                )
            # Under an armed fault plan an out-of-range divisor is a fault
            # effect; the seed-LUT address clamp bounds it like hardware.
            den = FxArray(np.clip(den.raw, half_raw, one_raw), den.fmt)
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            tel.count("divider.approx.reciprocals", np.asarray(den.raw).size)
        fb = self.work_fb
        r = self.seed_raw[self._seed_index(den)]
        d = den.raw << (fb - den.fmt.fb) if fb >= den.fmt.fb else shift_right_round(
            den.raw, den.fmt.fb - fb, Rounding.NEAREST_EVEN
        )
        two = np.int64(2) << fb
        for _ in range(self.iterations):
            # r' = r * (2 - d*r), every product rounded to the work width —
            # exactly what reusing the MAC multiplier would produce.
            d_r = shift_right_round(d * r, fb, Rounding.NEAREST_EVEN)
            r = shift_right_round(r * (two - d_r), fb, Rounding.NEAREST_EVEN)
        raw = apply_overflow(
            shift_right_round(r, fb - self.out_fmt.fb, Rounding.NEAREST_EVEN),
            self.out_fmt, Overflow.SATURATE,
        )
        # Fault site divider.pipe: the reciprocal output register.
        if plan is not None and _faults.DIVIDER_PIPE in plan.sites:
            raw = plan.perturb(_faults.DIVIDER_PIPE, raw, self.out_fmt, tel)
        return FxArray(raw, self.out_fmt)

    def divide(self, num: FxArray, den: FxArray) -> FxArray:
        """``num / den`` as ``num * (1/den)`` (one extra multiplication).

        ``den`` must be positive; it is pre-scaled by a power of two into
        [0.5, 1] (a priority encoder plus shifter in hardware) and the
        quotient is post-scaled back.
        """
        plan = _faults._active
        if np.any(den.raw <= 0):
            if plan is None:
                raise RangeError("approximate divide requires positive divisors")
            # Fault effect (e.g. an upset accumulator): the normaliser's
            # priority encoder sees at least one LSB, bounding the quotient.
            den = FxArray._wrap(np.maximum(den.raw, 1), den.fmt)
        out_shape = np.broadcast_shapes(np.shape(num.raw), np.shape(den.raw))
        den_raw = np.broadcast_to(np.asarray(den.raw, dtype=np.int64), out_shape)
        num_raw = np.broadcast_to(np.asarray(num.raw, dtype=np.int64), out_shape)
        # Normalise each divisor into [0.5, 1): den = m * 2^(bl - fb) with
        # bl the raw bit length (a priority encoder in hardware).
        bl = bit_length(den_raw)
        fb_den = den.fmt.fb
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            tel.count("divider.approx.divides", den_raw.size)
            tel.observe("divider.norm_shift", fb_den - bl)
        mantissa_raw = np.where(
            bl <= fb_den,
            den_raw << np.maximum(fb_den - bl, 0),
            den_raw >> np.maximum(bl - fb_den, 0),
        )
        mantissa = FxArray.from_raw(mantissa_raw, QFormat(1, fb_den))
        recip = self.reciprocal(mantissa)  # 1/m in [1, 2]
        product = num_raw * recip.raw  # fb_num + fb_out fraction bits
        # quotient = num * (1/m) * 2^(fb_den - bl): align to the output by
        # shifting fb_num + bl - fb_den bits (per-element amount; a barrel
        # shifter in hardware). Arithmetic right shift = FLOOR rounding.
        total_shift = num.fmt.fb + bl - fb_den
        raw = np.where(
            total_shift >= 0,
            product >> np.maximum(total_shift, 0),
            product << np.maximum(-total_shift, 0),
        )
        return FxArray(
            apply_overflow(raw, self.out_fmt, Overflow.SATURATE), self.out_fmt
        )

    def divide_fast(self, num: FxArray, den: FxArray, table) -> FxArray:
        """:meth:`divide` with the reciprocal stage served from ``table``.

        ``table`` is a compiled
        :class:`~repro.compile.table.ReciprocalTable` holding this
        divider's exact reciprocal for every normalised-mantissa code, so
        the result is raw-bit-identical to :meth:`divide` — the
        normalise/multiply/post-scale stages run unchanged and only the
        seeded Newton iteration is replaced by one gather. Falls back to
        the full path when the table does not cover this operand pair or
        a fault plan is armed (the ``divider.pipe`` site lives in the
        reciprocal stage the table would bypass).

        Unlike :meth:`divide`, the divisor is *not* pre-broadcast: the
        normalise and gather stages run on ``den``'s own shape and only
        the final multiply broadcasts, so a softmax handing in one
        denominator per row pays one reciprocal per row. Every broadcast
        element reuses its source element's result bit-for-bit, so the
        output is still raw-identical to the expanded reference.
        """
        if (
            table is None
            or _faults._active is not None
            or table.den_fb != den.fmt.fb
            or table.fmt != self.out_fmt
        ):
            return self.divide(num, den)
        den_raw = np.asarray(den.raw, dtype=np.int64)
        num_raw = np.asarray(num.raw, dtype=np.int64)
        if np.any(den_raw <= 0):
            raise RangeError("approximate divide requires positive divisors")
        bl = bit_length(den_raw)
        fb_den = den.fmt.fb
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            out_shape = np.broadcast_shapes(num_raw.shape, den_raw.shape)
            tel.count("divider.approx.divides", int(np.prod(out_shape, dtype=np.int64)))
            tel.observe(
                "divider.norm_shift", np.broadcast_to(fb_den - bl, out_shape)
            )
        mantissa_raw = np.where(
            bl <= fb_den,
            den_raw << np.maximum(fb_den - bl, 0),
            den_raw >> np.maximum(bl - fb_den, 0),
        )
        recip_raw = table.eval_raw(mantissa_raw)  # 1/m in [1, 2]
        product = num_raw * recip_raw
        total_shift = num.fmt.fb + bl - fb_den
        if np.all(total_shift >= 0):
            # Softmax denominators are >= 1.0, so their post-scale always
            # shifts right; one pass instead of the two-sided select.
            raw = product >> total_shift
        else:
            raw = np.where(
                total_shift >= 0,
                product >> np.maximum(total_shift, 0),
                product << np.maximum(-total_shift, 0),
            )
        return FxArray._wrap(
            apply_overflow(raw, self.out_fmt, Overflow.SATURATE), self.out_fmt
        )

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def cost(self, operand_bits: int = 16) -> GateCounts:
        """Gate-equivalent cost: seed LUT + working registers.

        The Newton multiplications reuse NACU's existing MAC multiplier
        (the whole point of the optimisation), so only the seed LUT, the
        iteration registers and a normaliser are new hardware.
        """
        # Imported here: the cost model is for experiments, not serving.
        from repro.hwcost.components import (
            lut_cost, multiplier_cost, register_cost,
        )

        seed = lut_cost(1 << self.seed_bits, operand_bits)
        registers = register_cost(3 * operand_bits)
        normaliser = multiplier_cost(operand_bits, 2)  # shifter-scale logic
        return seed + registers + normaliser
