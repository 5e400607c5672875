"""The :class:`FxArray` container — raw integers plus a format.

``FxArray`` is deliberately thin: it never does arithmetic implicitly.
Datapath operations live in :mod:`repro.fixedpoint.ops` where rounding and
overflow behaviour is spelled out per call, matching how an RTL datapath
fixes those choices per adder/multiplier instance.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import FormatError
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.rounding import (
    Overflow,
    Rounding,
    apply_overflow,
    quantize_float,
)


class FxArray:
    """An array of fixed-point numbers sharing one :class:`QFormat`.

    Use :meth:`from_float` to quantise real values and :meth:`from_raw`
    to wrap integers that are already in raw form (e.g. LUT words).
    """

    __slots__ = ("raw", "fmt")

    def __init__(self, raw: np.ndarray, fmt: QFormat):
        raw = np.asarray(raw, dtype=np.int64)
        if np.any(raw < fmt.raw_min) or np.any(raw > fmt.raw_max):
            raise FormatError(
                f"raw values out of range for {fmt}; use from_raw() with an "
                f"overflow policy instead of the constructor"
            )
        self.raw = raw
        self.fmt = fmt

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_float(
        cls,
        values: Union[float, np.ndarray],
        fmt: QFormat,
        rounding: Rounding = Rounding.NEAREST_EVEN,
        overflow: Overflow = Overflow.SATURATE,
    ) -> "FxArray":
        """Quantise float ``values`` into ``fmt``."""
        # quantize_float ends in apply_overflow, so (as in from_raw) the
        # words are in range and the constructor's re-scan is skipped.
        return cls._wrap(quantize_float(values, fmt, rounding, overflow), fmt)

    @classmethod
    def from_raw(
        cls,
        raw: Union[int, np.ndarray],
        fmt: QFormat,
        overflow: Overflow = Overflow.ERROR,
    ) -> "FxArray":
        """Wrap raw integers, applying ``overflow`` if they do not fit."""
        # apply_overflow returns values in range by definition (clipped,
        # wrapped, or validated under ERROR), so skip the constructor's
        # redundant range re-scan.
        return cls._wrap(
            apply_overflow(np.asarray(raw, dtype=np.int64), fmt, overflow), fmt
        )

    @classmethod
    def zeros(cls, shape, fmt: QFormat) -> "FxArray":
        """An all-zero array in ``fmt``."""
        # Zero is in range for every format, so skip the range scan.
        return cls._wrap(np.zeros(shape, dtype=np.int64), fmt)

    @classmethod
    def _wrap(cls, raw: np.ndarray, fmt: QFormat) -> "FxArray":
        """Wrap ``raw`` without the constructor's range validation.

        For internal hot paths whose values are in range *by
        construction* — e.g. a gather from a compiled response table
        whose every entry came out of a validated :class:`FxArray`. The
        two full-array scans the constructor spends on validation are
        the dominant cost of a table lookup, so the fast path must skip
        them; everything else must keep using the checking constructor.
        """
        out = cls.__new__(cls)
        out.raw = raw
        out.fmt = fmt
        return out

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    def to_float(self) -> np.ndarray:
        """Exact float64 value of each element."""
        return self.raw.astype(np.float64) * self.fmt.resolution

    def reinterpret(self, fmt: QFormat) -> "FxArray":
        """Reuse the same raw bits under a different format.

        This is the zero-hardware-cost "rewiring" operation: the paper's
        ``2q`` (shift of the binary point) and the Fig. 3 units are all
        reinterpretations plus bit moves.
        """
        if fmt.n_bits != self.fmt.n_bits:
            raise FormatError(
                f"reinterpret changes width {self.fmt.n_bits} -> {fmt.n_bits}; "
                f"use ops.resize for width changes"
            )
        return FxArray.from_raw(self.raw, fmt, overflow=Overflow.WRAP)

    def copy(self) -> "FxArray":
        """Deep copy."""
        return FxArray(self.raw.copy(), self.fmt)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def shape(self):
        """Shape of the underlying raw array."""
        return self.raw.shape

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.raw.size

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index) -> "FxArray":
        return FxArray(np.asarray(self.raw[index], dtype=np.int64), self.fmt)

    def __iter__(self):
        for raw in self.raw:
            yield FxArray(np.asarray(raw, dtype=np.int64), self.fmt)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FxArray):
            return NotImplemented
        return self.fmt == other.fmt and np.array_equal(self.raw, other.raw)

    __hash__ = None  # unhashable, like ndarray

    def __repr__(self) -> str:
        return f"FxArray({self.to_float()!r}, fmt={self.fmt})"
