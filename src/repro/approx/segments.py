"""Segment tables: the shared data structure of every table-based engine.

A :class:`SegmentTable` holds ordered, contiguous segments; each segment
carries a line (slope + intercept; constant segments have slope zero).
Coefficients can optionally be quantised to fixed-point formats so the
table models real LUT words instead of ideal reals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.fixedpoint import QFormat
from repro.fixedpoint.rounding import Rounding, quantize_float


@dataclass(frozen=True)
class Segment:
    """One segment ``[x_lo, x_hi)`` approximated by ``slope*x + intercept``."""

    x_lo: float
    x_hi: float
    slope: float
    intercept: float

    def eval(self, x) -> np.ndarray:
        """Evaluate the segment's line (no domain check)."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept

    @property
    def width(self) -> float:
        """Segment width."""
        return self.x_hi - self.x_lo


class SegmentTable:
    """An ordered, contiguous list of segments over ``[x_lo, x_hi)``.

    Lookups outside the covered range clamp to the first/last segment,
    modelling hardware saturation of the address.
    """

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise ConfigError("a segment table needs at least one segment")
        self._edges = np.array([s.x_lo for s in segments] + [segments[-1].x_hi])
        # One array compare over every junction: each segment's upper
        # edge against the next one's lower edge.
        gaps = ~np.isclose(
            np.array([s.x_hi for s in segments[:-1]]), self._edges[1:-1]
        )
        if gaps.any():
            i = int(np.argmax(gaps))
            prev, cur = segments[i], segments[i + 1]
            raise ConfigError(
                f"segments are not contiguous: [{prev.x_lo}, {prev.x_hi}) "
                f"then [{cur.x_lo}, {cur.x_hi})"
            )
        self.segments: List[Segment] = list(segments)
        # Coefficient vectors, materialised once: eval() is called per
        # batch (and, during table construction, per candidate fit), so
        # rebuilding these per call would dominate the lookup cost.
        self._slopes = np.array([s.slope for s in segments])
        self._intercepts = np.array([s.intercept for s in segments])

    @property
    def x_lo(self) -> float:
        """Lower edge of the covered range."""
        return float(self._edges[0])

    @property
    def x_hi(self) -> float:
        """Upper edge of the covered range."""
        return float(self._edges[-1])

    def __len__(self) -> int:
        return len(self.segments)

    def index_of(self, x) -> np.ndarray:
        """Segment index for each ``x`` (clamped at the range edges)."""
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self._edges, x, side="right") - 1
        return np.clip(idx, 0, len(self.segments) - 1)

    def eval(self, x) -> np.ndarray:
        """Evaluate the piecewise function at ``x``.

        Inputs outside the covered range are clamped first, modelling the
        input/address saturation real table hardware applies.
        """
        x = np.clip(np.asarray(x, dtype=np.float64), self.x_lo, self.x_hi)
        idx = self.index_of(x)
        return self._slopes[idx] * x + self._intercepts[idx]

    def quantise_coefficients(
        self,
        slope_fmt: Optional[QFormat],
        intercept_fmt: Optional[QFormat],
        rounding: Rounding = Rounding.NEAREST_EVEN,
    ) -> "SegmentTable":
        """Return a copy whose coefficients are representable LUT words.

        Each coefficient vector is quantised in one call; a coefficient
        without a format keeps its segment's own value.
        """
        slopes = [s.slope for s in self.segments]
        intercepts = [s.intercept for s in self.segments]
        if slope_fmt is not None:
            slopes = (
                quantize_float(self._slopes, slope_fmt, rounding)
                * slope_fmt.resolution
            ).tolist()
        if intercept_fmt is not None:
            intercepts = (
                quantize_float(self._intercepts, intercept_fmt, rounding)
                * intercept_fmt.resolution
            ).tolist()
        return SegmentTable([
            replace(seg, slope=slope, intercept=intercept)
            for seg, slope, intercept in zip(self.segments, slopes, intercepts)
        ])

    def widths(self) -> np.ndarray:
        """Array of segment widths."""
        return np.diff(self._edges)
