"""Generation of the sigmoid PWL coefficient LUT (Section V.A).

Each LUT entry holds the minimax line of one uniform segment of the
*positive* sigmoid range: the slope ``m1`` and the bias ``q`` of Eq. 8.
Only the positive range is stored — the centrosymmetry of Eq. 4 halves the
LUT, and Section V.A's rewiring units derive the other three coefficient
sets (negative sigma, both tanh ranges) from the same words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.approx.minimax import fit_linear_segments
from repro.errors import ConfigError
from repro.fixedpoint import QFormat
from repro.fixedpoint.rounding import quantize_float
from repro.funcs import sigmoid
from repro.nacu.config import NacuConfig
from repro.telemetry import collector as _telemetry


@dataclass(frozen=True)
class CoefficientLUT:
    """The stored coefficient table: raw slope and bias words per segment.

    ``slope_raw[i]`` / ``bias_raw[i]`` are the LUT words of segment ``i``;
    the segment for an input magnitude ``u`` is ``floor(u / step)``,
    clamped to the last entry (address saturation).
    """

    slope_raw: np.ndarray
    bias_raw: np.ndarray
    slope_fmt: QFormat
    bias_fmt: QFormat
    x_range: float

    def __post_init__(self) -> None:
        if self.slope_raw.shape != self.bias_raw.shape:
            raise ConfigError("slope and bias tables must have equal length")

    @property
    def n_entries(self) -> int:
        """Number of PWL segments stored."""
        return len(self.slope_raw)

    @property
    def step(self) -> float:
        """Uniform segment width."""
        return self.x_range / self.n_entries

    @property
    def storage_bits(self) -> int:
        """Total LUT storage: one slope and one bias word per entry."""
        return self.n_entries * (self.slope_fmt.n_bits + self.bias_fmt.n_bits)

    def index_for(self, magnitude: np.ndarray, magnitude_fb: int) -> np.ndarray:
        """Segment index for raw input magnitudes (``fb`` fractional bits).

        Models the address generator: a multiply by the reciprocal step
        and a clamp of the address into the table.
        """
        value = np.asarray(magnitude, dtype=np.float64) * 2.0 ** -magnitude_fb
        idx = np.floor(value / self.step).astype(np.int64)
        return np.clip(idx, 0, self.n_entries - 1)

    def lookup(self, magnitude: np.ndarray, magnitude_fb: int):
        """Fetch ``(slope_raw, bias_raw)`` words for input magnitudes."""
        idx = self.index_for(magnitude, magnitude_fb)
        return self.slope_raw[idx], self.bias_raw[idx]


#: Cache of built coefficient LUTs, keyed by the configuration fields the
#: table contents actually depend on (see :func:`lut_cache_key`). Entries
#: are immutable — the raw arrays are frozen read-only — so one table can
#: back any number of :class:`~repro.nacu.unit.Nacu` instances (e.g. one
#: per CGRA cell) without rebuilding the minimax fits each time.
_LUT_CACHE: Dict[Tuple, CoefficientLUT] = {}


def lut_cache_key(config: NacuConfig) -> Tuple:
    """The configuration fields a sigmoid LUT's contents depend on.

    Two configs that agree on these fields produce bit-identical tables,
    whatever their divider/accumulator/clock settings. Because
    :class:`NacuConfig` is frozen, a key can never go stale — the cache
    needs no invalidation beyond :func:`clear_lut_cache` (useful when a
    test monkeypatches the fitting machinery itself).
    """
    return (
        config.lut_entries,
        float(config.lut_range),
        config.slope_fmt,
        config.bias_fmt,
    )


def get_sigmoid_lut(config: NacuConfig) -> CoefficientLUT:
    """The (shared, read-only) sigmoid LUT for ``config``, built on demand."""
    key = lut_cache_key(config)
    lut = _LUT_CACHE.get(key)
    tel = _telemetry._active
    if tel is not None:
        tel.count("lut.cache.hit" if lut is not None else "lut.cache.miss")
    if lut is None:
        # The build's own fixed-point ops run silenced: construction is
        # per-process infrastructure, and charging it to whichever caller
        # happens to arrive first would make shard telemetry depend on
        # scheduling (the cache hit/miss counters above stay — they are
        # *about* process-local state).
        with _telemetry.use_collector(None):
            lut = build_sigmoid_lut(config)
        lut.slope_raw.setflags(write=False)
        lut.bias_raw.setflags(write=False)
        _LUT_CACHE[key] = lut
    return lut


def clear_lut_cache() -> None:
    """Drop every cached LUT (subsequent gets rebuild from scratch)."""
    _LUT_CACHE.clear()


def build_sigmoid_lut(config: NacuConfig) -> CoefficientLUT:
    """Fit and quantise the sigmoid coefficient LUT for a configuration.

    Minimax lines are fitted per uniform segment on [0, lut_range), all
    segments in one lock-step search, and the coefficients are rounded to
    the LUT word formats. For the sigmoid on the positive range, slopes
    land in (0, 0.25] and biases in [0.5, 1) — the ranges Section V.A's
    bias units rely on; both are asserted here so a bad configuration
    fails at build time, not in the datapath.
    """
    edges = np.linspace(0.0, config.lut_range, config.lut_entries + 1)
    slopes, biases, _ = fit_linear_segments(sigmoid, edges[:-1], edges[1:])
    slope_raw = quantize_float(slopes, config.slope_fmt)
    bias_raw = quantize_float(biases, config.bias_fmt)

    bias_values = bias_raw.astype(np.float64) * config.bias_fmt.resolution
    if np.any(bias_values < 0.5) or np.any(bias_values > 1.0):
        raise ConfigError(
            "sigmoid PWL biases left [0.5, 1]; the Fig. 3 rewiring units "
            "are only specified on that interval"
        )
    if np.any(slope_raw < 0):
        raise ConfigError("sigmoid PWL slopes must be non-negative")
    return CoefficientLUT(
        slope_raw=slope_raw,
        bias_raw=bias_raw,
        slope_fmt=config.slope_fmt,
        bias_fmt=config.bias_fmt,
        x_range=config.lut_range,
    )
