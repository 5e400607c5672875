"""Minimax (Chebyshev) constant and linear fits on an interval.

These are the fitting primitives every segment-based engine uses. Fits are
computed on a dense sample grid; for the smooth, monotone activation
functions of the paper this converges to the true minimax fit as the grid
refines, and the residual the fitter reports is exact *on the grid the
accuracy benches reuse*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

DEFAULT_SAMPLES = 257
#: Segments :func:`fit_linear_segments` fits together. Bounds the slope
#: search's ``(rows, 2, samples)`` temporaries: 4 MiB each at 1024 rows
#: of 257 samples, where ``UniformPWL.for_accuracy`` probes up to 16384.
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class LinearFit:
    """A line ``y = slope * x + intercept`` with its max residual."""

    slope: float
    intercept: float
    max_error: float

    def eval(self, x) -> np.ndarray:
        """Evaluate the fitted line."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


def sample_interval(x_lo: float, x_hi: float, n_samples: int = DEFAULT_SAMPLES) -> np.ndarray:
    """Dense closed-interval sample grid used by all fitters."""
    return np.linspace(x_lo, x_hi, n_samples)


def fit_constant(
    f: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    n_samples: int = DEFAULT_SAMPLES,
) -> Tuple[float, float]:
    """Best constant approximation of ``f`` on ``[x_lo, x_hi]``.

    Returns ``(constant, max_error)``. The minimax constant is the midpoint
    of the function's range on the interval.
    """
    y = np.asarray(f(sample_interval(x_lo, x_hi, n_samples)), dtype=np.float64)
    lo, hi = float(np.min(y)), float(np.max(y))
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def fit_constant_monotone(
    f: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    n_samples: int = DEFAULT_SAMPLES,
) -> Tuple[float, float]:
    """:func:`fit_constant` for a monotone ``f`` — endpoint evaluation only.

    On a monotone interval the sample grid's min and max are the endpoint
    values, and :func:`sample_interval` includes both endpoints exactly, so
    this returns bit-identical ``(constant, max_error)`` to the grid fit
    while evaluating ``f`` at two points instead of ``n_samples``.
    """
    y = np.asarray(f(np.array([x_lo, x_hi])), dtype=np.float64)
    lo, hi = float(np.min(y)), float(np.max(y))
    return (lo + hi) / 2.0, (hi - lo) / 2.0


def fit_linear(
    f: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    n_samples: int = DEFAULT_SAMPLES,
) -> LinearFit:
    """Minimax linear fit of ``f`` on ``[x_lo, x_hi]``.

    The one-segment case of :func:`fit_linear_segments`. A degenerate
    interval (``x_hi <= x_lo``) gets slope 0 and the best constant.
    """
    slope, intercept, err = fit_linear_segments(f, [x_lo], [x_hi], n_samples)
    return LinearFit(float(slope[0]), float(intercept[0]), float(err[0]))


def fit_linear_segments(
    f: Callable[[np.ndarray], np.ndarray],
    x_lo,
    x_hi,
    n_samples: int = DEFAULT_SAMPLES,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimax lines of ``f`` on many segments ``[x_lo[i], x_hi[i]]`` at once.

    Returns ``(slopes, intercepts, max_errors)`` arrays, one entry per
    segment. The max residual, as a function of the slope (with the
    intercept chosen optimally), is convex — a max of affine functions —
    so a ternary search over the slope finds the global optimum. Every
    segment runs the same search in lock-step, with its own grid,
    bracket and decisions, so each row is bit-identical to fitting that
    segment alone. Rows are fitted in chunks of up to ``_CHUNK_ROWS``,
    and ``f`` is called once per chunk, on its grids flattened.
    """
    lo = np.asarray(x_lo, dtype=np.float64)
    hi = np.asarray(x_hi, dtype=np.float64)
    if len(lo) > _CHUNK_ROWS:
        fits = [
            fit_linear_segments(f, lo[i:i + _CHUNK_ROWS],
                                hi[i:i + _CHUNK_ROWS], n_samples)
            for i in range(0, len(lo), _CHUNK_ROWS)
        ]
        return tuple(np.concatenate(column) for column in zip(*fits))
    # One grid per row: np.linspace switches to its denormal-step
    # arithmetic for a whole call when any row needs it.
    x = np.array([sample_interval(a, b, n_samples) for a, b in zip(lo, hi)])
    y = np.asarray(f(x.reshape(-1)), dtype=np.float64).reshape(x.shape)
    slope = np.zeros(len(x))
    fits = hi > lo
    slope[fits] = _minimax_slopes(x[fits], y[fits])
    residual = y - slope[:, np.newaxis] * x
    r_lo, r_hi = residual.min(axis=1), residual.max(axis=1)
    return slope, (r_lo + r_hi) / 2.0, (r_hi - r_lo) / 2.0


def _minimax_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ternary search for each row's minimax slope (rows with ``hi > lo``)."""
    secant = (y[:, -1] - y[:, 0]) / (x[:, -1] - x[:, 0])
    # Bracket generously around the secant slope; for convex/concave f the
    # optimum *is* the secant, for general f it stays nearby.
    span = np.maximum(np.abs(secant), 1.0)
    lo_m, hi_m = secant - 2.0 * span, secant + 2.0 * span
    x3, y3 = x[:, np.newaxis, :], y[:, np.newaxis, :]
    ms = np.empty((len(x), 2, 1))
    m0, m1 = ms[:, 0, 0], ms[:, 1, 0]
    for _ in range(56):
        third = (hi_m - lo_m) / 3.0
        np.add(lo_m, third, out=m0)
        np.subtract(hi_m, third, out=m1)
        # Both candidate slopes of every row in one broadcast: each
        # (row, candidate) line is elementwise y - m * x, and the
        # extrema, the halving and the <= are taken per row.
        r = y3 - ms * x3
        e = np.maximum.reduce(r, axis=2) - np.minimum.reduce(r, axis=2)
        e /= 2.0
        left = e[:, 0] <= e[:, 1]
        np.copyto(hi_m, m1, where=left)
        np.copyto(lo_m, m0, where=~left)
    return (lo_m + hi_m) / 2.0


def max_abs_error(
    f: Callable[[np.ndarray], np.ndarray],
    approx: Callable[[np.ndarray], np.ndarray],
    x_lo: float,
    x_hi: float,
    n_samples: int = 4097,
) -> float:
    """Max |f - approx| on a dense grid over the interval."""
    x = sample_interval(x_lo, x_hi, n_samples)
    return float(np.max(np.abs(np.asarray(f(x)) - np.asarray(approx(x)))))
