"""The batch evaluation engine — serving-oriented front end to one NACU.

:class:`BatchEngine` runs sigmoid/tanh/exp/softmax over arbitrary-shaped
batches with a single quantise on the way in and a single de-quantise on
the way out. The elementwise functions go through the datapath in one
vectorised pass whatever the input rank; softmax reshapes the batch to a
2-D stack of rows and uses the datapath's native batched path, so every
result is raw-bit-identical to evaluating elements (or rows) one at a
time through :class:`~repro.nacu.unit.Nacu`.

The engine also satisfies the ``ActivationProvider`` duck type used by
:mod:`repro.nn` (``sigmoid``/``tanh``/``softmax`` as array-to-array
callables), so it can be dropped straight into an MLP, CNN or LSTM:

>>> from repro.engine import BatchEngine
>>> engine = BatchEngine.for_bits(16)
>>> engine.softmax([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]]).shape
(2, 3)
"""

from __future__ import annotations

import time
import warnings
from typing import Optional, Union

import numpy as np

from repro.compile import TABLE_MODES, default_cache
from repro.compile.table import ResponseTable
from repro.errors import RangeError
from repro.faults import inject as _faults
from repro.fixedpoint import FxArray, QFormat
from repro.nacu.config import FunctionMode, NacuConfig
from repro.nacu.lutgen import get_sigmoid_lut
from repro.nacu.unit import Nacu
from repro.telemetry import collector as _telemetry
from repro.telemetry import trace as _trace

InputLike = Union[FxArray, float, np.ndarray, list]

#: Process-wide default for engines built with ``fast=None`` — the switch
#: the experiment runner's ``--fast`` flag flips (in every worker) so
#: drivers that build their own engines pick the compiled-table path up
#: without threading a flag through each call chain.
_DEFAULT_FAST = False


def set_default_fast(enabled: bool) -> bool:
    """Set the process default for ``BatchEngine(fast=None)``; returns the
    previous value. Only engines built *afterwards* see the change: the
    engine snapshots the default into ``self.fast`` in ``__init__`` and
    never re-reads the module global, so flipping it mid-flight cannot
    change which datapath an existing engine (or a serving worker pool
    built around one) evaluates through. ``tests/test_engine.py`` pins
    this."""
    global _DEFAULT_FAST
    previous = _DEFAULT_FAST
    _DEFAULT_FAST = bool(enabled)
    return previous


def get_default_fast() -> bool:
    """The current process default for ``BatchEngine(fast=None)``."""
    return _DEFAULT_FAST


class BatchEngine:
    """Vectorised batch evaluation over one (shared) NACU.

    Accepts plain floats/arrays (quantised once into the unit's I/O
    format) or :class:`FxArray` batches already in raw form; returns
    values in kind, preserving the input's shape. The ``*_fx`` variants
    skip the float conversion entirely for pipelines that stay in fixed
    point between layers.
    """

    def __init__(self, nacu: Optional[Nacu] = None,
                 config: Optional[NacuConfig] = None,
                 collector=None, fast: Optional[bool] = None,
                 table_cache=None):
        self.nacu = nacu if nacu is not None else Nacu(config, collector=collector)
        #: Injected telemetry collector; falls back to the wrapped unit's,
        #: then to the module registry in :mod:`repro.telemetry`.
        self.collector = (
            collector if collector is not None else self.nacu.datapath.collector
        )
        #: Evaluate elementwise modes (and softmax's e^x and divide
        #: stages) through compiled response tables and the divider's
        #: vectorised kernel — raw-bit-identical to the datapath,
        #: one integer gather per batch (see :mod:`repro.compile`).
        #: ``None`` defers to the process default (:func:`set_default_fast`),
        #: *snapshotted here*: a later ``set_default_fast`` flip never
        #: changes an already-built engine's path.
        self.fast = get_default_fast() if fast is None else fast
        #: Table cache override; ``None`` shares the process default.
        self.table_cache = table_cache
        #: Whether this engine already warned that an armed fault plan
        #: is forcing it off the compiled-table fast path (once per
        #: engine, however many batches fall back).
        self._warned_fault_fallback = False

    @classmethod
    def for_bits(cls, n_bits: int, fast: Optional[bool] = None,
                 collector=None, table_cache=None,
                 **config_kwargs) -> "BatchEngine":
        """An engine over a unit dimensioned for ``n_bits`` (Section III).

        Engine-level kwargs (``collector``, ``table_cache``) go to the
        :class:`BatchEngine` constructor — the collector is also injected
        into the unit's datapath — and only configuration kwargs (e.g.
        ``lut_entries``) travel down to :meth:`NacuConfig.for_bits`.
        """
        return cls(
            Nacu.for_bits(n_bits, collector=collector, **config_kwargs),
            fast=fast, collector=collector, table_cache=table_cache,
        )

    @property
    def io_fmt(self) -> QFormat:
        """The underlying unit's input/output fixed-point format."""
        return self.nacu.io_fmt

    @property
    def engine(self) -> "BatchEngine":
        """Self — lets engine-aware callers accept either an engine or an
        engine-backed provider through one ``getattr(obj, "engine")``."""
        return self

    # ------------------------------------------------------------------
    # Quantise-in / quantise-out
    # ------------------------------------------------------------------
    def _ingest(self, x: InputLike) -> FxArray:
        if isinstance(x, FxArray):
            return x
        return FxArray.from_float(np.asarray(x, dtype=np.float64), self.io_fmt)

    @staticmethod
    def _emit(result: FxArray, like: InputLike):
        if isinstance(like, FxArray):
            return result
        out = result.to_float()
        return float(out) if np.ndim(out) == 0 else out

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record_batch(self, tel, mode: FunctionMode, x: FxArray,
                      pipeline_n: int, calls: int, elapsed_ns: int) -> None:
        """Batch-shape/throughput stats plus paper-model cycle accounting.

        ``pipeline_n`` is the element count one pipelined pass evaluates
        and ``calls`` how many such passes the batch represents (rows, for
        softmax) — so the cycle charge is exactly what ``Nacu.cycles``
        models for this batch.
        """
        name = mode.value
        tel.count(f"engine.{name}.batches")
        tel.count(f"engine.{name}.elements", x.raw.size)
        tel.observe(f"engine.{name}.batch_rank", x.raw.ndim)
        tel.observe_span(f"engine.{name}", elapsed_ns)
        tel.add_cycles(
            name,
            calls * self.nacu.cycles(mode, pipeline_n),
            self.nacu.config.clock_ns,
        )

    # ------------------------------------------------------------------
    # Fixed-point batch paths
    # ------------------------------------------------------------------
    def _table_for(self, mode: FunctionMode) -> Optional[ResponseTable]:
        """The compiled response table for ``mode``, if the fast path applies.

        ``None`` (datapath fallback) when the engine is not in fast mode,
        the mode is not elementwise-compilable, the format is too wide for
        the cache's per-table ceiling, or the unit carries an *injected*
        coefficient LUT (fault studies): the cache is keyed by config
        fingerprint only, so a table can stand in for the datapath only
        when the LUT is the canonical build for that config.
        """
        if not self.fast or mode not in TABLE_MODES:
            return None
        if _faults.resolve() is not None:
            # Tables are keyed by config fingerprint alone and hold the
            # fault-free response; serving one with a fault plan armed
            # would silently bypass every injection site.
            self._note_fault_fallback()
            return None
        lut = self.nacu.datapath.lut
        if lut is not get_sigmoid_lut(self.nacu.config):
            tel = _telemetry.resolve(self.collector)
            if tel is not None:
                tel.count("engine.fast.fallback_custom_lut")
            return None
        cache = self.table_cache if self.table_cache is not None else default_cache()
        return cache.get(self.nacu.config, mode, lut=lut)

    def _note_fault_fallback(self) -> None:
        """Make the armed-plan slow-path fallback impossible to miss.

        Every fallback counts ``engine.fast.fallback_faults`` (per
        batch); the *first* one per engine also warns loudly and sets
        the ``faults.fast_path_disabled`` gauge — so a chaos soak that
        meant to benchmark the fast path cannot silently measure the
        bit-accurate datapath instead.
        """
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            tel.count("engine.fast.fallback_faults")
        if not self._warned_fault_fallback:
            self._warned_fault_fallback = True
            if tel is not None:
                tel.count("faults.fast_path_disabled")
            warnings.warn(
                "an armed fault plan disables the compiled-table fast "
                "path: this engine is evaluating on the bit-accurate "
                "datapath (injection sites live there). Expect slow-path "
                "throughput; disarm the plan to benchmark the fast path.",
                RuntimeWarning,
                stacklevel=3,
            )

    def _elementwise_fx(self, x: FxArray, mode: FunctionMode) -> FxArray:
        table = self._table_for(mode)
        if table is not None:
            kernel = table.eval
        else:
            datapath = self.nacu.datapath
            kernel = (
                datapath.exponential if mode is FunctionMode.EXP
                else lambda fx: datapath.activation(fx, mode)
            )
        # Telemetry and the trace sink each resolve once per batch; the
        # disabled path adds two None checks to the vectorised dispatch.
        tel = _telemetry.resolve(self.collector)
        sink = _trace.current_sink()
        if tel is None and sink is None:
            return kernel(x)
        start = time.perf_counter_ns()
        out = kernel(x)
        elapsed_ns = time.perf_counter_ns() - start
        if sink is not None:
            sink.emit(f"engine.{mode.value}", start, elapsed_ns)
        if tel is not None:
            self._record_batch(tel, mode, x, x.raw.size, 1, elapsed_ns)
            if table is not None:
                tel.count(f"engine.{mode.value}.fast_elements", x.raw.size)
        return out

    def _fast_divide(self):
        """The softmax divide-stage substitute, if the fast path applies.

        For the restoring divider this is the vectorised floor-quotient
        kernel (:meth:`RestoringDivider.divide_fast`) — no table needed;
        for the approximate divider it is the table-served divide over
        the compiled reciprocal of every normalised-mantissa code
        (``None`` datapath fallback when that table exceeds the cache's
        per-table ceiling). Both are raw-bit-identical to the divider's
        own ``divide``, and with a fault plan armed nothing is injected:
        the ``divider.pipe`` site lives in the bit-serial/Newton path.
        """
        if not self.fast:
            return None
        if _faults.resolve() is not None:
            self._note_fault_fallback()
            return None
        divider = self.nacu.datapath.divider
        if not self.nacu.config.use_approx_divider:
            return divider.divide_fast
        cache = self.table_cache if self.table_cache is not None else default_cache()
        table = cache.get_reciprocal(self.nacu.config)
        if table is None:
            return None
        return lambda num, den: divider.divide_fast(num, den, table)

    def sigmoid_fx(self, x: FxArray) -> FxArray:
        """Elementwise sigma of a raw batch of any shape."""
        return self._elementwise_fx(x, FunctionMode.SIGMOID)

    def tanh_fx(self, x: FxArray) -> FxArray:
        """Elementwise tanh of a raw batch of any shape."""
        return self._elementwise_fx(x, FunctionMode.TANH)

    def exp_fx(self, x: FxArray) -> FxArray:
        """Elementwise ``e^x`` (``x <= 0``) of a raw batch of any shape."""
        return self._elementwise_fx(x, FunctionMode.EXP)

    def softmax_fx(self, x: FxArray, axis: int = -1) -> FxArray:
        """Softmax along ``axis`` of a raw batch of any rank >= 1.

        The batch is viewed as a 2-D stack of rows (``axis`` moved last),
        evaluated in one pass through the datapath's batched softmax, and
        the original layout restored. In fast mode the elementwise e^x
        stage goes through its compiled table and the divide stage
        through the divider's vectorised fast path (quotient kernel or
        reciprocal table, see :meth:`_fast_divide`); the max-normalise
        and denominator accumulation always run through the real
        datapath, so the result stays raw-bit-identical. Per-stage
        coverage is counted separately (``engine.softmax.fast_exp_elements``
        / ``engine.softmax.fast_div_elements``) because either stage can
        fall back on its own.
        """
        if x.raw.ndim == 0:
            raise RangeError("softmax needs at least one axis of inputs")
        last = axis == -1 or axis == x.raw.ndim - 1
        moved = x.raw if last else np.moveaxis(x.raw, axis, -1)
        if moved.shape[-1] == 0:
            # A zero-length softmax axis would crash the reshape below
            # with a numpy ValueError; match the datapath's error surface.
            raise RangeError("softmax expects a non-empty 1-D vector or 2-D batch")
        # x was range-validated when it became an FxArray; the reshaped
        # view holds the same values, so skip the constructor's re-scan.
        rows = FxArray._wrap(moved.reshape(-1, moved.shape[-1]), x.fmt)
        # The datapath max-normalises before the e^x stage, so the
        # substitute's inputs are non-positive by construction and the
        # domain-checking eval() would re-scan every batch.
        exp_table = self._table_for(FunctionMode.EXP)
        exponential = exp_table.eval_trusted if exp_table is not None else None
        divide = self._fast_divide()
        tel = _telemetry.resolve(self.collector)
        if tel is None:
            out = self.nacu.datapath.softmax(
                rows, exponential=exponential, divide=divide
            )
        else:
            start = time.perf_counter_ns()
            out = self.nacu.datapath.softmax(
                rows, exponential=exponential, divide=divide
            )
            self._record_batch(
                tel, FunctionMode.SOFTMAX, x,
                rows.raw.shape[-1], rows.raw.shape[0],
                time.perf_counter_ns() - start,
            )
            if exp_table is not None:
                tel.count("engine.softmax.fast_exp_elements", x.raw.size)
            if divide is not None:
                tel.count("engine.softmax.fast_div_elements", x.raw.size)
        raw = out.raw.reshape(moved.shape)
        if not last:
            raw = np.moveaxis(raw, -1, axis)
        return FxArray._wrap(raw, out.fmt)

    # ------------------------------------------------------------------
    # Float-or-FxArray front ends (ActivationProvider-compatible)
    # ------------------------------------------------------------------
    def sigmoid(self, x: InputLike):
        """Elementwise sigma over a batch of any shape."""
        return self._emit(self.sigmoid_fx(self._ingest(x)), x)

    def tanh(self, x: InputLike):
        """Elementwise tanh over a batch of any shape."""
        return self._emit(self.tanh_fx(self._ingest(x)), x)

    def exp(self, x: InputLike):
        """Elementwise ``e^x`` (``x <= 0``) over a batch of any shape."""
        return self._emit(self.exp_fx(self._ingest(x)), x)

    def softmax(self, x: InputLike, axis: int = -1):
        """Softmax along ``axis`` over a batch of any rank >= 1."""
        fx = self._ingest(x)
        return self._emit(self.softmax_fx(fx, axis=axis), x)

    def __repr__(self) -> str:
        return f"<BatchEngine over {self.nacu!r}>"
