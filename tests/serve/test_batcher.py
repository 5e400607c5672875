"""Micro-batcher: coalescing mechanics and bit-identity over any split."""

import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import BatchEngine
from repro.errors import RangeError, ServeError
from repro.fixedpoint import FxArray
from repro.nacu.config import FunctionMode
from repro.serve import Batch, MicroBatcher
from repro.serve.batcher import build_request
from repro.telemetry import Collector, use_collector

ENGINES = {}


def engine_for(bits: int) -> BatchEngine:
    # Module-level cache: compiling a 16-bit table once is enough.
    if bits not in ENGINES:
        ENGINES[bits] = BatchEngine.for_bits(bits, fast=True)
    return ENGINES[bits]


def make_request(engine, x, mode, axis=-1):
    return build_request(Future(), x, mode, axis, engine)


class TestBuildRequest:
    def test_exp_rejects_positive_inputs_before_batching(self):
        engine = engine_for(8)
        with pytest.raises(RangeError):
            make_request(engine, 0.5, FunctionMode.EXP)

    def test_softmax_rejects_scalars(self):
        engine = engine_for(8)
        with pytest.raises(RangeError):
            make_request(engine, 1.0, FunctionMode.SOFTMAX)

    def test_mac_is_not_servable(self):
        engine = engine_for(8)
        with pytest.raises(ServeError):
            make_request(engine, 1.0, FunctionMode.MAC)

    def test_foreign_format_fxarray_is_rejected(self):
        engine = engine_for(8)
        fx = FxArray.from_float(0.5, engine_for(12).io_fmt)
        with pytest.raises(ServeError):
            make_request(engine, fx, FunctionMode.SIGMOID)


class TestCoalescing:
    def test_groups_fill_until_deadline(self):
        engine = engine_for(8)
        batcher = MicroBatcher(max_batch_elements=100, max_delay_us=10_000)
        for _ in range(3):
            assert batcher.offer(
                make_request(engine, [0.1, 0.2], FunctionMode.SIGMOID)
            )
        now = time.perf_counter_ns()
        assert batcher.take_ready(now) == []
        ready = batcher.take_ready(now + 20_000_000)
        assert len(ready) == 1
        assert ready[0].elements == 6
        assert not batcher

    def test_full_group_flushes_immediately(self):
        engine = engine_for(8)
        batcher = MicroBatcher(max_batch_elements=4, max_delay_us=10_000)
        for _ in range(2):
            batcher.offer(make_request(engine, [0.1, 0.2], FunctionMode.TANH))
        ready = batcher.take_ready(time.perf_counter_ns())
        assert len(ready) == 1 and ready[0].elements == 4

    def test_modes_and_softmax_widths_group_separately(self):
        engine = engine_for(8)
        batcher = MicroBatcher(max_batch_elements=100, max_delay_us=0)
        batcher.offer(make_request(engine, [0.1], FunctionMode.SIGMOID))
        batcher.offer(make_request(engine, [0.1], FunctionMode.TANH))
        batcher.offer(make_request(engine, [0.1, 0.2], FunctionMode.SOFTMAX))
        batcher.offer(make_request(engine, [0.1, 0.2, 0.3], FunctionMode.SOFTMAX))
        ready = batcher.take_ready(time.perf_counter_ns() + 1)
        assert len(ready) == 4

    def test_oversize_request_is_admitted_and_flushed_alone(self):
        engine = engine_for(8)
        batcher = MicroBatcher(max_batch_elements=4, max_delay_us=10_000)
        assert batcher.offer(
            make_request(engine, np.zeros(64), FunctionMode.SIGMOID)
        )
        ready = batcher.take_ready(time.perf_counter_ns())
        assert len(ready) == 1 and ready[0].elements == 64

    def test_without_a_clock_only_full_groups_leave(self):
        # take_ready(None) is the dispatcher's "every executor is busy".
        engine = engine_for(8)
        batcher = MicroBatcher(max_batch_elements=4)
        batcher.offer(make_request(engine, [0.1] * 4, FunctionMode.TANH))
        batcher.offer(make_request(engine, [0.1], FunctionMode.SIGMOID))
        ready = batcher.take_ready(None)
        assert [batch.mode for batch in ready] == [FunctionMode.TANH]
        assert batcher.pending_requests == 1
        # The default delay is zero: a free executor takes it at once.
        ready = batcher.take_ready(time.perf_counter_ns())
        assert [batch.mode for batch in ready] == [FunctionMode.SIGMOID]
        assert not batcher

    def test_backpressure_refuses_overflow(self):
        engine = engine_for(8)
        batcher = MicroBatcher(max_pending_elements=4)
        assert batcher.offer(make_request(engine, [0.0] * 4, FunctionMode.TANH))
        assert not batcher.offer(make_request(engine, 0.0, FunctionMode.TANH))
        assert batcher.pending_elements == 4


class TestBatchRun:
    def test_scatter_restores_shapes_kinds_and_values(self):
        engine = engine_for(8)
        scalar = make_request(engine, 0.5, FunctionMode.SIGMOID)
        array = make_request(
            engine, np.full((2, 3), -1.0), FunctionMode.SIGMOID
        )
        fx_in = FxArray.from_float(np.array([0.25, -0.25]), engine.io_fmt)
        fx = make_request(engine, fx_in, FunctionMode.SIGMOID)
        Batch(FunctionMode.SIGMOID, [scalar, array, fx]).run(engine)

        assert scalar.future.result() == engine.sigmoid(0.5)
        got = array.future.result()
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(
            got, engine.sigmoid(np.full((2, 3), -1.0))
        )
        np.testing.assert_array_equal(
            fx.future.result().raw, engine.sigmoid_fx(fx_in).raw
        )

    def test_softmax_axis_round_trip(self):
        engine = engine_for(8)
        x = np.random.default_rng(0).uniform(-4, 4, size=(3, 5))
        request = make_request(engine, x, FunctionMode.SOFTMAX, axis=0)
        Batch(FunctionMode.SOFTMAX, [request]).run(engine)
        np.testing.assert_array_equal(
            request.future.result(), engine.softmax(x, axis=0)
        )

    def test_engine_failure_fails_every_future(self, monkeypatch):
        engine = engine_for(8)
        requests = [
            make_request(engine, 0.1, FunctionMode.TANH) for _ in range(3)
        ]

        def boom(_):
            raise RuntimeError("datapath on fire")

        monkeypatch.setattr(engine, "tanh_fx", boom)
        Batch(FunctionMode.TANH, requests).run(engine)
        for request in requests:
            with pytest.raises(RuntimeError):
                request.future.result()

    def test_run_records_serve_telemetry(self):
        engine = engine_for(8)
        collector = Collector()
        requests = [
            make_request(engine, [0.1, 0.2], FunctionMode.SIGMOID)
            for _ in range(4)
        ]
        with use_collector(collector):
            Batch(FunctionMode.SIGMOID, requests).run(engine)
        snap = collector.snapshot()
        assert snap["counters"]["serve.batches"] == 1
        assert snap["counters"]["serve.batch_elements"] == 8
        assert snap["histograms"]["serve.batch_fill"] == {"4": 1}
        assert snap["timers"]["serve.queue_wait"]["count"] == 4


def _draw_request(data, raw, fmt, scalar_ok):
    """One request over ``raw`` words, drawn as a float or an FxArray.

    Floats carry the exact image of the raw words, so they quantise
    back to them; a one-element piece is sometimes a 0-d scalar.
    """
    as_fx = data.draw(st.booleans(), label="FxArray piece")
    if scalar_ok and raw.size == 1 and data.draw(st.booleans(), label="0-d"):
        raw = raw.reshape(())
    if as_fx:
        return FxArray(raw, fmt)
    values = raw * fmt.resolution
    return float(values) if values.ndim == 0 else values


def _assert_same_bytes(result, want):
    """``result`` is ``want`` byte for byte: kind, shape, dtype, words."""
    if isinstance(want, FxArray):
        assert isinstance(result, FxArray) and result.fmt == want.fmt
        result, want = result.raw, want.raw
    elif isinstance(want, float):
        assert type(result) is float
        result, want = np.float64(result), np.float64(want)
    assert isinstance(result, (np.ndarray, np.generic))
    assert result.shape == want.shape and result.dtype == want.dtype
    assert result.tobytes() == want.tobytes()


def _serial(engine, mode, x, axis=-1):
    """What the serial engine answers for one request of either kind."""
    if isinstance(x, FxArray):
        kernel = getattr(engine, f"{mode.value}_fx")
    else:
        kernel = getattr(engine, mode.value)
    if mode is FunctionMode.SOFTMAX:
        return kernel(x, axis=axis)
    return kernel(x)


class TestSplitBitIdentity:
    """Any split of a request stream returns the serial pass's raw words.

    The acceptance property: singleton requests, arbitrary interior
    splits, and the one-big-batch case must all be byte-identical to a
    single serial :class:`BatchEngine` evaluation — per width, per mode.
    Each piece is a float array or an ``FxArray`` (a 0-d scalar of
    either kind when it holds one element), so one batch mixes float
    members, quantised together, with raw members.
    """

    @pytest.mark.parametrize("bits", [8, 12, 16])
    @pytest.mark.parametrize(
        "mode",
        [FunctionMode.SIGMOID, FunctionMode.TANH, FunctionMode.EXP],
    )
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_elementwise_any_split(self, bits, mode, data):
        engine = engine_for(bits)
        n = data.draw(st.integers(1, 96), label="stream elements")
        cut_count = data.draw(st.integers(0, min(n - 1, 10)), label="cuts")
        cuts = sorted(
            data.draw(
                st.sets(st.integers(1, n - 1), min_size=cut_count,
                        max_size=cut_count),
                label="cut points",
            )
        ) if n > 1 else []
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        rng = np.random.default_rng(seed)
        lo = engine.io_fmt.min_value
        hi = 0.0 if mode is FunctionMode.EXP else engine.io_fmt.max_value
        stream = FxArray.from_float(rng.uniform(lo, hi, size=n), engine.io_fmt)
        if mode is FunctionMode.EXP:
            stream = FxArray(np.minimum(stream.raw, 0), stream.fmt)

        kernel = {
            FunctionMode.SIGMOID: engine.sigmoid_fx,
            FunctionMode.TANH: engine.tanh_fx,
            FunctionMode.EXP: engine.exp_fx,
        }[mode]
        serial = kernel(stream).raw

        inputs = [
            _draw_request(data, piece, stream.fmt, scalar_ok=True)
            for piece in np.split(stream.raw, cuts)
        ]
        requests = [
            build_request(Future(), x, mode, -1, engine) for x in inputs
        ]
        Batch(mode, requests).run(engine)
        batched = []
        for x, request in zip(inputs, requests):
            result = request.future.result()
            _assert_same_bytes(result, _serial(engine, mode, x))
            words = result.raw if isinstance(result, FxArray) else (
                np.asarray(result) / engine.io_fmt.resolution
            )
            batched.append(np.ravel(words).astype(np.int64))
        np.testing.assert_array_equal(np.concatenate(batched), serial)

    @pytest.mark.parametrize("bits", [8, 12, 16])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_softmax_any_row_split(self, bits, data):
        engine = engine_for(bits)
        rows = data.draw(st.integers(1, 24), label="rows")
        width = data.draw(st.integers(1, 9), label="width")
        cut_count = data.draw(st.integers(0, min(rows - 1, 6)), label="cuts")
        cuts = sorted(
            data.draw(
                st.sets(st.integers(1, rows - 1), min_size=cut_count,
                        max_size=cut_count),
                label="cut points",
            )
        ) if rows > 1 else []
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        rng = np.random.default_rng(seed)
        stream = FxArray.from_float(
            rng.uniform(-6, 6, size=(rows, width)), engine.io_fmt
        )
        serial = engine.softmax_fx(stream, axis=-1).raw

        inputs, axes = [], []
        for piece in np.split(stream.raw, cuts, axis=0):
            if not piece.shape[0]:
                continue
            # axis=0 carries the same rows as columns of the transpose.
            axis = data.draw(st.sampled_from([-1, 0]), label="axis")
            if axis == 0:
                piece = np.ascontiguousarray(piece.T)
            inputs.append(
                _draw_request(data, piece, stream.fmt, scalar_ok=False)
            )
            axes.append(axis)
        requests = [
            build_request(Future(), x, FunctionMode.SOFTMAX, axis, engine)
            for x, axis in zip(inputs, axes)
        ]
        Batch(FunctionMode.SOFTMAX, requests).run(engine)
        batched = []
        for x, axis, request in zip(inputs, axes, requests):
            result = request.future.result()
            _assert_same_bytes(
                result, _serial(engine, FunctionMode.SOFTMAX, x, axis)
            )
            words = result.raw if isinstance(result, FxArray) else (
                result / engine.io_fmt.resolution
            )
            words = words.T if axis == 0 else words
            batched.append(np.ravel(words).astype(np.int64))
        np.testing.assert_array_equal(np.concatenate(batched), serial.ravel())
