"""The engine's fast path: raw-bit identity, defaults, and fallbacks."""

import warnings

import numpy as np
import pytest

from repro.engine import BatchEngine, get_default_fast, set_default_fast
from repro.errors import RangeError
from repro.fixedpoint import FxArray
from repro.nacu.config import NacuConfig
from repro.nacu.lutgen import build_sigmoid_lut
from repro.nacu.unit import Nacu
from repro.telemetry import Collector, use_collector


def _batch(fmt, rng, shape=(64, 33)):
    raw = rng.integers(fmt.raw_min, fmt.raw_max + 1, size=shape, dtype=np.int64)
    return FxArray(raw, fmt)


@pytest.fixture
def engines():
    return BatchEngine.for_bits(12, fast=False), BatchEngine.for_bits(12, fast=True)


class TestFastIdentity:
    def test_elementwise_modes_identical(self, engines):
        slow, fast = engines
        rng = np.random.default_rng(3)
        x = _batch(slow.io_fmt, rng)
        for name in ("sigmoid_fx", "tanh_fx"):
            np.testing.assert_array_equal(
                getattr(fast, name)(x).raw, getattr(slow, name)(x).raw
            )
        non_positive = FxArray(np.minimum(x.raw, 0), slow.io_fmt)
        np.testing.assert_array_equal(
            fast.exp_fx(non_positive).raw, slow.exp_fx(non_positive).raw
        )

    def test_softmax_identical(self, engines):
        slow, fast = engines
        rng = np.random.default_rng(4)
        x = _batch(slow.io_fmt, rng, shape=(16, 10))
        np.testing.assert_array_equal(
            fast.softmax_fx(x).raw, slow.softmax_fx(x).raw
        )

    def test_exp_rejects_positive_inputs(self, engines):
        _, fast = engines
        positive = FxArray.from_float(np.array([0.25]), fast.io_fmt)
        with pytest.raises(RangeError):
            fast.exp_fx(positive)

    def test_fast_elements_counted(self, engines):
        _, fast = engines
        collector = Collector()
        x = FxArray.from_float(np.zeros((5, 7)), fast.io_fmt)
        with use_collector(collector):
            fast.sigmoid_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("engine.sigmoid.fast_elements") == 35


class TestFastDispatch:
    def test_default_flag_applies_to_new_engines(self):
        previous = set_default_fast(True)
        try:
            assert get_default_fast() is True
            assert BatchEngine.for_bits(8).fast is True
            assert BatchEngine.for_bits(8, fast=False).fast is False
        finally:
            set_default_fast(previous)

    def test_armed_fault_plan_falls_back_to_datapath(self):
        # Response tables hold the fault-free response and are keyed by
        # config fingerprint alone; serving one with a fault plan armed
        # would silently bypass every injection site.
        from repro.faults import FaultPlan, FaultSpec, use_plan

        engine = BatchEngine.for_bits(8, fast=True)
        x = FxArray.from_float(np.array([0.5, -0.5]), engine.io_fmt)
        golden = engine.sigmoid_fx(x)
        collector = Collector()
        plan = FaultPlan(specs=(FaultSpec(site="io.out", rate=1.0),))
        with use_collector(collector), use_plan(plan):
            faulty = engine.sigmoid_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("engine.fast.fallback_faults") == 1
        assert counters.get("engine.sigmoid.fast_elements") is None
        assert np.any(faulty.raw != golden.raw)
        # Disarmed again, the fast path resumes bit-identically.
        np.testing.assert_array_equal(engine.sigmoid_fx(x).raw, golden.raw)

    def test_armed_fallback_warns_loudly_exactly_once(self):
        from repro.faults import FaultPlan, FaultSpec, use_plan

        engine = BatchEngine.for_bits(8, fast=True)
        x = FxArray.from_float(np.array([0.25, -0.25]), engine.io_fmt)
        collector = Collector()
        plan = FaultPlan(specs=(FaultSpec(site="io.out", rate=1.0),))
        with use_collector(collector), use_plan(plan):
            with pytest.warns(RuntimeWarning, match="fast path"):
                engine.sigmoid_fx(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a re-warn would raise
                engine.sigmoid_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("faults.fast_path_disabled") == 1
        assert counters.get("engine.fast.fallback_faults") == 2

    def test_injected_lut_falls_back_to_datapath(self):
        # A fault-study unit with its own (here: canonical, but *injected*)
        # LUT must not be served from the fingerprint-keyed table cache.
        config = NacuConfig.for_bits(8)
        injected = build_sigmoid_lut(config)
        engine = BatchEngine(Nacu(config, lut=injected), fast=True)
        collector = Collector()
        x = FxArray.from_float(np.array([0.5, -0.5]), engine.io_fmt)
        with use_collector(collector):
            out = engine.sigmoid_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("engine.fast.fallback_custom_lut") == 1
        assert counters.get("engine.sigmoid.fast_elements") is None
        reference = BatchEngine(Nacu(config), fast=False).sigmoid_fx(x)
        np.testing.assert_array_equal(out.raw, reference.raw)


class TestSoftmaxStageCounters:
    """The e^x gather and the fast divide are counted per stage: either
    can fall back on its own, and one blended ``fast_elements`` number
    would hide a divide stage quietly running bit-serial."""

    def test_both_stages_counted_separately(self, engines):
        _, fast = engines
        collector = Collector()
        x = _batch(fast.io_fmt, np.random.default_rng(8), shape=(11, 6))
        with use_collector(collector):
            fast.softmax_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("engine.softmax.fast_exp_elements") == 66
        assert counters.get("engine.softmax.fast_div_elements") == 66
        # The old blended counter is gone, not duplicated.
        assert "engine.softmax.fast_elements" not in counters

    def test_divide_stage_survives_an_exp_table_fallback(self):
        # A ceiling under the e^x table but over the restoring divider's
        # needs (none): only the exp stage falls back.
        from repro.compile import TableCache

        engine = BatchEngine.for_bits(
            12, fast=True, table_cache=TableCache(max_table_bytes=64)
        )
        collector = Collector()
        x = _batch(engine.io_fmt, np.random.default_rng(9), shape=(5, 4))
        with use_collector(collector):
            engine.softmax_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("engine.softmax.fast_exp_elements") is None
        assert counters.get("engine.softmax.fast_div_elements") == 20

    def test_table_served_divide_survives_an_exp_fallback(self):
        # The 12-bit e^x table is ~16 KiB, the reciprocal ~1 KiB: a
        # ceiling between them forces the exp stage back to the datapath
        # while the approx divide keeps its table — and the mixed result
        # stays raw-bit-identical to the all-datapath reference.
        from repro.compile import TableCache

        cache = TableCache(max_table_bytes=4096)
        engine = BatchEngine.for_bits(
            12, fast=True, table_cache=cache, use_approx_divider=True
        )
        collector = Collector()
        x = _batch(engine.io_fmt, np.random.default_rng(10), shape=(5, 4))
        with use_collector(collector):
            out = engine.softmax_fx(x)
        counters = collector.snapshot()["counters"]
        assert counters.get("engine.softmax.fast_exp_elements") is None
        assert counters.get("engine.softmax.fast_div_elements") == 20
        reference = BatchEngine.for_bits(
            12, fast=False, use_approx_divider=True
        ).softmax_fx(x)
        np.testing.assert_array_equal(out.raw, reference.raw)


def _axis_spellings(ndim):
    """Every way to name each softmax axis: -1, ndim-1, 0, -ndim, and a
    middle axis in both signs when there is one."""
    spellings = {-1, ndim - 1, 0, -ndim}
    if ndim > 2:
        spellings |= {1, 1 - ndim}
    return sorted(spellings)


AXIS_CASES = [
    (shape, axis)
    for shape in ((7,), (5, 6), (3, 4, 5))
    for axis in _axis_spellings(len(shape))
]


class TestSoftmaxAxes:
    """Softmax along any axis spelling, fast path against the datapath.

    The engine and the MAC fold skip ``np.moveaxis`` when the axis is
    already last, so each spelling is also checked against rows stacked
    by hand and run straight through the datapath."""

    @pytest.mark.parametrize("bits", (8, 12, 16))
    @pytest.mark.parametrize("shape,axis", AXIS_CASES)
    def test_fast_equals_datapath_byte_for_byte(self, bits, shape, axis):
        slow = BatchEngine.for_bits(bits, fast=False)
        fast = BatchEngine.for_bits(bits, fast=True)
        rng = np.random.default_rng(bits * 100 + len(shape))
        x = _batch(slow.io_fmt, rng, shape=shape)
        got = fast.softmax_fx(x, axis=axis)
        want = slow.softmax_fx(x, axis=axis)
        moved = np.moveaxis(x.raw, axis, -1)
        rows = FxArray(moved.reshape(-1, moved.shape[-1]), x.fmt)
        by_rows = np.moveaxis(
            slow.nacu.datapath.softmax(rows).raw.reshape(moved.shape),
            -1, axis,
        )
        for out in (got, want):
            assert out.fmt == x.fmt
            assert out.raw.shape == shape and out.raw.dtype == np.int64
        assert got.raw.tobytes() == want.raw.tobytes()
        assert got.raw.tobytes() == np.ascontiguousarray(by_rows).tobytes()
