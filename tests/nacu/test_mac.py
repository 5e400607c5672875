"""Tests for the MAC stage."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultSpec, Protection, use_plan
from repro.fixedpoint import FxArray, QFormat
from repro.nacu.mac import MacUnit


ACC = QFormat(8, 11)
IO = QFormat(4, 11)


def fx(v, fmt=IO):
    return FxArray.from_float(v, fmt)


class TestAccumulator:
    def test_read_before_reset_raises(self):
        with pytest.raises(ConfigError):
            MacUnit(ACC).value

    def test_accumulate_before_reset_raises(self):
        with pytest.raises(ConfigError):
            MacUnit(ACC).accumulate(fx(1.0), fx(1.0))

    def test_simple_dot_product(self):
        mac = MacUnit(ACC)
        mac.reset()
        for a, b in [(1.0, 2.0), (0.5, 4.0), (-1.0, 1.0)]:
            mac.accumulate(fx(a), fx(b))
        assert float(mac.value.to_float()) == 3.0

    def test_vectorised_accumulator(self):
        mac = MacUnit(ACC)
        mac.reset(shape=(3,))
        mac.accumulate(fx(np.array([1.0, 2.0, 3.0])), fx(np.array([2.0, 2.0, 2.0])))
        np.testing.assert_allclose(mac.value.to_float(), [2.0, 4.0, 6.0])

    def test_guard_bits_prevent_overflow(self):
        # 64 * (4*4) = 1024 overflows Q4.11 but fits... Q8.11 saturates at
        # 256; use values that stay inside: 32 * 7 = 224 < 256.
        mac = MacUnit(ACC)
        mac.reset()
        for _ in range(32):
            mac.accumulate(fx(3.5), fx(2.0))
        assert float(mac.value.to_float()) == 224.0

    def test_saturates_at_accumulator_limit(self):
        mac = MacUnit(ACC)
        mac.reset()
        for _ in range(40):
            mac.accumulate(fx(15.0), fx(15.0))
        assert float(mac.value.to_float()) == ACC.max_value

    def test_accumulate_sum(self):
        mac = MacUnit(ACC)
        mac.reset()
        values = FxArray.from_float(np.array([0.25, 0.5, 1.0, 0.125]), IO)
        total = mac.accumulate_sum(values)
        assert float(total.to_float()) == 1.875


class TestFoldFastPath:
    """``accumulate_sum``'s vectorised cumsum must mirror the bit-serial
    fold exactly and defer to it whenever a step could clip or inject."""

    def _plan(self, site="mac.acc", rate=1.0, seed=0):
        return FaultPlan(
            seed=seed,
            specs=(FaultSpec(site=site, rate=rate),),
            protection=Protection(),
        )

    def test_fast_fold_matches_serial_loop(self):
        rng = np.random.default_rng(2)
        values = fx(rng.uniform(0.0, 0.9, size=(6, 9)))
        fast, loop = MacUnit(ACC), MacUnit(ACC)
        fast.reset(shape=(6,))
        loop.reset(shape=(6,))
        out = fast.accumulate_sum(values, axis=-1)
        np.testing.assert_array_equal(out.raw, loop._fold_loop(values, -1).raw)

    @pytest.mark.parametrize("shape,axis", [
        ((9,), -1), ((9,), 0), ((6, 9), -1), ((6, 9), 1), ((9, 6), 0),
        ((9, 6), -2), ((3, 4, 9), 2), ((3, 9, 4), 1), ((3, 9, 4), -2),
        ((9, 3, 4), 0), ((9, 3, 4), -3),
    ])
    def test_every_axis_spelling_matches_serial_loop(self, shape, axis):
        rng = np.random.default_rng(len(shape) * 10 + axis)
        values = fx(rng.uniform(0.0, 0.9, size=shape))
        rest = np.delete(np.array(shape), axis).tolist()
        fast, loop = MacUnit(ACC), MacUnit(ACC)
        fast.reset(shape=tuple(rest))
        loop.reset(shape=tuple(rest))
        out = fast._fold_fast(values, axis, None)
        assert out is not None
        want = loop._fold_loop(values, axis).raw
        assert out.raw.shape == want.shape
        assert out.raw.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_scalar_fold_matches_and_stays_zero_dim(self):
        values = fx(np.array([0.25, 0.5, 1.0, 0.125]))
        fast, loop = MacUnit(ACC), MacUnit(ACC)
        fast.reset()
        loop.reset()
        out = fast.accumulate_sum(values)
        assert out.raw.ndim == 0
        assert int(out.raw) == int(loop._fold_loop(values, None).raw)

    def test_nonzero_accumulator_joins_the_prefixes(self):
        values = fx(np.array([0.5, 1.5, 2.0]))
        fast, loop = MacUnit(ACC), MacUnit(ACC)
        for mac in (fast, loop):
            mac.reset()
            mac.accumulate(fx(3.0), fx(1.0))
        out = fast.accumulate_sum(values)
        assert int(out.raw) == int(loop._fold_loop(values, None).raw)
        assert float(out.to_float()) == 7.0

    def test_saturating_prefix_falls_back_to_the_loop(self):
        # 40 * 15.0 overruns Q8.11's 256 limit mid-fold: the vectorised
        # path must refuse (order matters once a step clips) and the walk
        # must land exactly where step-by-step saturation lands.
        values = fx(np.full(40, 15.0))
        mac = MacUnit(ACC)
        mac.reset()
        assert mac._fold_fast(values, None, None) is None
        out = mac.accumulate_sum(values)
        loop = MacUnit(ACC)
        loop.reset()
        assert int(out.raw) == int(loop._fold_loop(values, None).raw)
        assert float(out.to_float()) == ACC.max_value

    def test_armed_fault_plan_falls_back_to_the_loop(self):
        # The mac.acc site perturbs every step's result register; the
        # cumsum collapse would skip all but the last. Arming the same
        # frozen plan twice replays identical streams.
        values = fx(np.array([0.25, 0.5, 0.75]))
        plan = self._plan()
        mac = MacUnit(ACC)
        mac.reset()
        with use_plan(plan):
            assert mac._fold_fast(values, None, None) is None
            folded = mac.accumulate_sum(values)
        loop = MacUnit(ACC)
        loop.reset()
        with use_plan(plan):
            reference = loop._fold_loop(values, None)
        assert int(folded.raw) == int(reference.raw)

    def test_empty_fold_keeps_the_accumulator(self):
        mac = MacUnit(ACC)
        mac.reset(shape=(4,))
        out = mac.accumulate_sum(FxArray(np.empty((4, 0), dtype=np.int64), IO),
                                 axis=-1)
        np.testing.assert_array_equal(out.raw, np.zeros(4, dtype=np.int64))


class TestMulAdd:
    def test_combinational_path(self):
        mac = MacUnit(ACC)
        out = mac.mul_add(fx(1.5), fx(2.0), fx(0.25), out_fmt=IO)
        assert float(out.to_float()) == 3.25
