"""The front end both serving tiers share: one contract, two executors.

``InferenceServer`` and ``WorkerPool`` inherit admission, mode parsing,
the self-clocked dispatcher and ``close()`` from one base class; every
test here runs once per tier, so a tier-specific override that drifts
from the shared contract fails under that tier's name.
"""

import threading

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import ServeError, ServerClosedError
from repro.fixedpoint import FxArray, QFormat
from repro.nacu.config import FunctionMode
from repro.serve import InferenceServer, WorkerPool
from repro.telemetry import Collector, SLOPolicy

N_BITS = 12
TIERS = ("server", "pool")
DISPATCHER_NAMES = {
    "server": "nacu-serve-dispatch", "pool": "nacu-pool-dispatch",
}
REPR_PREFIXES = {"server": "<InferenceServer ", "pool": "<WorkerPool "}

#: One in-domain input per servable mode (exp takes non-positive words).
INPUTS = {
    "sigmoid": np.array([-3.0, -0.25, 0.0, 1.5, 5.0]),
    "tanh": np.array([-2.0, -0.5, 0.0, 0.75, 3.0]),
    "exp": np.array([-6.0, -1.25, -0.5, 0.0]),
    "softmax": np.array([0.3, -1.0, 2.0, 0.0]),
}


def _build(tier, **kwargs):
    if tier == "server":
        return InferenceServer(n_bits=N_BITS, **kwargs)
    return WorkerPool(n_bits=N_BITS, workers=1, **kwargs)


def _parked(tier, **kwargs):
    """A tier whose below-ceiling groups wait ten seconds for company."""
    return _build(
        tier, max_delay_us=10_000_000, max_batch_elements=1 << 20, **kwargs
    )


@pytest.fixture(scope="module")
def reference():
    return BatchEngine.for_bits(N_BITS, fast=True)


@pytest.fixture(scope="module", params=TIERS)
def open_tier(request):
    """One running tier per module, for tests that leave it open."""
    tier = _build(request.param)
    yield tier
    tier.close()


class TestModeNames:
    @pytest.mark.parametrize("name", sorted(INPUTS))
    def test_name_and_enum_serve_the_same_bytes(self, open_tier, reference,
                                                name):
        x = INPUTS[name]
        by_name = open_tier.submit(x, mode=name).result(timeout=30)
        by_enum = open_tier.submit(x, mode=FunctionMode(name)).result(
            timeout=30
        )
        np.testing.assert_array_equal(by_name, by_enum)
        np.testing.assert_array_equal(by_name, getattr(reference, name)(x))

    def test_unservable_enum_is_refused_before_admission(self, open_tier,
                                                         reference):
        with pytest.raises(ServeError, match="not servable"):
            open_tier.submit(0.5, mode=FunctionMode.MAC)
        assert open_tier._batcher.pending_requests == 0
        assert open_tier.submit(0.5).result(timeout=30) == (
            reference.sigmoid(0.5)
        )


class TestRequestShapes:
    def test_softmax_axis_crosses_the_tier(self, open_tier, reference):
        x = np.arange(12, dtype=np.float64).reshape(3, 4) / 4.0 - 1.0
        out = open_tier.submit(x, mode="softmax", axis=0).result(timeout=30)
        np.testing.assert_array_equal(out, reference.softmax(x, axis=0))

    def test_io_fmt_gates_fx_requests(self, open_tier, reference):
        assert open_tier.io_fmt == reference.io_fmt
        x = FxArray.from_float(np.array([-1.0, 0.5]), open_tier.io_fmt)
        out = open_tier.submit(x, mode="tanh").result(timeout=30)
        assert isinstance(out, FxArray)
        np.testing.assert_array_equal(out.raw, reference.tanh_fx(x).raw)
        foreign = FxArray.from_float(np.array([0.5]), QFormat(2, 5))
        with pytest.raises(ServeError, match="does not match"):
            open_tier.submit(foreign, mode="tanh")


@pytest.mark.parametrize("tier", TIERS)
class TestLifecycle:
    def test_context_manager_closes_and_refuses(self, tier):
        with _build(tier) as served:
            assert not served.closed
        assert served.closed
        with pytest.raises(ServerClosedError):
            served.submit(0.5)

    def test_repr_reports_state(self, tier):
        served = _build(tier)
        try:
            assert repr(served).startswith(REPR_PREFIXES[tier] + "open,")
        finally:
            served.close()
        assert repr(served).startswith(REPR_PREFIXES[tier] + "closed,")

    def test_dispatcher_thread_is_named_and_joined(self, tier):
        name = DISPATCHER_NAMES[tier]
        before = {t for t in threading.enumerate() if t.name == name}
        served = _build(tier)
        try:
            (dispatcher,) = {
                t for t in threading.enumerate() if t.name == name
            } - before
            assert dispatcher.is_alive()
        finally:
            served.close()
        assert not dispatcher.is_alive()


@pytest.mark.parametrize("tier", TIERS)
class TestDropOnClose:
    def test_drop_error_names_the_tier(self, tier):
        served = _parked(tier)
        future = served.submit(1.0)
        served.close(flush=False)
        with pytest.raises(ServerClosedError,
                           match=f"^{tier} closed before dispatch$"):
            future.result(timeout=5)

    def test_dropped_requests_are_counted_and_burn_slo(self, tier):
        collector = Collector()
        served = _parked(
            tier, collector=collector,
            slo=SLOPolicy("t", latency_ms=10_000.0),
        )
        futures = [served.submit(x) for x in (-1.0, 0.0, 2.0)]
        served.close(flush=False)
        for future in futures:
            assert isinstance(future.exception(timeout=5), ServerClosedError)
        counters = collector.snapshot()["counters"]
        assert counters["serve.requests"] == 3
        assert counters["slo.t.bad"] == 3
        assert counters.get("slo.t.good", 0) == 0
