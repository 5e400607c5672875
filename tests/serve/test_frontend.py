"""AsyncFrontend: async submission, admission control, both backends."""

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import BackpressureError, RangeError, WorkerCrashError
from repro.serve import (
    AsyncFrontend,
    InferenceServer,
    ResponsePolicy,
    WorkerPool,
)
from repro.telemetry import Collector, SLOPolicy

N_BITS = 12


@pytest.fixture(scope="module")
def reference():
    return BatchEngine.for_bits(N_BITS, fast=True)


def _run(coroutine):
    return asyncio.run(coroutine)


class TestOverServer:
    def test_round_trip(self, reference):
        async def scenario():
            async with AsyncFrontend(InferenceServer(n_bits=N_BITS)) as fe:
                return await fe.submit(0.5)

        assert _run(scenario()) == reference.sigmoid(0.5)

    def test_gather_is_bit_identical(self, reference):
        x = np.linspace(-3, 3, 9)

        async def scenario():
            async with AsyncFrontend(InferenceServer(n_bits=N_BITS)) as fe:
                return await asyncio.gather(*[
                    fe.submit(x, mode="tanh") for _ in range(24)
                ])

        want = reference.tanh(x)
        for got in _run(scenario()):
            assert np.array_equal(got, want)

    def test_backend_errors_propagate(self):
        async def scenario():
            async with AsyncFrontend(InferenceServer(n_bits=N_BITS)) as fe:
                await fe.submit(1.0, mode="exp")  # positive input: domain

        with pytest.raises(RangeError):
            _run(scenario())


class TestOverPool:
    def test_round_trip_and_identity(self, reference):
        x = np.linspace(-4, 4, 7)

        async def scenario():
            async with AsyncFrontend(
                WorkerPool(n_bits=N_BITS, workers=2)
            ) as fe:
                return await asyncio.gather(*[
                    fe.submit(x, mode="sigmoid") for _ in range(16)
                ])

        want = reference.sigmoid(x)
        for got in _run(scenario()):
            assert np.array_equal(got, want)


class TestAdmissionControl:
    def test_sheds_above_max_inflight(self):
        async def scenario():
            async with AsyncFrontend(
                InferenceServer(n_bits=N_BITS), max_inflight=2
            ) as fe:
                tasks = [
                    asyncio.ensure_future(fe.submit(0.1)) for _ in range(6)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        results = _run(scenario())
        sheds = [r for r in results if isinstance(r, BackpressureError)]
        oks = [r for r in results if not isinstance(r, Exception)]
        assert len(sheds) == 4 and len(oks) == 2

    def test_shed_counts_and_burns_slo_budget(self):
        collector = Collector()

        async def scenario():
            backend = InferenceServer(
                n_bits=N_BITS, collector=collector, slo=SLOPolicy(),
            )
            async with AsyncFrontend(backend, max_inflight=1) as fe:
                tasks = [
                    asyncio.ensure_future(fe.submit(0.1)) for _ in range(3)
                ]
                await asyncio.gather(*tasks, return_exceptions=True)

        _run(scenario())
        counters = collector.snapshot()["counters"]
        assert counters["serve.frontend.shed"] == 2
        assert counters["slo.serve.shed"] == 2

    def test_inflight_returns_to_zero(self):
        async def scenario():
            async with AsyncFrontend(InferenceServer(n_bits=N_BITS)) as fe:
                await asyncio.gather(*[fe.submit(0.2) for _ in range(8)])
                return fe.inflight

        assert _run(scenario()) == 0

    def test_rejects_nonpositive_max_inflight(self):
        server = InferenceServer(n_bits=N_BITS)
        try:
            with pytest.raises(ValueError):
                AsyncFrontend(server, max_inflight=0)
        finally:
            server.close()


class _CrashyBackend:
    """Serving-contract fake: fails the first ``crashes`` submissions."""

    def __init__(self, crashes):
        self.crashes = crashes
        self.submissions = 0

    def submit(self, x, mode="sigmoid", axis=-1):
        import concurrent.futures

        future = concurrent.futures.Future()
        self.submissions += 1
        if self.submissions <= self.crashes:
            future.set_exception(WorkerCrashError("worker died mid-batch"))
        else:
            future.set_result(x)
        return future

    def close(self, flush=True):
        pass


class TestCrashRetry:
    def test_default_propagates_the_crash_unretried(self):
        backend = _CrashyBackend(crashes=1)

        async def scenario():
            async with AsyncFrontend(backend) as fe:
                return await fe.submit(0.5)

        with pytest.raises(WorkerCrashError):
            _run(scenario())
        assert backend.submissions == 1


def _signal(pid, signum):
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass  # already reaped


async def _holder(pool, collector):
    """The worker handle the one submitted batch was sent to."""
    deadline = time.monotonic() + 10
    while not collector.snapshot()["counters"].get("serve.pool.dispatched"):
        assert time.monotonic() < deadline, "the batch never shipped"
        await asyncio.sleep(0.005)
    holder = next(h for h in pool._handles if h.in_flight)
    with holder.send_lock:
        pass  # counted just before the send, under this lock: it is out
    return holder


class TestCrashRecovery:
    """A crashed worker's batch is retried by the pool, counted once.

    Every worker is stopped before the submit, so the batch is still
    unanswered when its worker is killed. The retry lands on the idle
    worker or, on a one-worker pool, on the replacement forked in its
    place. The front door awaits one request, which the pool counts as
    one request in one batch with one good SLO record.
    """

    @pytest.mark.parametrize("workers", (1, 2))
    def test_killed_holder_is_retried_and_counted_once(self, reference,
                                                       workers):
        collector = Collector()
        x = np.linspace(-3.0, 3.0, 7)

        async def scenario():
            pool = WorkerPool(
                n_bits=N_BITS, workers=workers, collector=collector,
                resilience=ResponsePolicy(max_retries=1),
                slo=SLOPolicy(latency_ms=10_000),
            )
            pids = pool.worker_pids()
            try:
                async with AsyncFrontend(pool) as fe:
                    for pid in pids:
                        os.kill(pid, signal.SIGSTOP)
                    task = asyncio.ensure_future(fe.submit(x, mode="tanh"))
                    holder = await _holder(pool, collector)
                    for pid in pids:
                        if pid != holder.process.pid:
                            os.kill(pid, signal.SIGCONT)
                    os.kill(holder.process.pid, signal.SIGKILL)
                    return await asyncio.wait_for(task, 30)
            finally:
                for pid in pids:
                    _signal(pid, signal.SIGCONT)

        got = _run(scenario())
        assert np.asarray(got).tobytes() == reference.tanh(x).tobytes()
        counters = collector.snapshot()["counters"]
        assert counters["serve.requests"] == 1
        assert counters["serve.batches"] == 1
        assert counters["slo.serve.good"] == 1
        assert "slo.serve.bad" not in counters
        assert counters["serve.resilience.retries"] == 1
        assert counters["serve.resilience.corrected"] == 1
        assert counters["serve.pool.worker_restarts"] == 1
