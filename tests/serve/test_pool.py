"""WorkerPool: lifecycle, bit identity, crash handling, exact telemetry."""

import os
import signal
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import (
    BackpressureError,
    ServeError,
    ServerClosedError,
    WorkerCrashError,
)
from repro.faults.models import FaultModel, FaultSpec
from repro.faults.plan import IO_OUT, FaultPlan, ledger_from_snapshot
from repro.fixedpoint import FxArray
from repro.serve import WorkerPool
from repro.telemetry import Collector, SLOPolicy, use_collector

N_BITS = 12
MODES = ("sigmoid", "tanh", "exp", "softmax")


@pytest.fixture(scope="module")
def reference():
    return BatchEngine.for_bits(N_BITS, fast=True)


def _mixed_requests(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mode = MODES[int(rng.integers(len(MODES)))]
        if mode == "softmax":
            x = rng.uniform(-4, 4, size=(int(rng.integers(2, 7)),))
        elif mode == "exp":
            x = rng.uniform(-8, 0, size=(int(rng.integers(1, 9)),))
        else:
            x = rng.uniform(-6, 6, size=(int(rng.integers(1, 9)),))
        out.append((mode, x))
    return out


class TestLifecycle:
    def test_scalar_round_trip(self, reference):
        with WorkerPool(n_bits=N_BITS, workers=2) as pool:
            assert pool.submit(0.5).result(timeout=30) == reference.sigmoid(0.5)

    def test_submit_after_close_raises(self):
        pool = WorkerPool(n_bits=N_BITS, workers=1)
        pool.close()
        with pytest.raises(ServerClosedError):
            pool.submit(0.5)

    def test_close_is_idempotent_and_flushes_pending(self, reference):
        pool = WorkerPool(
            n_bits=N_BITS, workers=2,
            max_delay_us=10_000_000, max_batch_elements=1 << 20,
        )
        futures = [pool.submit(x) for x in (-1.0, 0.0, 2.0)]
        pool.close()
        pool.close()
        for future, x in zip(futures, (-1.0, 0.0, 2.0)):
            assert future.result(timeout=5) == reference.sigmoid(x)

    def test_close_without_flush_fails_pending_futures(self):
        pool = WorkerPool(
            n_bits=N_BITS, workers=1,
            max_delay_us=10_000_000, max_batch_elements=1 << 20,
        )
        future = pool.submit(1.0)
        pool.close(flush=False)
        with pytest.raises(ServerClosedError):
            future.result(timeout=5)

    def test_workers_exit_after_close(self):
        pool = WorkerPool(n_bits=N_BITS, workers=2)
        pool.submit(0.5).result(timeout=30)
        pids = pool.worker_pids()
        assert len(pids) == 2
        pool.close()
        assert pool.alive_workers() == 0

    def test_rejects_config_plus_bits(self):
        from repro.nacu.config import NacuConfig
        with pytest.raises(ServeError):
            WorkerPool(config=NacuConfig.for_bits(N_BITS), n_bits=N_BITS)

    def test_rejects_zero_workers(self):
        with pytest.raises(ServeError):
            WorkerPool(n_bits=N_BITS, workers=0)

    def test_unknown_mode(self):
        with WorkerPool(n_bits=N_BITS, workers=1) as pool:
            with pytest.raises(ServeError):
                pool.submit(0.5, mode="mac")


class TestIdleDispatch:
    def test_a_reply_to_an_empty_batcher_leaves_the_dispatcher_asleep(
        self, reference
    ):
        # A lone request on an idle pool ships from submit(): one
        # take_ready call, and the dispatcher is never woken. The reply
        # that empties the worker has no group to release, so it must
        # not wake the gate either.
        requests = 200
        with WorkerPool(n_bits=N_BITS, workers=1) as pool:
            pool.submit(0.5).result(timeout=30)
            calls = []
            take_ready = pool._batcher.take_ready

            def counted(*args, **kwargs):
                calls.append(None)
                return take_ready(*args, **kwargs)

            pool._batcher.take_ready = counted
            xs = np.random.default_rng(5).uniform(-6, 6, size=requests)
            for x in xs:
                assert pool.submit(x).result(timeout=30) == reference.sigmoid(x)
            runs = len(calls)
        assert runs == requests


class TestBitIdentity:
    def test_mixed_stream_identical_to_serial_engine(self, reference):
        requests = _mixed_requests(128, seed=5)
        with WorkerPool(n_bits=N_BITS, workers=2) as pool:
            futures = [
                (mode, x, pool.submit(x, mode=mode)) for mode, x in requests
            ]
            for mode, x, future in futures:
                got = future.result(timeout=30)
                want = getattr(reference, mode)(x)
                assert np.array_equal(np.asarray(got), np.asarray(want)), mode

    def test_fx_in_fx_out(self, reference):
        fx = FxArray.from_float(
            np.linspace(-3, 3, 11), reference.io_fmt
        )
        with WorkerPool(n_bits=N_BITS, workers=2) as pool:
            got = pool.submit(fx, mode="tanh").result(timeout=30)
        assert isinstance(got, FxArray)
        assert np.array_equal(got.raw, reference.tanh_fx(fx).raw)

    def test_unshared_fallback_still_identical(self, reference):
        # share_tables=False: each worker compiles privately; responses
        # must not change by a bit.
        with WorkerPool(
            n_bits=N_BITS, workers=2, share_tables=False
        ) as pool:
            x = np.linspace(-4, 4, 9)
            got = pool.submit(x, mode="sigmoid").result(timeout=30)
        assert np.array_equal(got, reference.sigmoid(x))

    def test_datapath_pool_identical(self, reference):
        # fast=False serves through the bit-accurate datapath.
        with WorkerPool(n_bits=N_BITS, workers=1, fast=False) as pool:
            x = np.linspace(-2, 2, 5)
            got = pool.submit(x, mode="tanh").result(timeout=60)
        assert np.array_equal(got, reference.tanh(x))


class TestBackpressure:
    def test_sheds_when_pending_pool_full(self):
        pool = WorkerPool(
            n_bits=N_BITS, workers=1,
            max_delay_us=10_000_000, max_batch_elements=1 << 20,
            max_pending_elements=8,
        )
        try:
            pool.submit(np.zeros(8))          # fills the pending pool
            with pytest.raises(BackpressureError):
                pool.submit(np.zeros(4))
        finally:
            pool.close()

    def test_shed_is_counted(self):
        collector = Collector()
        pool = WorkerPool(
            n_bits=N_BITS, workers=1, collector=collector,
            max_delay_us=10_000_000, max_batch_elements=1 << 20,
            max_pending_elements=8, slo=SLOPolicy(),
        )
        try:
            pool.submit(np.zeros(8))
            with pytest.raises(BackpressureError):
                pool.submit(np.zeros(4))
        finally:
            pool.close()
        counters = collector.snapshot()["counters"]
        assert counters["serve.shed"] == 1
        assert counters["slo.serve.shed"] == 1


class TestCrashHandling:
    def test_inflight_requests_fail_loudly_on_worker_death(self):
        pool = WorkerPool(
            n_bits=N_BITS, workers=1, restart=False,
        )
        try:
            pool.submit(0.5).result(timeout=30)   # engine is warm
            futures = [
                pool.submit(np.linspace(-4, 4, 100_000)) for _ in range(4)
            ]
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            done, not_done = wait(futures, timeout=30)
            assert not not_done, "futures hung after worker death"
            kinds = {
                type(f.exception()).__name__ if f.exception() else "ok"
                for f in done
            }
            # Depending on where the kill lands, requests either resolved
            # before the death or failed loudly — never silently hang.
            assert kinds <= {"ok", "WorkerCrashError"}, kinds
        finally:
            pool.close()

    def test_restart_replaces_dead_worker_and_keeps_serving(self, reference):
        collector = Collector()
        pool = WorkerPool(
            n_bits=N_BITS, workers=2, restart=True, collector=collector,
        )
        try:
            pool.submit(0.5).result(timeout=30)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15
            while (
                victim in pool.worker_pids() or pool.alive_workers() < 2
            ) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.alive_workers() == 2
            assert victim not in pool.worker_pids()
            x = np.linspace(-2, 2, 7)
            got = pool.submit(x, mode="tanh").result(timeout=30)
            assert np.array_equal(got, reference.tanh(x))
        finally:
            pool.close()
        counters = collector.snapshot()["counters"]
        assert counters["serve.pool.worker_deaths"] >= 1
        assert counters["serve.pool.worker_restarts"] >= 1

    def test_no_restart_when_disabled(self):
        pool = WorkerPool(n_bits=N_BITS, workers=1, restart=False)
        try:
            pool.submit(0.5).result(timeout=30)
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while pool.alive_workers() > 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool.alive_workers() == 0
            # With no live workers, dispatched batches fail loudly
            # instead of queueing forever.
            future = pool.submit(0.25)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=30)
        finally:
            pool.close()


class TestTelemetry:
    def test_merged_snapshot_accounts_for_every_request(self, reference):
        collector = Collector()
        requests = _mixed_requests(96, seed=11)
        pool = WorkerPool(
            n_bits=N_BITS, workers=2, collector=collector,
            slo=SLOPolicy("serve", latency_ms=60_000.0),
        )
        try:
            futures = [pool.submit(x, mode=m) for m, x in requests]
            for future in futures:
                future.result(timeout=30)
            live = pool.telemetry_snapshot()
        finally:
            pool.close()
        final = pool.telemetry_snapshot()

        for snapshot in (live, final):
            counters = snapshot["counters"]
            assert counters["serve.requests"] == len(requests)
            assert counters["serve.pool.worker_started"] == 2
            slo_total = (
                counters.get("slo.serve.good", 0)
                + counters.get("slo.serve.bad", 0)
            )
            assert slo_total == len(requests)
        per_mode = {
            mode: sum(1 for m, _ in requests if m == mode) for mode in MODES
        }
        for mode, count in per_mode.items():
            entry = final["quantiles"][f"serve.latency.{mode}"]
            assert entry["count"] == count

    def test_telemetry_off_workers_count_only_their_own(self):
        # No collector anywhere: the workers' engines run their
        # telemetry-off path, and the private collector keeps only the
        # worker's own serve.pool.* counters.
        with use_collector(None):
            pool = WorkerPool(n_bits=N_BITS, workers=1)
            try:
                pool.submit(0.5).result(timeout=30)
                pool.submit([0.5, -1.0, 2.0], mode="softmax").result(
                    timeout=30
                )
            finally:
                pool.close()
        (snapshot,) = pool.worker_snapshots()
        counters = snapshot["counters"]
        assert counters["serve.pool.worker_started"] == 1
        assert counters["serve.pool.ipc_bytes"] > 0
        assert [
            name for name in counters
            if name.startswith(("engine.", "compile.", "lut."))
        ] == []

    def test_fault_plan_pool_reports_injections_without_a_collector(self):
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT, rate=1.0,
                      bit=0),
        ))
        with use_collector(None):
            pool = WorkerPool(n_bits=N_BITS, workers=1, fault_plan=plan)
            try:
                pool.submit([0.25, -0.5]).result(timeout=30)
            finally:
                pool.close()
        ledger = ledger_from_snapshot(pool.telemetry_snapshot())
        assert ledger["injected"] > 0
        (snapshot,) = pool.worker_snapshots()
        assert snapshot["counters"]["serve.pool.worker_armed"] == 1

    def test_worker_snapshots_survive_close(self):
        pool = WorkerPool(n_bits=N_BITS, workers=2)
        pool.submit(0.5).result(timeout=30)
        pool.close()
        snapshots = pool.worker_snapshots()
        assert len(snapshots) == 2
        for snapshot in snapshots:
            assert snapshot["counters"]["serve.pool.worker_started"] == 1


class TestFailedStart:
    def test_a_start_that_fails_part_way_leaks_nothing(self, monkeypatch):
        import errno
        import multiprocessing

        from repro.serve.store import SlotRing

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        before = segments()
        children = {p.pid for p in multiprocessing.active_children()}
        create = SlotRing.create.__func__
        calls = []

        def third_call_fails(cls, *args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return create(cls, *args, **kwargs)

        monkeypatch.setattr(SlotRing, "create", classmethod(third_call_fails))
        with pytest.raises(OSError):
            WorkerPool(n_bits=N_BITS, workers=2)
        # Worker 0 had started: it is reaped, and every ring and the
        # table store are unlinked.
        assert len(calls) == 3
        assert segments() - before == set()
        alive = {p.pid for p in multiprocessing.active_children()}
        assert alive - children == set()
