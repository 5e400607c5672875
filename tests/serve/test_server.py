"""InferenceServer: lifecycle, concurrency, backpressure, bit identity."""

import threading
import time

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import BackpressureError, ServeError, ServerClosedError
from repro.fixedpoint import FxArray
from repro.nacu.config import NacuConfig
from repro.serve import InferenceServer
from repro.telemetry import Collector, use_collector

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
        with InferenceServer(n_bits=N_BITS) as server:
            assert server.submit(0.5).result() == reference.sigmoid(0.5)

    def test_submit_after_close_raises(self):
        server = InferenceServer(n_bits=N_BITS)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(0.5)

    def test_close_is_idempotent_and_flushes_pending(self, reference):
        # A huge deadline parks requests until close() force-flushes.
        server = InferenceServer(
            n_bits=N_BITS, max_delay_us=10_000_000, max_batch_elements=1 << 20
        )
        futures = [server.submit(x) for x in (-1.0, 0.0, 2.0)]
        server.close()
        server.close()
        for future, x in zip(futures, (-1.0, 0.0, 2.0)):
            assert future.result() == reference.sigmoid(x)

    def test_close_without_flush_fails_pending_futures(self):
        server = InferenceServer(
            n_bits=N_BITS, max_delay_us=10_000_000, max_batch_elements=1 << 20
        )
        future = server.submit(1.0)
        server.close(flush=False)
        with pytest.raises(ServerClosedError):
            future.result(timeout=5)

    def test_rejects_engine_plus_config(self, reference):
        with pytest.raises(ServeError):
            InferenceServer(reference, n_bits=N_BITS)

    def test_rejects_engine_plus_table_source(self, reference):
        # The source only reaches an engine the server builds; a given
        # engine would quietly compile private tables instead.
        from repro.compile import TableCache
        from repro.serve import AttachedTableSource, SharedTableStore

        with SharedTableStore() as store:
            store.publish(NacuConfig.for_bits(N_BITS), cache=TableCache())
            with AttachedTableSource(store.manifest()) as source:
                with pytest.raises(ServeError):
                    InferenceServer(reference, table_source=source)

    def test_unknown_mode(self):
        with InferenceServer(n_bits=N_BITS) as server:
            with pytest.raises(ServeError):
                server.submit(0.5, mode="mac")


class TestConcurrentServing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_64_concurrent_mixed_requests_bit_equal(self, reference, workers):
        requests = _mixed_requests(64)
        collector = Collector()
        results = {}
        with use_collector(collector):
            with InferenceServer(
                n_bits=N_BITS, workers=workers, max_delay_us=500.0
            ) as server:
                def client(offset):
                    for i in range(offset, len(requests), 4):
                        mode, x = requests[i]
                        results[i] = server.submit(x, mode=mode)

                threads = [
                    threading.Thread(target=client, args=(k,)) for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                resolved = {i: f.result(timeout=30) for i, f in results.items()}

        for i, (mode, x) in enumerate(requests):
            np.testing.assert_array_equal(
                resolved[i], getattr(reference, mode)(x), err_msg=f"{i}:{mode}"
            )
        counters = collector.snapshot()["counters"]
        assert counters["serve.requests"] == 64
        assert 1 <= counters["serve.batches"] <= 64
        assert "serve.batch_fill" in collector.snapshot()["histograms"]
        assert "serve.queue_wait" in collector.snapshot()["timers"]

    def test_slow_path_serving_is_also_bit_identical(self):
        # fast=False coalesces through the structural datapath — the
        # batcher's identity guarantee must not depend on the table path.
        slow_reference = BatchEngine.for_bits(8, fast=False)
        with InferenceServer(n_bits=8, fast=False, max_delay_us=300.0) as server:
            futures = [
                server.submit(x, mode=mode)
                for mode, x in _mixed_requests(16, seed=9)
            ]
            resolved = [f.result(timeout=30) for f in futures]
        for (mode, x), got in zip(_mixed_requests(16, seed=9), resolved):
            np.testing.assert_array_equal(got, getattr(slow_reference, mode)(x))

    def test_fx_requests_resolve_to_fx(self, reference):
        with InferenceServer(n_bits=N_BITS) as server:
            fx = FxArray.from_float(np.array([0.5, -0.5]), reference.io_fmt)
            out = server.submit(fx, mode="tanh").result(timeout=30)
        assert isinstance(out, FxArray)
        np.testing.assert_array_equal(out.raw, reference.tanh_fx(fx).raw)


class TestBackpressure:
    def test_overflow_is_shed_with_distinct_error_and_counted(self):
        collector = Collector()
        with use_collector(collector):
            # Deadline and batch ceiling parked high: nothing drains
            # until close, so the 4-element pool fills deterministically.
            server = InferenceServer(
                n_bits=N_BITS, max_delay_us=10_000_000,
                max_batch_elements=1 << 20, max_pending_elements=4,
            )
            admitted = [server.submit(0.1) for _ in range(4)]
            with pytest.raises(BackpressureError):
                server.submit(0.2)
            server.close()
        # Shed requests are rejected loudly; admitted ones still served.
        for future in admitted:
            assert future.result(timeout=5) is not None
        counters = collector.snapshot()["counters"]
        assert counters["serve.shed"] == 1
        assert counters["serve.requests"] == 4

    def test_served_after_shed_recovers(self):
        server = InferenceServer(
            n_bits=N_BITS, max_delay_us=200.0, max_pending_elements=4
        )
        try:
            futures, shed = [], 0
            for _ in range(200):
                try:
                    futures.append(server.submit(0.3))
                except BackpressureError:
                    shed += 1
            for future in futures:
                future.result(timeout=30)
        finally:
            server.close()
        assert len(futures) + shed == 200


class TestSharedStoreServing:
    def test_server_over_attached_store_matches_private(self, reference):
        from repro.compile import TableCache
        from repro.serve import AttachedTableSource, SharedTableStore

        config = NacuConfig.for_bits(N_BITS)
        with SharedTableStore() as store:
            store.publish(config, cache=TableCache())
            with AttachedTableSource(store.manifest()) as source:
                collector = Collector()
                with use_collector(collector):
                    with InferenceServer(
                        config=config, table_source=source
                    ) as server:
                        futures = [
                            server.submit(x, mode=mode)
                            for mode, x in _mixed_requests(32, seed=4)
                        ]
                        resolved = [f.result(timeout=30) for f in futures]
                for (mode, x), got in zip(_mixed_requests(32, seed=4), resolved):
                    np.testing.assert_array_equal(got, getattr(reference, mode)(x))
                counters = collector.snapshot()["counters"]
                assert counters.get("compile.attach_hits", 0) >= 1
                assert counters.get("compile.tables_compiled") is None


class TestObservability:
    def test_sampled_traces_retire_through_the_server(self):
        from repro.telemetry import Tracer

        tracer = Tracer(sample_every=2, capacity=64)
        collector = Collector()
        with use_collector(collector):
            with InferenceServer(n_bits=8, tracer=tracer) as server:
                futures = [
                    server.submit(0.25, mode="sigmoid") for _ in range(8)
                ]
                for future in futures:
                    future.result()
        traces = tracer.traces()
        assert len(traces) == 4  # every 2nd request
        for trace in traces:
            assert trace.status == "ok"
            assert trace.mode == "sigmoid"
            assert trace.latency_ns > 0
            assert trace.queue_wait_ns >= 0
            assert trace.batch_fill >= 1
            assert any(
                name.startswith("engine.") for name, _, _ in trace.stages
            )
        snap = collector.snapshot()
        assert snap["counters"]["serve.traced"] == 4
        assert "serve.latency.sigmoid" in snap["quantiles"]
        assert snap["quantiles"]["serve.latency.sigmoid"]["count"] == 8

    def test_registry_tracer_reaches_running_server(self):
        from repro.telemetry import Tracer, use_tracer

        tracer = Tracer(sample_every=1)
        with InferenceServer(n_bits=8) as server:
            with use_tracer(tracer):
                server.submit(0.5, mode="tanh").result()
        assert len(tracer.traces()) == 1

    def test_softmax_traces_carry_datapath_stages(self):
        from repro.telemetry import Tracer

        tracer = Tracer(sample_every=1)
        with InferenceServer(n_bits=8, tracer=tracer) as server:
            server.submit(np.array([0.1, 0.4, -0.2]), mode="softmax").result()
        (trace,) = tracer.traces()
        names = {name for name, _, _ in trace.stages}
        assert {"softmax.normalise", "softmax.exp",
                "softmax.fold", "softmax.divide"} <= names

    def test_slo_accounting_over_served_traffic(self):
        from repro.telemetry import SLOPolicy, slo_summary

        collector = Collector()
        with use_collector(collector):
            with InferenceServer(
                n_bits=8, slo=SLOPolicy("t", latency_ms=10_000.0)
            ) as server:
                for _ in range(6):
                    server.submit(0.5, mode="sigmoid").result()
        summary = slo_summary(
            collector.snapshot(), SLOPolicy("t", latency_ms=10_000.0)
        )
        assert summary["total"] == 6
        assert summary["good"] == 6
        assert summary["violated"] is False

    def test_shed_burns_slo_budget(self):
        from repro.telemetry import SLOPolicy

        collector = Collector()
        with use_collector(collector):
            server = InferenceServer(
                n_bits=8, max_pending_elements=4,
                max_delay_us=200_000.0,
                slo=SLOPolicy("t", latency_ms=10_000.0),
            )
            try:
                with pytest.raises(BackpressureError):
                    for _ in range(64):
                        server.submit(np.zeros(3), mode="sigmoid")
            finally:
                server.close()
        counters = collector.snapshot()["counters"]
        assert counters["slo.t.shed"] == counters["serve.shed"] >= 1

    def test_untraced_serving_has_no_trace_cost_counters(self):
        collector = Collector()
        with use_collector(collector):
            with InferenceServer(n_bits=8) as server:
                server.submit(0.5, mode="sigmoid").result()
        counters = collector.snapshot()["counters"]
        assert "serve.traced" not in counters


class TestCloseRace:
    """close(flush=True) racing concurrent submit() threads.

    The single-thread flush path is covered in TestLifecycle; these
    drive the race the micro-batcher's owner-serialised take_ready /
    offer protocol has to survive: every future a submit() call
    *returned* must resolve (bit-identically) even when close() lands
    mid-storm, and a submit() that lost the race must raise
    ServerClosedError — never hang, never silently drop.
    """

    N_CLIENTS = 4
    PER_CLIENT = 64

    def _storm(self, make_backend, reference):
        backend = make_backend()
        admitted = [[] for _ in range(self.N_CLIENTS)]
        rejected = []
        barrier = threading.Barrier(self.N_CLIENTS + 1)

        def client(out):
            rng = np.random.default_rng(id(out) % (1 << 32))
            barrier.wait()
            for _ in range(self.PER_CLIENT):
                x = rng.uniform(-4, 4, size=3)
                try:
                    out.append((x, backend.submit(x, mode="tanh")))
                except ServerClosedError:
                    rejected.append(1)
                    return

        threads = [
            threading.Thread(target=client, args=(out,), daemon=True)
            for out in admitted
        ]
        for thread in threads:
            thread.start()
        barrier.wait()          # all clients submitting right now
        time.sleep(0.002)       # let some submits win before close races
        backend.close(flush=True)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "client thread hung"

        checked = 0
        for out in admitted:
            for x, future in out:
                # Admitted before close won the race: must resolve, and
                # to exactly the serial engine's bytes.
                got = future.result(timeout=10)
                assert np.array_equal(got, reference.tanh(x))
                checked += 1
        return checked, len(rejected)

    def test_server_flushes_every_admitted_future(self, reference):
        checked, _ = self._storm(
            lambda: InferenceServer(n_bits=N_BITS, max_delay_us=50.0),
            reference,
        )
        assert checked >= 1  # close landed mid-storm; the admitted side
        # of the race is never dropped (rejects raised loudly instead).

    def test_pool_flushes_every_admitted_future(self, reference):
        from repro.serve import WorkerPool

        checked, _ = self._storm(
            lambda: WorkerPool(
                n_bits=N_BITS, workers=2, max_delay_us=50.0
            ),
            reference,
        )
        assert checked >= 1

    def test_repeated_close_race_never_hangs(self, reference):
        # The race is probabilistic; iterate it to actually hit the
        # close-lands-between-offer-and-flush windows.
        for _ in range(5):
            self._storm(
                lambda: InferenceServer(n_bits=N_BITS, max_delay_us=20.0),
                reference,
            )
