"""Self-clocked dispatch: groups wait for a busy executor, never strand.

A group below the batch ceiling leaves the micro-batcher as soon as an
executor could run it — the server's own dispatcher (``workers=1``), a
free thread of its pool (``workers>1``), or a pool worker with nothing
in flight — and keeps filling while every executor is busy. These tests
make "busy" deterministic: a ``SIGSTOP``ped pool worker, or server
threads parked inside an engine kernel on a ``threading.Event``. Every
path that frees or retires an executor must re-open the gate, or held
requests would wait for the next ``submit()`` or ``close()``.
"""

import os
import signal
import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import (
    ResponseTimeoutError,
    ResponseVerificationError,
    ServerClosedError,
    WorkerCrashError,
)
from repro.faults.models import FaultModel, FaultSpec
from repro.faults.plan import IO_OUT, FaultPlan
from repro.serve import InferenceServer, ResponsePolicy, WorkerPool
from repro.telemetry import Collector

N_BITS = 12
#: Three same-mode requests that coalesce only if they wait together.
HELD = [np.linspace(-2.0, 2.0, 3) + 0.25 * k for k in range(3)]


@pytest.fixture(scope="module")
def reference():
    return BatchEngine.for_bits(N_BITS, fast=True)


def _counter(collector, name):
    return collector.snapshot()["counters"].get(name, 0)


def _wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def _signal(pid, signum):
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass  # already reaped


def _busy_pool(pool, collector, pid, mode="tanh"):
    """Stop the only worker with one batch in flight; hold ``HELD``.

    Returns ``(first, held)``: the first request is dispatched to the
    stopped worker, the three below-ceiling ones are submitted 1 ms
    apart behind it. The caller sends ``SIGCONT`` in a ``finally``.
    """
    os.kill(pid, signal.SIGSTOP)
    first = pool.submit(np.array([0.5, -0.5]), mode=mode)
    _wait_for(lambda: _counter(collector, "serve.pool.dispatched") == 1,
              what="the first batch to reach the stopped worker")
    held = []
    for x in HELD:
        time.sleep(0.001)
        held.append(pool.submit(x, mode=mode))
    return first, held


class TestPoolGate:
    def test_groups_wait_for_a_busy_worker(self, reference):
        collector = Collector()
        pool = WorkerPool(n_bits=N_BITS, workers=1, collector=collector)
        pid = pool.worker_pids()[0]
        try:
            try:
                first, held = _busy_pool(pool, collector, pid)
                time.sleep(0.1)
                # Nothing below the ceiling ships to a busy worker.
                assert _counter(collector, "serve.pool.dispatched") == 1
                assert not any(future.done() for future in held)
            finally:
                _signal(pid, signal.SIGCONT)
            got = first.result(timeout=30)
            assert np.array_equal(got, reference.tanh(np.array([0.5, -0.5])))
            for x, future in zip(HELD, held):
                assert np.array_equal(future.result(timeout=30),
                                      reference.tanh(x))
        finally:
            pool.close()
        counters = collector.snapshot()["counters"]
        assert counters["serve.pool.dispatched"] == 2
        assert counters["serve.batches"] == 2

    def test_a_full_group_ships_while_the_worker_is_busy(self, reference):
        collector = Collector()
        # The three held requests hold 9 elements: the last one fills
        # the group to the ceiling.
        pool = WorkerPool(n_bits=N_BITS, workers=1, collector=collector,
                          max_batch_elements=9)
        pid = pool.worker_pids()[0]
        try:
            try:
                first, held = _busy_pool(pool, collector, pid)
                _wait_for(
                    lambda: _counter(collector, "serve.pool.dispatched") == 2,
                    what="the full group to ship",
                )
            finally:
                _signal(pid, signal.SIGCONT)
            for x, future in zip(HELD, held):
                assert np.array_equal(future.result(timeout=30),
                                      reference.tanh(x))
            first.result(timeout=30)
        finally:
            pool.close()
        assert collector.snapshot()["counters"]["serve.batches"] == 2


class TestServerGate:
    def test_groups_wait_for_a_free_thread(self, reference):
        engine = BatchEngine.for_bits(N_BITS, fast=True)
        release = threading.Event()
        entered = threading.Semaphore(0)
        tanh_fx = engine.tanh_fx

        def parked_tanh(x):
            entered.release()
            release.wait(30)
            return tanh_fx(x)

        engine.tanh_fx = parked_tanh
        collector = Collector()
        server = InferenceServer(engine=engine, workers=2,
                                 collector=collector)
        try:
            parked = []
            for x in (-1.0, 1.0):
                parked.append(server.submit(x, mode="tanh"))
                assert entered.acquire(timeout=10), "thread never started"
            held = []
            for x in HELD:
                time.sleep(0.001)
                held.append(server.submit(x, mode="sigmoid"))
            time.sleep(0.05)
            assert not any(future.done() for future in held)
            release.set()
            for x, future in zip(HELD, held):
                assert np.array_equal(future.result(timeout=30),
                                      reference.sigmoid(x))
            for x, future in zip((-1.0, 1.0), parked):
                assert future.result(timeout=30) == reference.tanh(x)
        finally:
            release.set()
            server.close()
        # Two parked tanh batches, then the three held requests as one.
        assert collector.snapshot()["counters"]["serve.batches"] == 3

    def test_busy_count_survives_a_thread_storm(self, reference):
        # More pool threads and clients than cores, switching every
        # microsecond: a lost update of the busy count would strand
        # requests (a timeout here) or leave the count off zero.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server = InferenceServer(n_bits=N_BITS, workers=4)
            rng = np.random.default_rng(3)
            inputs = [rng.uniform(-4, 4, size=int(rng.integers(1, 6)))
                      for _ in range(400)]
            futures = [None] * len(inputs)

            def client(k):
                for i in range(k, len(inputs), 4):
                    futures[i] = server.submit(inputs[i], mode="tanh")

            clients = [threading.Thread(target=client, args=(k,))
                       for k in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive(), "client thread hung"
            for x, future in zip(inputs, futures):
                assert np.array_equal(future.result(timeout=30),
                                      reference.tanh(x))
            server.close()
            assert server._busy == 0
        finally:
            sys.setswitchinterval(previous)


class TestNoStrandedRequest:
    def test_crash_without_restart_fails_held_requests(self):
        collector = Collector()
        pool = WorkerPool(n_bits=N_BITS, workers=1, restart=False,
                          collector=collector)
        pid = pool.worker_pids()[0]
        try:
            first, held = _busy_pool(pool, collector, pid)
            os.kill(pid, signal.SIGKILL)
            futures = [first] + held
            _, not_done = wait(futures, timeout=10)
            assert not not_done, "held requests stranded behind a dead worker"
            for future in futures:
                assert isinstance(future.exception(), WorkerCrashError)
        finally:
            _signal(pid, signal.SIGCONT)
            pool.close()

    def test_quarantine_fails_held_requests(self):
        # Every output word gets its MSB flipped, so the first reply
        # fails verification and quarantines the only worker. A full
        # exp group ships in behind it and keeps the worker busy past
        # the quarantine, so the held group cannot leave before it.
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT,
                      rate=1.0, bit=N_BITS - 1),
        ))
        policy = ResponsePolicy(max_retries=0, quarantine_after=1)
        collector = Collector()
        pool = WorkerPool(n_bits=N_BITS, workers=1, restart=False,
                          collector=collector, resilience=policy,
                          fault_plan=plan, max_batch_elements=16)
        pid = pool.worker_pids()[0]
        try:
            try:
                first, held = _busy_pool(pool, collector, pid,
                                         mode="sigmoid")
                full = pool.submit(np.linspace(-2.0, 0.0, 16), mode="exp")
                _wait_for(
                    lambda: _counter(collector, "serve.pool.dispatched") == 2,
                    what="the full group to ship",
                )
                time.sleep(0.05)
                assert not any(future.done() for future in held)
            finally:
                _signal(pid, signal.SIGCONT)
            _, not_done = wait([first, full] + held, timeout=10)
            assert not not_done, "held requests stranded by a quarantine"
            for future in (first, full):
                assert isinstance(future.exception(),
                                  ResponseVerificationError)
            for future in held:
                assert isinstance(future.exception(), WorkerCrashError)
        finally:
            pool.close()
        assert _counter(collector, "serve.resilience.quarantines") == 1

    def test_a_timed_out_flight_frees_its_worker(self):
        # The worker never answers, so only the policy's timeout can
        # settle the first flight — and it must release the held ones
        # to time out in turn rather than wait for the worker.
        policy = ResponsePolicy(timeout_s=0.2)
        collector = Collector()
        pool = WorkerPool(n_bits=N_BITS, workers=1, collector=collector,
                          resilience=policy)
        pid = pool.worker_pids()[0]
        try:
            try:
                first, held = _busy_pool(pool, collector, pid)
                futures = [first] + held
                _, not_done = wait(futures, timeout=10)
                assert not not_done, "held requests stranded by a straggler"
                for future in futures:
                    assert isinstance(future.exception(),
                                      ResponseTimeoutError)
            finally:
                _signal(pid, signal.SIGCONT)
        finally:
            pool.close()

    @pytest.mark.parametrize("flush", [False, True],
                             ids=["no_flush", "flush"])
    def test_close_settles_held_requests(self, reference, flush):
        collector = Collector()
        pool = WorkerPool(n_bits=N_BITS, workers=1, collector=collector)
        pid = pool.worker_pids()[0]
        closer = threading.Thread(target=pool.close, kwargs={"flush": flush})
        try:
            try:
                first, held = _busy_pool(pool, collector, pid)
                closer.start()
                if not flush:
                    # Dropped at once, while the worker is still stopped.
                    _, not_done = wait(held, timeout=10)
                    assert not not_done
                    for future in held:
                        with pytest.raises(ServerClosedError):
                            future.result(timeout=0)
            finally:
                _signal(pid, signal.SIGCONT)
            closer.join(timeout=30)
            assert not closer.is_alive(), "close() hung"
            # Batches already in flight complete either way.
            first.result(timeout=0)
            if flush:
                for x, future in zip(HELD, held):
                    assert np.array_equal(future.result(timeout=0),
                                          reference.tanh(x))
        finally:
            pool.close()


def _sender_threads(monkeypatch):
    """Record which thread sends each batch doorbell or payload."""
    from multiprocessing.connection import Connection

    names = []
    send = Connection.send

    def recording_send(conn, obj):
        if isinstance(obj, tuple) and obj[0] in ("batch", "rbatch"):
            names.append(threading.current_thread().name)
        return send(conn, obj)

    monkeypatch.setattr(Connection, "send", recording_send)
    return names


class TestShipOnSubmit:
    """A lone request on an idle pool ships from ``submit()`` itself."""

    def test_the_submitting_thread_ships_to_an_idle_worker(
        self, reference, monkeypatch
    ):
        senders = _sender_threads(monkeypatch)
        collector = Collector()
        with WorkerPool(n_bits=N_BITS, workers=1,
                        collector=collector) as pool:
            for x in (0.5, -1.5, 2.0):
                future = pool.submit(x)
                # Counted before the doorbell went out, so before the
                # submit returned.
                assert _counter(collector, "serve.pool.ring_dispatched") >= 1
                assert future.result(timeout=30) == reference.sigmoid(x)
        assert senders == [threading.current_thread().name] * 3

    def test_after_a_burst_the_dispatcher_ships_the_next_request(
        self, reference, monkeypatch
    ):
        # A reply that held several requests means a burst may follow:
        # the next lone request goes to the dispatcher, which coalesces
        # whatever arrives with it. A lone reply hands shipping back.
        senders = _sender_threads(monkeypatch)
        collector = Collector()
        with WorkerPool(n_bits=N_BITS, workers=1,
                        collector=collector) as pool:
            pid = pool.worker_pids()[0]
            try:
                first, held = _busy_pool(pool, collector, pid)
            finally:
                _signal(pid, signal.SIGCONT)
            for x, future in zip(HELD, held):
                assert np.array_equal(future.result(timeout=30),
                                      reference.tanh(x))
            first.result(timeout=30)
            for x in (0.5, -0.5):
                assert pool.submit(x).result(timeout=30) == (
                    reference.sigmoid(x)
                )
        me = threading.current_thread().name
        dispatcher = "nacu-pool-dispatch"
        assert senders == [me, dispatcher, dispatcher, me]

    def test_slots_and_results_survive_a_thread_storm(self, reference):
        # More clients than cores, switching every microsecond, some
        # waiting for each answer (lone ships from submit()) and some
        # not (dispatcher batches): slot claims and releases take no
        # lock, so a lost or doubled one would show in the free lists.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = WorkerPool(n_bits=N_BITS, workers=2, ring_slots=4)
            try:
                rng = np.random.default_rng(5)
                inputs = [rng.uniform(-4, 4, size=int(rng.integers(1, 6)))
                          for _ in range(300)]
                futures = [None] * len(inputs)

                def client(k):
                    for i in range(k, len(inputs), 4):
                        futures[i] = pool.submit(inputs[i], mode="tanh")
                        if k % 2:
                            futures[i].result(timeout=30)

                clients = [threading.Thread(target=client, args=(k,))
                           for k in range(4)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "client thread hung"
                for x, future in zip(inputs, futures):
                    assert np.array_equal(future.result(timeout=30),
                                          reference.tanh(x))
                _wait_for(
                    lambda: all(sorted(h.free_slots) == [0, 1, 2, 3]
                                for h in pool._handles),
                    what="every slot back on its free list",
                )
                assert not any(h.in_flight for h in pool._handles)
            finally:
                pool.close()
        finally:
            sys.setswitchinterval(previous)

    def test_a_lone_oversize_request_goes_through_the_dispatcher(
        self, reference, monkeypatch
    ):
        senders = _sender_threads(monkeypatch)
        collector = Collector()
        x = np.linspace(-4, 4, 64)
        with WorkerPool(n_bits=N_BITS, workers=1, collector=collector,
                        ring_slot_elements=8) as pool:
            assert np.array_equal(pool.submit(x).result(timeout=30),
                                  reference.sigmoid(x))
        assert senders == ["nacu-pool-dispatch"]
        counters = collector.snapshot()["counters"]
        assert counters["serve.pool.ring_oversize"] == 1
        assert counters["serve.pool.pipe_dispatched"] == 1

    def test_submit_never_waits_for_a_worker(self, reference):
        # The only worker is marked dead: the request must go to the
        # dispatcher, which alone may wait out dispatch_wait_s.
        pool = WorkerPool(n_bits=N_BITS, workers=1, dispatch_wait_s=10.0)
        handle = pool._handles[0]
        try:
            handle.dead = True
            futures = []
            submitter = threading.Thread(
                target=lambda: futures.append(pool.submit(0.5))
            )
            started = time.monotonic()
            submitter.start()
            submitter.join(timeout=0.5)
            assert not submitter.is_alive(), "submit() waited for a worker"
            assert time.monotonic() - started < 0.5
            assert not futures[0].done()
            with pool._cond:
                handle.dead = False
                pool._cond.notify_all()
            assert futures[0].result(timeout=30) == reference.sigmoid(0.5)
        finally:
            handle.dead = False
            pool.close()

    @pytest.mark.parametrize("flush", [True, False],
                             ids=["flush", "no_flush"])
    def test_no_request_is_stranded_by_a_racing_close(self, reference,
                                                      flush):
        # Each round races a stream of lone submits against close(): a
        # ship from submit() must land before the worker's close message.
        from repro.compile.cache import TableCache

        cache = TableCache()
        xs = np.random.default_rng(11).uniform(-6, 6, size=64)
        for round_ in range(200):
            pool = WorkerPool(n_bits=N_BITS, workers=1, publish_cache=cache)
            futures = []

            def client():
                for x in xs:
                    try:
                        futures.append((x, pool.submit(x)))
                    except ServerClosedError:
                        return

            submitter = threading.Thread(target=client)
            submitter.start()
            time.sleep(0.0005 * (round_ % 4))
            pool.close(flush=flush)
            submitter.join(timeout=30)
            assert not submitter.is_alive(), "submit() hung"
            pending = [f for _, f in futures if not f.done()]
            assert not pending, f"round {round_}: futures left pending"
            for x, future in futures:
                exc = future.exception(timeout=0)
                if exc is None:
                    assert future.result() == reference.sigmoid(x)
                else:
                    assert not flush and isinstance(exc, ServerClosedError)

    @pytest.mark.parametrize("policy", [None, ResponsePolicy(max_retries=1)],
                             ids=["bare", "resilient"])
    def test_a_worker_killed_after_a_submit_ship(self, reference, policy):
        collector = Collector()
        pool = WorkerPool(n_bits=N_BITS, workers=1, collector=collector,
                          resilience=policy)
        pid = pool.worker_pids()[0]
        try:
            os.kill(pid, signal.SIGSTOP)
            x = np.linspace(-3.0, 3.0, 5)
            future = pool.submit(x, mode="tanh")
            if policy is None:
                # Shipped by submit() itself, before it returned.
                assert _counter(collector, "serve.pool.dispatched") == 1
            else:
                # A resilient pool leaves every ship to its dispatcher.
                _wait_for(
                    lambda: _counter(collector, "serve.pool.dispatched") == 1,
                    what="the dispatcher to ship the flight",
                )
            os.kill(pid, signal.SIGKILL)
            if policy is None:
                assert isinstance(future.exception(timeout=30),
                                  WorkerCrashError)
            else:
                assert np.array_equal(future.result(timeout=30),
                                      reference.tanh(x))
        finally:
            _signal(pid, signal.SIGCONT)
            pool.close()

    def test_a_resilient_pool_leaves_lone_requests_to_the_dispatcher(
        self, reference, monkeypatch
    ):
        senders = _sender_threads(monkeypatch)
        with WorkerPool(n_bits=N_BITS, workers=1,
                        resilience=ResponsePolicy()) as pool:
            for x in (0.5, -1.5, 2.0):
                assert pool.submit(x).result(timeout=30) == (
                    reference.sigmoid(x)
                )
        assert senders == ["nacu-pool-dispatch"] * 3

    def test_lone_submits_survive_strike_outs(self, monkeypatch):
        # Every reply fails verification and strikes its worker out: the
        # receiver quarantines it, and wakes the dispatcher, while still
        # holding the flight's lock. A send that returns late (here:
        # 20 ms, so the reply is judged first) must not be holding the
        # gate lock then, or receiver and sender wait for each other and
        # every later submit() and close() blocks behind them.
        from repro.serve.pool import WorkerPool as Pool

        transmit = Pool._transmit

        def late_transmit(*args, **kwargs):
            sent = transmit(*args, **kwargs)
            time.sleep(0.02)
            return sent

        monkeypatch.setattr(Pool, "_transmit", late_transmit)
        plan = FaultPlan(seed=1, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT,
                      rate=1.0, bit=N_BITS - 1),
        ))
        policy = ResponsePolicy(max_retries=1, quarantine_after=1)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = WorkerPool(n_bits=N_BITS, workers=2, resilience=policy,
                              fault_plan=plan)
            outcomes = []

            def client():
                for x in np.linspace(-3.0, 3.0, 8):
                    outcomes.append(pool.submit(x).exception(timeout=30))

            submitter = threading.Thread(target=client, daemon=True)
            submitter.start()
            submitter.join(timeout=60)
            assert not submitter.is_alive(), "a lone submit() hung"
            closer = threading.Thread(target=pool.close, daemon=True)
            closer.start()
            closer.join(timeout=60)
            assert not closer.is_alive(), "close() hung"
        finally:
            sys.setswitchinterval(previous)
        # Every reply was corrupted: each request fails loudly.
        assert len(outcomes) == 8
        assert all(isinstance(exc, (ResponseVerificationError,
                                    WorkerCrashError))
                   for exc in outcomes), outcomes
