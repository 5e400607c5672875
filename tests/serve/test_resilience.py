"""Response resilience: canary splice identity, quarantine, dispatch wait."""

import os
import signal
import time

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import (
    ConfigError,
    ReproError,
    ResponseVerificationError,
    WorkerCrashError,
)
from repro.faults.models import FaultModel, FaultSpec
from repro.faults.plan import IO_OUT, FaultPlan
from repro.nacu.config import FunctionMode, NacuConfig
from repro.serve import ResponsePolicy, ResponseVerifier, WorkerPool
from repro.serve.resilience import CanaryBook
from repro.telemetry import Collector

MODES = ("sigmoid", "tanh", "exp", "softmax")


def _all_mode_requests(per_mode, seed=0):
    """A seeded storm guaranteed to exercise every servable mode."""
    rng = np.random.default_rng(seed)
    out = []
    for mode in MODES:
        for _ in range(per_mode):
            if mode == "softmax":
                x = rng.uniform(-4, 4, size=(int(rng.integers(2, 7)),))
            elif mode == "exp":
                x = rng.uniform(-8, 0, size=(int(rng.integers(1, 6)),))
            else:
                x = rng.uniform(-6, 6, size=(int(rng.integers(1, 6)),))
            out.append((mode, x))
    rng.shuffle(out)
    return out


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = ResponsePolicy()
        assert policy.max_retries == 1

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"canary_every": -1},
        {"timeout_s": -1.0},
        {"quarantine_after": -1},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            ResponsePolicy(**kwargs)


class TestCanaryByteIdentity:
    """Interleaved canaries must never perturb real responses.

    The canary slice rides the *tail* of the fused payload and is
    stripped before the scatter, so every non-canary response must be
    byte-identical to a canary-free serial pass — per width, per mode.
    """

    @pytest.mark.parametrize("n_bits", (8, 12, 16))
    def test_identical_to_canary_free_serial_pass(self, n_bits):
        reference = BatchEngine.for_bits(n_bits, fast=True)
        requests = _all_mode_requests(6, seed=n_bits)
        collector = Collector()
        policy = ResponsePolicy(canary_every=1, max_retries=1)
        with WorkerPool(
            n_bits=n_bits, workers=2, collector=collector,
            resilience=policy,
        ) as pool:
            futures = [
                (mode, x, pool.submit(x, mode=mode))
                for mode, x in requests
            ]
            for mode, x, future in futures:
                got = np.asarray(future.result(timeout=60))
                want = np.asarray(getattr(reference, mode)(x))
                assert np.array_equal(got, want), (n_bits, mode, x)
        counters = pool.telemetry_snapshot()["counters"]
        assert counters["serve.resilience.canaries"] > 0
        assert counters.get("serve.resilience.canary_failures", 0) == 0
        assert counters.get("serve.resilience.verify_failures", 0) == 0
        assert counters["serve.requests"] == len(requests)

    def test_identical_over_the_pipe_overflow(self):
        # One-element ring slots fit no flight: each one, canary slice
        # appended, crosses the pipe as one concatenated payload.
        reference = BatchEngine.for_bits(12, fast=True)
        requests = _all_mode_requests(6, seed=5)
        collector = Collector()
        policy = ResponsePolicy(canary_every=1, max_retries=1)
        with WorkerPool(
            n_bits=12, workers=2, collector=collector, resilience=policy,
            ring_slot_elements=1,
        ) as pool:
            futures = [
                (mode, x, pool.submit(x, mode=mode))
                for mode, x in requests
            ]
            for mode, x, future in futures:
                got = np.asarray(future.result(timeout=60))
                want = np.asarray(getattr(reference, mode)(x))
                assert np.array_equal(got, want), (mode, x)
        counters = pool.telemetry_snapshot()["counters"]
        assert counters["serve.resilience.canaries"] > 0
        assert counters.get("serve.resilience.canary_failures", 0) == 0
        assert counters.get("serve.resilience.verify_failures", 0) == 0
        assert counters["serve.pool.pipe_dispatched"] == (
            counters["serve.pool.dispatched"]
        )

    def test_canary_book_slices_are_memoised_and_golden(self):
        config = NacuConfig.for_bits(12)
        book = CanaryBook(config)
        raw_a, golden_a = book.slice_for(FunctionMode.SIGMOID, 0)
        raw_b, golden_b = book.slice_for(FunctionMode.SIGMOID, 0)
        assert raw_a is raw_b and golden_a is golden_b
        engine = BatchEngine(config=config, fast=False)
        from repro.fixedpoint import FxArray
        want = engine.sigmoid_fx(
            FxArray(raw_a.copy(), config.io_fmt)
        ).raw
        assert np.array_equal(golden_a, want)


class TestCleanPathNoFalsePositives:
    """Verification must stay silent on an honest datapath.

    Both divider implementations feed the softmax row-sum bound, so
    each gets its own clean soak: zero verify failures, zero canary
    failures, responses byte-identical to the serial engine.
    """

    @pytest.mark.parametrize("use_approx", (False, True))
    def test_both_dividers_verify_clean(self, use_approx):
        config = NacuConfig.for_bits(12, use_approx_divider=use_approx)
        reference = BatchEngine(config=config, fast=True)
        rng = np.random.default_rng(11)
        requests = [
            ("softmax", rng.uniform(-4, 4, size=(int(rng.integers(2, 9)),)))
            for _ in range(24)
        ]
        collector = Collector()
        policy = ResponsePolicy(canary_every=2, max_retries=1)
        with WorkerPool(
            config=config, workers=2, collector=collector,
            resilience=policy,
        ) as pool:
            futures = [(x, pool.submit(x, mode="softmax"))
                       for _, x in requests]
            for x, future in futures:
                got = np.asarray(future.result(timeout=60))
                assert np.array_equal(got, np.asarray(reference.softmax(x)))
        counters = pool.telemetry_snapshot()["counters"]
        assert counters.get("serve.resilience.verify_failures", 0) == 0
        assert counters.get("serve.resilience.canary_failures", 0) == 0


class TestArmedDefence:
    def test_retry_corrects_msb_upsets_bit_exactly(self):
        """Single-crossing traffic under MSB upsets: zero silent wrong."""
        n_bits = 12
        reference = BatchEngine.for_bits(n_bits, fast=True)
        plan = FaultPlan(seed=3, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT,
                      rate=0.01, bit=n_bits - 1),
        ))
        collector = Collector()
        policy = ResponsePolicy(max_retries=4)
        rng = np.random.default_rng(3)
        requests = [
            ("sigmoid" if i % 2 else "tanh",
             rng.uniform(-6, 6, size=(int(rng.integers(1, 4)),)))
            for i in range(80)
        ]
        with WorkerPool(
            n_bits=n_bits, workers=2, collector=collector,
            resilience=policy, fault_plan=plan,
        ) as pool:
            futures = [(mode, x, pool.submit(x, mode=mode))
                       for mode, x in requests]
            wrong = loud = 0
            for mode, x, future in futures:
                try:
                    got = np.asarray(future.result(timeout=120))
                except ResponseVerificationError:
                    loud += 1
                    continue
                want = np.asarray(getattr(reference, mode)(x))
                if not np.array_equal(got, want):
                    wrong += 1
        counters = pool.telemetry_snapshot()["counters"]
        assert wrong == 0, f"{wrong} corrupted response(s) escaped"
        assert counters.get("serve.resilience.verify_failures", 0) > 0, (
            "the armed plan never tripped the verifier — vacuous test"
        )
        assert counters.get("serve.resilience.corrected", 0) > 0 or loud > 0

    def test_retry_corrects_msb_upsets_over_the_pipe_overflow(self):
        """The defence holds whichever lane carried the bytes.

        One-element ring slots fit no request here (each has two to
        four elements), so every batch overflows onto the pickled pipe
        message. Requests go in waves of four, which keeps batches short
        enough that a retry usually comes back clean.
        """
        n_bits = 12
        reference = BatchEngine.for_bits(n_bits, fast=True)
        plan = FaultPlan(seed=7, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT,
                      rate=0.02, bit=n_bits - 1),
        ))
        collector = Collector()
        rng = np.random.default_rng(7)
        requests = [
            ("sigmoid" if i % 2 else "tanh",
             rng.uniform(-6, 6, size=(int(rng.integers(2, 5)),)))
            for i in range(240)
        ]
        futures = []
        with WorkerPool(
            n_bits=n_bits, workers=2, collector=collector,
            resilience=ResponsePolicy(max_retries=3), fault_plan=plan,
            ring_slot_elements=1,
        ) as pool:
            for start in range(0, len(requests), 4):
                wave = [pool.submit(x, mode=mode)
                        for mode, x in requests[start:start + 4]]
                for future in wave:
                    future.exception(timeout=120)
                futures.extend(wave)
        answered = 0
        for (mode, x), future in zip(requests, futures):
            exc = future.exception(timeout=0)
            if exc is not None:
                assert isinstance(exc, ReproError), repr(exc)
                continue
            want = np.asarray(getattr(reference, mode)(x))
            assert np.array_equal(np.asarray(future.result()), want), mode
            answered += 1
        counters = pool.telemetry_snapshot()["counters"]
        assert counters["serve.pool.pipe_dispatched"] >= 1
        assert "serve.pool.ring_dispatched" not in counters
        assert counters.get("serve.resilience.verify_failures", 0) >= 1
        assert counters.get("serve.resilience.corrected", 0) >= 1
        assert answered > len(requests) // 2, answered

    def test_quarantine_restart_drain_preserves_exact_telemetry(self):
        """Strike -> quarantine -> restart -> drain keeps exact counts.

        A quarantined worker drains gracefully and ships its final
        snapshot into the retired list; the replacement arms the same
        shard. Merged accounting must show every worker generation:
        ``worker_started == workers + restarts`` and every started
        worker armed its shard — countable only if the retired
        snapshots really fold into the merge.
        """
        n_bits = 12
        plan = FaultPlan(seed=9, specs=(
            FaultSpec(site=IO_OUT, model=FaultModel.TRANSIENT,
                      rate=0.05, bit=n_bits - 1),
        ))
        collector = Collector()
        policy = ResponsePolicy(max_retries=5, quarantine_after=1)
        rng = np.random.default_rng(9)
        requests = [
            ("sigmoid", rng.uniform(-6, 6, size=(int(rng.integers(1, 4)),)))
            for _ in range(120)
        ]
        pool = WorkerPool(
            n_bits=n_bits, workers=2, collector=collector,
            resilience=policy, fault_plan=plan, dispatch_wait_s=2.0,
        )
        try:
            futures = [pool.submit(x, mode=mode) for mode, x in requests]
            failures = sum(
                1 for future in futures
                if isinstance(
                    future.exception(timeout=120),
                    (ResponseVerificationError, WorkerCrashError),
                )
            )
            # A quarantined worker drains asynchronously; give the
            # graceful retire -> restart a moment to land before close
            # (close suppresses restarts by design).
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                counters = pool.telemetry_snapshot()["counters"]
                quarantines = counters.get("serve.resilience.quarantines", 0)
                if quarantines and counters.get(
                    "serve.pool.worker_restarts", 0
                ) >= quarantines:
                    break
                time.sleep(0.05)
        finally:
            pool.close()
        counters = pool.telemetry_snapshot()["counters"]
        assert counters.get("serve.resilience.quarantines", 0) >= 1
        restarts = counters.get("serve.pool.worker_restarts", 0)
        assert restarts >= 1
        started = counters["serve.pool.worker_started"]
        assert started == 2 + restarts
        assert counters["serve.pool.worker_armed"] == started
        assert counters["serve.requests"] == len(requests)
        # Nothing silently vanished: every future resolved or failed loud.
        assert all(f.done() for f in futures)
        assert failures + sum(
            1 for f in futures if f.exception(timeout=0) is None
        ) == len(requests)


def _kill_the_only_worker(restart):
    """Kill a one-worker pool's worker while its one batch is unanswered.

    Returns the request, its settled future and the parent's counters.
    """
    collector = Collector()
    pool = WorkerPool(
        n_bits=12, workers=1, collector=collector, restart=restart,
        resilience=ResponsePolicy(max_retries=1),
    )
    x = np.linspace(-4.0, 4.0, 9)
    pid = pool.worker_pids()[0]
    try:
        os.kill(pid, signal.SIGSTOP)
        future = pool.submit(x, mode="sigmoid")
        deadline = time.monotonic() + 10
        while not collector.snapshot()["counters"].get(
            "serve.pool.dispatched"
        ):
            assert time.monotonic() < deadline, "the batch never shipped"
            time.sleep(0.005)
        with pool._handles[0].send_lock:
            pass  # counted just before the send, under this lock: it is out
        os.kill(pid, signal.SIGKILL)
        future.exception(timeout=30)
    finally:
        pool.close()
    return x, future, collector.snapshot()["counters"]


class TestCrashRetry:
    """A crashed batch is retried only on a worker that is live.

    The retry is decided after the dead worker's replacement is forked,
    so a one-worker pool retries on the replacement; ``retries`` counts
    only a re-dispatch that went out.
    """

    def test_one_worker_pool_retries_on_the_replacement(self):
        x, future, counters = _kill_the_only_worker(restart=True)
        want = BatchEngine.for_bits(12, fast=True).sigmoid(x)
        assert np.asarray(future.result(timeout=0)).tobytes() == (
            np.asarray(want).tobytes()
        )
        assert counters["serve.resilience.retries"] == 1
        assert counters["serve.resilience.corrected"] == 1
        assert counters["serve.pool.worker_restarts"] == 1
        assert "serve.resilience.failed" not in counters

    def test_no_live_worker_fails_the_batch_without_a_retry(self):
        _, future, counters = _kill_the_only_worker(restart=False)
        assert isinstance(future.exception(timeout=0), WorkerCrashError)
        assert counters.get("serve.resilience.retries", 0) == 0
        assert counters["serve.resilience.failed"] == 1


class TestDispatchWait:
    def test_dispatch_rides_out_a_dead_window(self):
        reference = BatchEngine.for_bits(12, fast=True)
        collector = Collector()
        pool = WorkerPool(
            n_bits=12, workers=1, collector=collector,
            dispatch_wait_s=10.0,
        )
        try:
            handle = pool._handles[0]
            handle.dead = True  # simulate the mid-restart window
            future = pool.submit(0.5)
            time.sleep(0.15)  # let the dispatcher park on the condition
            assert not future.done()
            with pool._cond:
                handle.dead = False
                pool._cond.notify_all()
            assert future.result(timeout=30) == reference.sigmoid(0.5)
        finally:
            pool.close()
        counters = pool.telemetry_snapshot()["counters"]
        assert counters.get("serve.pool.dispatch_waits", 0) >= 1

    def test_default_fails_fast_with_no_live_workers(self):
        collector = Collector()
        pool = WorkerPool(
            n_bits=12, workers=1, collector=collector, restart=False,
        )
        try:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while pool.alive_workers() and time.monotonic() < deadline:
                time.sleep(0.01)
            future = pool.submit(0.5)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=30)
        finally:
            pool.close()
        counters = pool.telemetry_snapshot()["counters"]
        assert counters.get("serve.pool.dispatch_waits", 0) == 0
        assert counters.get("serve.pool.no_live_workers", 0) >= 1

    def test_rejects_negative_wait(self):
        from repro.errors import ServeError
        with pytest.raises(ServeError):
            WorkerPool(n_bits=12, workers=1, dispatch_wait_s=-1.0)


class TestVerifierBounds:
    def test_range_violation_is_named(self):
        config = NacuConfig.for_bits(12)
        verifier = ResponseVerifier(config, softmax_sum_slack=2.0)
        unit = 1 << config.io_fmt.fb
        bad = np.array([0, unit + 1], dtype=np.int64)
        reason = verifier.check(FunctionMode.SIGMOID, bad)
        assert reason is not None and "range" in reason

    def test_clean_sigmoid_passes(self):
        config = NacuConfig.for_bits(12)
        verifier = ResponseVerifier(config, softmax_sum_slack=2.0)
        unit = 1 << config.io_fmt.fb
        ok = np.array([0, unit // 2, unit], dtype=np.int64)
        assert verifier.check(FunctionMode.SIGMOID, ok) is None

    def test_softmax_row_sum_drift_is_caught(self):
        config = NacuConfig.for_bits(12)
        verifier = ResponseVerifier(config, softmax_sum_slack=1.0)
        unit = 1 << config.io_fmt.fb
        clean = np.full((1, 4), unit // 4, dtype=np.int64)
        assert verifier.check(FunctionMode.SOFTMAX, clean) is None
        drifted = clean.copy()
        drifted[0, 0] += 16  # 16 LSBs of drift >> 1-LSB-per-element slack
        assert verifier.check(FunctionMode.SOFTMAX, drifted) is not None
