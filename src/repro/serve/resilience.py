"""End-to-end response defence for the serving path.

The worker pool trusts whatever raw words come back over a pipe. Under
chaos — armed fault plans inside workers, killed processes, stragglers —
that trust is exactly what breaks. This module is the parent-side
defence: every returned batch is checked against cheap invariants
before its futures resolve, failures are classified and answered with
bounded retry / timeout / quarantine, and every decision is counted
under ``serve.resilience.*`` so the soak harness can fold a resilience
report out of ordinary telemetry.

Three detection layers, cheapest first:

* **range invariants** — every servable mode's outputs leave the
  datapath clamped to the function range (``[0, 1]`` for sigmoid /
  e^x / softmax, ``[-1, 1]`` for tanh, in raw units ``[0, 2^fb]`` /
  ``[-2^fb, 2^fb]``), while faults at the ``io.out`` site strike *after*
  the clamp — so any out-of-range raw word is proof of corruption.
  With the I/O format's integer bits ``ib >= 1`` a flip of the word's
  top bit always throws a non-negative mode out of range (``ib >= 2``
  for tanh): upsets pinned to the MSB are *provably* detected, which is
  what the chaos scenarios exploit for their hard zero-silent-wrong
  assertions. In-range flips (low bits) pass this layer — the detection
  envelope is honest, not magic;
* **softmax row sums** — quantised softmax rows sum to ``2^fb`` within
  a per-element rounding/divider slack; a corrupted element usually
  drags the sum outside it;
* **canary requests** — every N batches a slice of inputs with
  precomputed golden outputs rides along the fused payload. The golden
  compare is exact, so *any* upset touching the canary slice is caught
  regardless of bit position. Canaries are appended to the payload
  (never to the request list), so request accounting, traces and SLO
  records are untouched and the non-canary outputs are byte-identical
  to a canary-free pass — elementwise modes are per-code maps and
  softmax is row-independent, so extra trailing elements/rows cannot
  perturb earlier ones.

A :class:`Flight` tracks one batch across dispatch attempts; the
:class:`ResilienceManager` owns the policy decisions (retry on a
different worker, time out a straggler, fail loudly, quarantine after
K strikes) while the pool keeps the transport (pipes, locks, worker
lifecycle); no other code verifies, retries or fails a batch on a
policy's behalf. Verification failures burn the SLO error budget
through the ordinary ``Batch.fail`` path — a corrupted answer is never
delivered as if it were correct.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import BatchEngine
from repro.errors import (
    ConfigError,
    ResponseTimeoutError,
    ResponseVerificationError,
    WorkerCrashError,
)
from repro.faults.inject import use_plan
from repro.nacu.config import FunctionMode, NacuConfig
from repro.serve.batcher import Batch, evaluate_fused
from repro.telemetry.collector import use_collector

#: How often the straggler scan looks for flights past ``timeout_s``.
SCAN_INTERVAL_S = 0.005
#: How long ``close(flush=True)`` waits for in-flight flights (retries
#: included) before failing the remainder.
DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class ResponsePolicy:
    """What the parent does with (and about) worker responses.

    Every returned batch is checked against the range and softmax
    row-sum invariants, and one retry is allowed by default; canaries,
    timeouts and quarantine are opt-in. A policy is not free on the
    clean path: each batch becomes a :class:`Flight` (a record with its
    own lock, registered with the manager), and the verifier's
    reductions come on top. On the ``small_mixed_pool`` stream, sending
    every batch through a flight with verification off and no retries
    read idle p50 252 → 270 µs (+7%) against ``resilience=None``, while
    a flight still gathered its payload into an array of its own before
    copying it into the ring slot; that is why the bare pool path stays.
    """

    #: Append a canary slice every N shipped batches (0: never).
    canary_every: int = 0
    #: Same-request re-dispatches allowed after a failed attempt
    #: (verification failure, worker error reply, or worker crash).
    max_retries: int = 1
    #: Fail a flight still unanswered after this long (0: never).
    #: Timeouts are terminal: the backstop that keeps futures from
    #: hanging on a stuck worker.
    timeout_s: float = 0.0
    #: Quarantine-then-restart a worker after this many strikes
    #: (verification failures / error replies attributed to it; 0:
    #: never). Quarantine drains gracefully: the worker answers its
    #: in-flight batches, ships its final telemetry snapshot, and only
    #: then is replaced — merged counts stay exact.
    quarantine_after: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0 or self.canary_every < 0:
            raise ConfigError("retry and canary knobs must be non-negative")
        if self.quarantine_after < 0:
            raise ConfigError("quarantine_after must be non-negative")
        if self.timeout_s < 0:
            raise ConfigError("timeout_s must be non-negative")


class ResponseVerifier:
    """Mode-aware invariant checks on returned raw words.

    Stateless after construction and cheap by design: one min/max pass
    (plus a row-sum fold for softmax) per batch — the heavyweight
    ground-truth compare lives in the loadgen verify report, not here.
    """

    def __init__(self, config: NacuConfig,
                 softmax_sum_slack: float = 2.0):
        fmt = config.io_fmt
        unit = 1 << fmt.fb
        self.unit_raw = unit
        #: Softmax row-sum slack, in raw LSBs *per row element* (0
        #: disables the row-sum check). Covers per-element rounding
        #: (≤ 0.5 LSB) plus divider truncation; the clean-path property
        #: tests pin that the default never false-positives on either
        #: divider.
        self.softmax_sum_slack = softmax_sum_slack
        #: Inclusive raw output bounds per servable mode — the same
        #: clamps the datapath applies before the io.out crossing.
        self.bounds: Dict[FunctionMode, Tuple[int, int]] = {
            FunctionMode.SIGMOID: (0, unit),
            FunctionMode.TANH: (-unit, unit),
            FunctionMode.EXP: (0, unit),
            FunctionMode.SOFTMAX: (0, unit),
        }

    def check(self, mode: FunctionMode, out_raw: np.ndarray) -> Optional[str]:
        """``None`` when every invariant holds, else the failure reason."""
        if out_raw.size == 0:
            return None
        lo, hi = self.bounds[mode]
        # The ufuncs' own reductions: ndarray.min/max add a Python-level
        # wrapper call each, and this runs once per returned batch.
        low = int(np.minimum.reduce(out_raw, axis=None))
        high = int(np.maximum.reduce(out_raw, axis=None))
        if low < lo or high > hi:
            return (
                f"range: {mode.value} raw output spans [{low}, {high}], "
                f"outside the function range [{lo}, {hi}]"
            )
        if mode is FunctionMode.SOFTMAX and self.softmax_sum_slack > 0:
            width = out_raw.shape[-1]
            sums = out_raw.sum(axis=-1, dtype=np.int64)
            slack = int(np.ceil(self.softmax_sum_slack * width))
            drift = int(np.max(np.abs(sums - self.unit_raw)))
            if drift > slack:
                return (
                    f"rowsum: softmax row sum drifts {drift} raw LSBs from "
                    f"{self.unit_raw} (slack {slack} for width {width})"
                )
        return None


class CanaryBook:
    """Precomputed golden outputs for the interleaved canary slices.

    Goldens come from a private bit-accurate engine evaluated with
    faults scoped off and telemetry silenced — the reference bytes any
    healthy worker must reproduce (the fast path is raw-bit-identical
    by construction). One slice per ``(mode, softmax row width)`` is
    computed on first use and memoised; canary payloads are tiny.
    """

    ELEMENTS = 4

    def __init__(self, config: NacuConfig):
        self.config = config
        self.fmt = config.io_fmt
        self._engine: Optional[BatchEngine] = None
        self._slices: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}

    def _inputs(self, mode: FunctionMode, width: int) -> np.ndarray:
        fmt = self.fmt
        if mode is FunctionMode.SOFTMAX:
            row = np.linspace(fmt.raw_min, fmt.raw_max, width)
            return row.astype(np.int64).reshape(1, width)
        if mode is FunctionMode.EXP:  # domain: raw <= 0
            return np.array(
                [fmt.raw_min, fmt.raw_min // 2, fmt.raw_min // 7, 0],
                dtype=np.int64,
            )
        return np.array(
            [fmt.raw_min, fmt.raw_min // 3, fmt.raw_max // 3, fmt.raw_max],
            dtype=np.int64,
        )

    def slice_for(self, mode: FunctionMode,
                  width: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """``(input_raw, golden_raw)`` for one canary slice."""
        key = (mode.value, width)
        cached = self._slices.get(key)
        if cached is not None:
            return cached
        in_raw = self._inputs(mode, width)
        with use_plan(None), use_collector(None):
            if self._engine is None:
                self._engine = BatchEngine(config=self.config, fast=False)
            golden = evaluate_fused(self._engine, mode, in_raw)
        self._slices[key] = (in_raw, golden)
        return in_raw, golden


class Flight:
    """One batch's journey through dispatch attempts to resolution."""

    __slots__ = (
        "batch", "tel", "traces", "enqueue_ns", "tracer", "canary_in",
        "canary_golden", "canary_len", "lock", "done", "retries_used",
        "had_failure", "first_dispatch_ns", "worker_ids",
    )

    def __init__(self, batch: Batch, tel, traces, enqueue_ns, tracer,
                 canary_in: Optional[np.ndarray] = None,
                 canary_golden: Optional[np.ndarray] = None):
        self.batch = batch
        self.tel = tel
        self.traces = traces
        self.enqueue_ns = enqueue_ns
        self.tracer = tracer
        #: The canary slice's input words, shipped behind the batch's
        #: own payload on every attempt (``None``: no canary). The
        #: payload is not kept: each attempt gathers it from ``batch``
        #: straight into the worker's ring slot.
        self.canary_in = canary_in
        self.canary_golden = canary_golden
        self.canary_len = 0 if canary_in is None else canary_in.shape[0]
        #: Re-entrant: the reply path re-dispatches while holding it.
        self.lock = threading.RLock()
        self.done = False
        self.retries_used = 0
        self.had_failure = False
        self.first_dispatch_ns = 0
        #: The worker of every attempt that went out, in order.
        self.worker_ids: List[int] = []

    def split_reply(
        self, out_raw: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(request outputs, canary outputs or None)``."""
        if not self.canary_len:
            return out_raw, None
        return out_raw[:-self.canary_len], out_raw[-self.canary_len:]


class ResilienceManager:
    """Policy brain bolted onto a :class:`~repro.serve.pool.WorkerPool`.

    The pool calls in at three points — batch launch, worker reply,
    worker crash — and exposes the transport back (``_send_flight``,
    ``_quarantine``, ``_count``). Everything here is decision-making
    and accounting; no pipe or process is touched directly.
    """

    def __init__(self, pool, policy: ResponsePolicy):
        self.pool = pool
        self.policy = policy
        self.verifier = ResponseVerifier(pool.config)
        self.canaries = (
            CanaryBook(pool.config) if policy.canary_every > 0 else None
        )
        self._since_canary = 0
        self._flights: set = set()
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._strikes: Dict[int, int] = {}
        self._stop = threading.Event()
        self._scanner: Optional[threading.Thread] = None
        if policy.timeout_s > 0:
            self._scanner = threading.Thread(
                target=self._scan_loop, name="nacu-pool-resilience",
                daemon=True,
            )
            self._scanner.start()

    # ------------------------------------------------------------------
    # Launch (dispatcher thread)
    # ------------------------------------------------------------------
    def launch(self, batch: Batch, tracer) -> None:
        """Begin one batch, arm its flight, dispatch the first attempt."""
        pool = self.pool
        dispatch_ns = time.perf_counter_ns()
        tel, traces, enqueue_ns = batch.begin(
            pool.collector, tracer, pool.slo, dispatch_ns=dispatch_ns
        )
        canary_in = canary_golden = None
        if self.canaries is not None:
            self._since_canary += 1
            if self._since_canary >= self.policy.canary_every:
                self._since_canary = 0
                width = (
                    batch.fused_shape[-1]
                    if batch.mode is FunctionMode.SOFTMAX else 0
                )
                canary_in, canary_golden = self.canaries.slice_for(
                    batch.mode, width
                )
                pool._count("serve.resilience.canaries")
        flight = Flight(batch, tel, traces, enqueue_ns, tracer, canary_in,
                        canary_golden)
        with self._lock:
            self._flights.add(flight)
        if not pool._send_flight(flight, wait=True):
            pool._count("serve.pool.no_live_workers")
            self._finish_fail(
                flight, WorkerCrashError("no live workers to dispatch to")
            )

    # ------------------------------------------------------------------
    # Replies (receiver threads)
    # ------------------------------------------------------------------
    def on_ok(self, handle, pending, out_raw: np.ndarray, sink) -> None:
        """A worker answered: verify, then resolve / retry / fail."""
        pool = self.pool
        flight: Flight = pending.flight
        with flight.lock:
            if flight.done:
                pool._count("serve.resilience.stale_replies")
                return
            body, canary_out = flight.split_reply(out_raw)
            reason: Optional[str] = None
            if canary_out is not None and not np.array_equal(
                canary_out, flight.canary_golden
            ):
                pool._count("serve.resilience.canary_failures")
                reason = (
                    f"canary: worker {handle.worker_id} returned wrong bytes "
                    f"for the golden canary slice"
                )
            if reason is None:
                reason = self.verifier.check(flight.batch.mode, body)
            if reason is not None:
                self._on_detect(flight, pending, handle, reason)
                return
            flight.done = True
        # Success epilogue outside the flight lock: finish() scatters and
        # resolves futures — no reason to serialise it against the scan.
        if flight.had_failure:
            pool._count(
                "serve.resilience.corrected", len(flight.batch.requests)
            )
        try:
            flight.batch.finish(
                body, pool.io_fmt, tel=flight.tel, traces=flight.traces,
                enqueue_ns=flight.enqueue_ns, slo=pool.slo,
                tracer=flight.tracer, dispatch_ns=pending.dispatch_ns,
                sink=sink,
            )
        except BaseException as exc:  # noqa: BLE001 — forwarded
            flight.batch.fail(
                exc, traces=flight.traces, slo=pool.slo,
                tracer=flight.tracer,
            )
        self._unregister(flight)

    def on_err(self, handle, pending, exc: BaseException) -> None:
        """A worker's evaluation raised: strike it, retry or forward."""
        flight: Flight = pending.flight
        self.pool._count("serve.resilience.worker_errors")
        with flight.lock:
            if flight.done:
                self.pool._count("serve.resilience.stale_replies")
                return
            flight.had_failure = True
            self._strike(handle)
            if not self._retry(flight, exclude={handle.worker_id}):
                flight.done = True
                self._fail_now(flight, exc)

    def on_crash(self, handle, pendings, exc: WorkerCrashError) -> None:
        """The worker died holding these flights: retry or fail each.

        ``exc`` is the pool's forensic :class:`WorkerCrashError` (seqs +
        ring slot state); flights that exhaust their retry budget fail
        with it, so the caller sees the same diagnosis a policy-free
        pool would raise.
        """
        for pending in pendings:
            flight: Flight = pending.flight
            with flight.lock:
                if flight.done:
                    continue
                flight.had_failure = True
                if not self._retry(flight, exclude={handle.worker_id}):
                    flight.done = True
                    self._fail_now(flight, exc)

    # ------------------------------------------------------------------
    # Failure machinery (flight lock held unless noted)
    # ------------------------------------------------------------------
    def _on_detect(self, flight: Flight, pending, handle,
                   reason: str) -> None:
        """A verified-bad reply: count, time the detection, act."""
        pool = self.pool
        pool._count("serve.resilience.verify_failures")
        if flight.tel is not None:
            flight.tel.observe_span(
                "serve.resilience.detect",
                time.perf_counter_ns() - pending.dispatch_ns,
            )
        flight.had_failure = True
        self._strike(handle)
        if not self._retry(flight, exclude={handle.worker_id}):
            flight.done = True
            self._fail_now(flight, ResponseVerificationError(reason))

    def _retry(self, flight: Flight, exclude) -> bool:
        """One bounded re-dispatch, preferring a different worker.

        Counted only once it went out. The held flight lock keeps the
        retry's reply from resolving the flight before the count lands.
        """
        if flight.retries_used >= self.policy.max_retries:
            return False
        if not self.pool._send_flight(flight, exclude=exclude):
            return False
        flight.retries_used += 1
        self.pool._count("serve.resilience.retries")
        return True

    def _fail_now(self, flight: Flight, exc: BaseException) -> None:
        """Terminal failure: budget burn, loud futures, unregister."""
        self.pool._count("serve.resilience.failed")
        flight.batch.fail(
            exc, traces=flight.traces, slo=self.pool.slo,
            tracer=flight.tracer,
        )
        self._unregister(flight)

    def _finish_fail(self, flight: Flight, exc: BaseException) -> None:
        """Fail a flight that never reached a worker (no retry budget)."""
        with flight.lock:
            flight.done = True
        flight.batch.fail(
            exc, traces=flight.traces, slo=self.pool.slo,
            tracer=flight.tracer,
        )
        self._unregister(flight)

    def _strike(self, handle) -> None:
        if self.policy.quarantine_after <= 0:
            return
        self.pool._count("serve.resilience.strikes")
        with self._lock:
            strikes = self._strikes.get(handle.worker_id, 0) + 1
            self._strikes[handle.worker_id] = strikes
            quarantine = strikes >= self.policy.quarantine_after
            if quarantine:
                self._strikes[handle.worker_id] = 0
        if quarantine and self.pool._quarantine(handle):
            self.pool._count("serve.resilience.quarantines")

    # ------------------------------------------------------------------
    # Straggler scan (dedicated thread; runs only when the policy times
    # out)
    # ------------------------------------------------------------------
    def _scan_loop(self) -> None:
        timeout_s = self.policy.timeout_s
        timeout_ns = int(timeout_s * 1e9)
        while not self._stop.wait(SCAN_INTERVAL_S):
            now = time.perf_counter_ns()
            with self._lock:
                flights = list(self._flights)
            for flight in flights:
                with flight.lock:
                    if (
                        flight.done or not flight.worker_ids
                        or now - flight.first_dispatch_ns <= timeout_ns
                    ):
                        continue
                    flight.done = True
                self.pool._count("serve.resilience.timeouts")
                flight.batch.fail(
                    ResponseTimeoutError(
                        f"batch unanswered after {timeout_s:g}s "
                        f"across {len(flight.worker_ids)} attempt(s) on "
                        f"workers {flight.worker_ids}"
                    ),
                    traces=flight.traces, slo=self.pool.slo,
                    tracer=flight.tracer,
                )
                self._unregister(flight)
                # A settled flight no longer holds its worker busy.
                self.pool._wake_dispatcher()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _unregister(self, flight: Flight) -> None:
        with self._lock:
            self._flights.discard(flight)
            if not self._flights:
                self._drained.notify_all()

    def drain(self) -> None:
        """Wait for every flight to resolve, then stop the scanner.

        Called by ``close(flush=True)`` *before* the workers get their
        close message — retries still have live workers to land on. A
        flight still unresolved at the deadline fails loudly with
        :class:`ResponseTimeoutError`; nothing ever hangs a caller.
        """
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        with self._lock:
            while self._flights:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._drained.wait(remaining):
                    break
            leftovers = list(self._flights)
        for flight in leftovers:
            with flight.lock:
                if flight.done:
                    continue
                flight.done = True
            self.pool._count("serve.resilience.timeouts")
            flight.batch.fail(
                ResponseTimeoutError("pool closed before the batch resolved"),
                traces=flight.traces, slo=self.pool.slo,
                tracer=flight.tracer,
            )
            self._unregister(flight)
        self._stop.set()
        if self._scanner is not None:
            self._scanner.join()
