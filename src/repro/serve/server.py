"""The inference server: ``submit()``/``close()`` over a worker pool.

:class:`InferenceServer` is the request-level front end the rest of the
stack was missing: callers hand it single samples or small arrays and
get back a ``concurrent.futures.Future``; a dispatcher thread coalesces
everything through the :class:`~repro.serve.batcher.MicroBatcher` and a
pool of worker threads runs the fused batches through one
:class:`~repro.engine.BatchEngine` — by default over the compiled-table
fast path, optionally attached to a zero-copy shared table store
(:mod:`repro.serve.store`) so N servers across N processes share one
table image.

Overload policy is shed-and-count: when the bounded pending pool is
full, ``submit`` raises :class:`~repro.errors.BackpressureError`
immediately and the shed is counted under ``serve.shed`` — the server
never buffers without bound and never drops work silently.

Observability rides the existing telemetry collector: ``serve.requests``
/ ``serve.batches`` / ``serve.shed`` counters, a ``serve.batch_fill``
histogram (requests fused per batch), a ``serve.queue_wait`` span timer
(enqueue to dispatch), and the engine's own per-batch datapath cycle
ledger — so one snapshot shows queue health *and* modelled silicon time.
On top of that the server feeds the full observability layer: per-mode
request-latency quantiles (``serve.latency.<mode>``, exact-merging
p50/p99/p999 — :mod:`repro.telemetry.quantiles`), sampled per-request
traces through the :mod:`repro.telemetry.trace` registry (or an injected
``tracer=``), and SLO good/bad/shed accounting against an optional
``slo=`` policy where every shed burns error budget.

Admission, the dispatcher and ``close()`` live in :class:`_FrontEnd`,
which :class:`~repro.serve.pool.WorkerPool` shares; each tier supplies
only its executor.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional, Union

from repro.compile.cache import TableCache
from repro.engine import BatchEngine, InputLike
from repro.errors import BackpressureError, ServeError, ServerClosedError
from repro.nacu.config import FunctionMode, NacuConfig
from repro.serve.batcher import SERVABLE_MODES, MicroBatcher, build_request
from repro.telemetry import collector as _telemetry
from repro.telemetry import trace as _tracing
from repro.telemetry.slo import SLOAccountant, SLOPolicy

_MODE_BY_NAME = {mode.value: mode for mode in SERVABLE_MODES}


def _shipped() -> None:
    """What ``_ship_idle`` returns for a batch that left cleanly."""


class _FrontEnd:
    """Admission, the self-clocked dispatcher and close, for either tier.

    Who ships a batch: the dispatcher thread, except that a tier may
    ship a lone request from the submitting thread (``_ship_idle``) —
    the pool does when one of its workers is idle; the server never
    does.

    A subclass builds its executor between :meth:`__init__` and
    :meth:`_start_dispatcher`, and supplies:

    * ``_executor_free()`` — the gate: may a below-ceiling group leave
      now? Called with ``_cond`` held.
    * ``_run(ready, tracer)`` — execute the batches the gate released,
      on the dispatcher thread.
    * ``_ship_idle(request)`` — called with ``_cond`` held when a request
      entered an empty batcher: ship it from the submitting thread if
      an executor is idle, and return a callable that settles it once
      ``_cond`` is released; ``None`` (the default) leaves it to the
      dispatcher. Only the pool ships here: the server's executor is
      its dispatcher, and running a batch inside ``submit()`` would make
      every closed-loop caller wait for its own result.
    * ``_shutdown()`` — tear the executor down once the dispatcher has
      joined, every admitted batch having been run or dropped.
    * ``io_fmt`` — the served format
      :func:`~repro.serve.batcher.build_request` checks requests against.
    """

    #: Names the tier in the ``close(flush=False)`` error message.
    _tier = "server"

    def __init__(self, *, max_batch_elements: int, max_delay_us: float,
                 max_pending_elements: int, collector, tracer, slo):
        self.collector = collector
        #: Injected tracer; ``None`` defers to the module registry in
        #: :mod:`repro.telemetry.trace` at each dispatch, so
        #: ``enable_tracing()`` reaches a running tier.
        self.tracer = tracer
        #: SLO accounting: pass an :class:`SLOPolicy` (an accountant is
        #: built over this tier's collector) or a shared
        #: :class:`SLOAccountant`; ``None`` disables the ledger.
        self.slo = (
            SLOAccountant(slo, collector=collector)
            if isinstance(slo, SLOPolicy) else slo
        )
        self._batcher = MicroBatcher(
            max_batch_elements=max_batch_elements,
            max_delay_us=max_delay_us,
            max_pending_elements=max_pending_elements,
        )
        self._cond = threading.Condition()
        self._closed = False
        self._flush_on_close = True

    def _start_dispatcher(self, name: str) -> None:
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=name, daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # The client API
    # ------------------------------------------------------------------
    def submit(
        self,
        x: InputLike,
        mode: Union[FunctionMode, str] = FunctionMode.SIGMOID,
        axis: int = -1,
    ) -> Future:
        """Enqueue one evaluation; the future resolves in request kind.

        A float/array input resolves to floats, an :class:`FxArray`
        input to a raw :class:`FxArray` — same convention as the engine.
        Raises :class:`BackpressureError` when the pending pool is full
        and :class:`ServerClosedError` after :meth:`close` began.
        """
        if isinstance(mode, str):
            try:
                mode = _MODE_BY_NAME[mode]
            except KeyError:
                raise ServeError(
                    f"unknown mode {mode!r}; servable modes: "
                    f"{sorted(_MODE_BY_NAME)}"
                ) from None
        future: Future = Future()
        request = build_request(future, x, mode, axis, self)
        settle = None
        with self._cond:
            if self._closed:
                raise ServerClosedError("submit() after close()")
            # An idle dispatcher waits without a timeout, so the first
            # request of an empty pool must ship from here or wake it,
            # to run the request at once or to arm its deadline.
            was_idle = not self._batcher
            if not self._batcher.offer(request):
                self._count("serve.shed")
                if self.slo is not None:
                    # A refused user is a failed objective: sheds burn
                    # the error budget even though no work ran.
                    self.slo.record_shed()
                raise BackpressureError(
                    f"pending pool full "
                    f"({self._batcher.pending_elements} elements held, "
                    f"{request.elements} more would exceed "
                    f"{self._batcher.max_pending_elements}); retry later"
                )
            # ``serve.requests`` counting and trace sampling both happen
            # per *batch* at dispatch (``Batch.begin`` jumps the tracer's
            # counter once and touches only the sampled members) —
            # totals and the every-Nth sample set are identical once the
            # queue drains, and the submit fast path stays free of
            # per-request collector and tracer work.
            # A below-ceiling group leaves on the dispatcher's own
            # deadline timeout or when a busy executor frees; waking it
            # per submit just burns one context switch per request on
            # the coalescing path.
            if was_idle:
                settle = self._ship_idle(request)
                if settle is None:
                    self._cond.notify()
            elif self._batcher.has_full_group:
                self._cond.notify()
        if settle is not None:
            settle()
        return future

    def close(self, flush: bool = True) -> None:
        """Stop accepting requests; drain (or fail) the queue; join.

        With ``flush`` (the default) every admitted request still
        completes before ``close()`` returns; ``flush=False`` fails
        requests that never reached an executor with
        :class:`ServerClosedError`, while batches already running
        complete.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._flush_on_close = flush
            self._cond.notify_all()
        self._dispatcher.join()
        self._shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    # The self-clocking gate: below-ceiling groups leave
                    # only while an executor could run them.
                    free = self._executor_free()
                    now = time.perf_counter_ns()
                    ready = self._batcher.take_ready(
                        now if free else None, flush_all=self._closed
                    )
                    if ready or self._closed:
                        break
                    # Busy: a freed executor wakes the gate, no timer.
                    deadline = (
                        self._batcher.next_deadline_ns() if free else None
                    )
                    timeout = (
                        None if deadline is None
                        else max(deadline - now, 0) / 1e9
                    )
                    self._cond.wait(timeout)
                done = self._closed and not self._batcher
            tracer = _tracing.resolve(self.tracer)
            if self._closed and not self._flush_on_close:
                self._drop(ready, tracer)
            else:
                self._run(ready, tracer)
            if done:
                # close() joins this thread, then calls _shutdown().
                return

    def _ship_idle(self, request):
        """Tier hook: ship a lone request from ``submit()`` (see above)."""
        return None

    def _wake_dispatcher(self) -> None:
        """Make the dispatcher re-run the gate: an executor freed or left.

        Only a held group or a close gives the gate anything to decide;
        a submit into an empty batcher ships itself or wakes the
        dispatcher.
        """
        with self._cond:
            if self._batcher or self._closed:
                self._cond.notify()

    def _drop(self, ready, tracer) -> None:
        """``close(flush=False)``: fail never-dispatched batches."""
        now = time.perf_counter_ns()
        exc = ServerClosedError(f"{self._tier} closed before dispatch")
        for batch in ready:
            self._count("serve.requests", len(batch.requests))
            for request in batch.requests:
                request.future.set_exception(exc)
                if request.trace is not None:
                    request.trace.dispatch_ns = now
                    request.trace.status = "shed"
                    if tracer is not None:
                        tracer.retire(request.trace)
            if self.slo is not None:
                self.slo.record_many([0] * len(batch.requests), ok=False)

    def _count(self, name: str, n: int = 1) -> None:
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            tel.count(name, n)


class InferenceServer(_FrontEnd):
    """Micro-batching front end over one NACU configuration.

    >>> from repro.serve import InferenceServer
    >>> with InferenceServer(n_bits=16) as server:
    ...     future = server.submit(0.5, mode="sigmoid")
    ...     round(future.result(), 4)
    0.6225

    ``workers=1`` (the default) executes batches on the dispatcher
    thread itself — the fastest shape on a single core; ``workers>1``
    fans fused batches out to a thread pool. Either way batching is
    self-clocked: a group below ``max_batch_elements`` is dispatched as
    soon as an executor (the dispatcher itself, or a free pool thread)
    could run it, and keeps filling while every executor is busy;
    ``max_delay_us`` only sets the least time a group waits for
    company. The engine's compiled tables are shared through the
    (thread-safe) table cache either way, and ``table_source`` attaches
    the cache to a published :class:`~repro.serve.store.SharedTableStore`
    manifest so the server holds no private table copies at all.
    """

    def __init__(
        self,
        engine: Optional[BatchEngine] = None,
        *,
        config: Optional[NacuConfig] = None,
        n_bits: Optional[int] = None,
        fast: Optional[bool] = True,
        workers: int = 1,
        max_batch_elements: int = 4096,
        max_delay_us: float = 0.0,
        max_pending_elements: int = 1 << 20,
        table_source=None,
        collector=None,
        tracer=None,
        slo=None,
    ):
        if workers < 1:
            raise ServeError("the server needs at least one worker")
        if engine is None:
            if config is None:
                config = (
                    NacuConfig.for_bits(n_bits) if n_bits is not None
                    else NacuConfig()
                )
            cache = (
                TableCache(source=table_source)
                if table_source is not None else None
            )
            engine = BatchEngine(
                config=config, fast=fast, table_cache=cache,
                collector=collector,
            )
        elif config is not None or n_bits is not None:
            raise ServeError("pass either an engine or a config, not both")
        elif table_source is not None:
            # The source only reaches an engine this server builds; a
            # given engine would silently compile private tables.
            raise ServeError(
                "pass either an engine or a table_source, not both"
            )
        self.engine = engine
        #: The served fixed-point I/O format (``build_request`` contract).
        self.io_fmt = engine.io_fmt
        super().__init__(
            max_batch_elements=max_batch_elements,
            max_delay_us=max_delay_us,
            max_pending_elements=max_pending_elements,
            collector=collector if collector is not None
            else engine.collector,
            tracer=tracer, slo=slo,
        )
        self.workers = workers
        self._pool = (
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="nacu-serve"
            )
            if workers > 1 else None
        )
        #: Batches running on ``_pool`` (guarded by ``_cond``).
        self._busy = 0
        self._start_dispatcher("nacu-serve-dispatch")

    # ------------------------------------------------------------------
    # The executor
    # ------------------------------------------------------------------
    def _executor_free(self) -> bool:
        # With workers=1 the executor is the dispatcher itself, free
        # whenever it is at the gate.
        return self._busy < self.workers

    def _run(self, ready, tracer) -> None:
        if self._pool is None:
            for batch in ready:
                batch.run(self.engine, self.collector, tracer, self.slo)
            return
        with self._cond:
            self._busy += len(ready)
        for batch in ready:
            self._pool.submit(
                batch.run, self.engine, self.collector, tracer, self.slo,
            ).add_done_callback(self._batch_done)

    def _batch_done(self, future) -> None:
        """A pool thread freed: wake the gate for the groups it held."""
        with self._cond:
            self._busy -= 1
            self._cond.notify()
        future.result()  # Batch.run never raises; if it did, say so

    def _shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<InferenceServer {state}, {self.workers} worker(s), "
            f"{self._batcher.pending_requests} pending over {self.engine!r}>"
        )
