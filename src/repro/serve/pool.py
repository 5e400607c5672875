"""The multi-process worker pool: N forked engines, one table image.

:class:`~repro.serve.server.InferenceServer` coalesces beautifully but
evaluates every fused batch in one interpreter — throughput is pinned to
a single core however many tables are shared. :class:`WorkerPool` is the
scale-out tier on top of the same building blocks:

* the parent **publishes** the config's compiled tables once into a
  :class:`~repro.serve.store.SharedTableStore` and forks N worker
  processes that attach read-only — N engines, one physical table image
  (the 0.11 ms zero-copy attach measured in ``serve_table_store``);
* the parent keeps the :class:`~repro.serve.batcher.MicroBatcher` and
  ships **whole fused batches**, so the micro-batcher's coalescing
  survives the process hop: one message per batch, never one per
  request. Admission, the self-clocked dispatcher and ``close()`` are
  the in-process server's own (:class:`~repro.serve.server._FrontEnd`):
  a group below the batch ceiling leaves as soon as some worker has
  nothing in flight, and keeps filling while every worker is busy. The
  payload normally never crosses the pipe: the parent gathers the fused
  raw words straight into a free slot of a per-worker
  :class:`~repro.serve.store.SlotRing` (preallocated SPSC request/
  response rings in ``multiprocessing.shared_memory``) and sends only a
  tiny doorbell — ``(seq, mode, slot, shape)`` — over the duplex pipe;
  the worker evaluates from a zero-copy view and writes the result into
  the paired response slot. No pickle, no intermediate copies; slot
  framing carries generation/commit words so a frame torn by a SIGKILL
  mid-write is detected, never served. Only a batch too large for a
  slot (``serve.pool.ring_oversize``) or arriving while every slot is
  in flight (``serve.pool.ring_full``) overflows onto a pickled-payload
  pipe message, so the ring bounds memory, not admission;
* batches route to the **least-loaded** worker (fewest outstanding
  elements), and every response is raw-bit-identical to the serial
  engine because both sides run the same
  :func:`~repro.serve.batcher.evaluate_fused` kernel over the same
  shared tables;
* a worker that dies mid-flight fails its batches loudly with
  :class:`~repro.errors.WorkerCrashError` (counted under
  ``serve.pool.worker_deaths``) and is forked again in place
  (``restart=True``), so one crash never wedges the queue.

Observability stays exact across the process boundary. Request
lifecycle metrics — ``serve.requests`` / ``serve.shed`` counters,
``serve.queue_wait`` spans, per-mode ``serve.latency.<mode>`` quantiles,
SLO good/bad/shed accounting and sampled traces — are all recorded in
the **parent**, where requests are admitted and futures resolve, so both
timestamps of every latency come from one clock and the numbers are
byte-identical to the single-process server's accounting. Workers keep
their own private :class:`~repro.telemetry.Collector` for the
engine/compile/datapath counters their evaluations produce, when the
pool records telemetry or arms a fault plan (otherwise only for their
own ``serve.pool.*`` counters);
:meth:`WorkerPool.telemetry_snapshot` folds parent and worker snapshots
through the existing exact
:func:`~repro.telemetry.merge_snapshots` — the same totals one collector
would have held had it seen all the traffic. Sampled traces cross the
hop too: a traced batch runs under a worker-side
:class:`~repro.telemetry.trace.StageSink` whose event list rides back
with the reply and fans out into the member traces (stage stamps are
``CLOCK_MONOTONIC``, comparable across processes on one host).
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compile.cache import TableCache
from repro.errors import ServeError, WorkerCrashError
from repro.faults import inject as _inject
from repro.faults.plan import FaultPlan
from repro.nacu.config import FunctionMode, NacuConfig
from repro.serve.batcher import Batch, evaluate_fused
# Unused here (the shared front end builds requests); kept so that
# ``repro.serve.pool.build_request`` stays importable.
from repro.serve.batcher import build_request  # noqa: F401
from repro.serve.resilience import ResilienceManager, ResponsePolicy
from repro.serve.server import _FrontEnd
from repro.serve.store import (
    AttachedTableSource,
    RingManifest,
    SharedTableStore,
    SlotRing,
)
from repro.telemetry import collector as _telemetry
from repro.telemetry import trace as _tracing
from repro.telemetry.collector import Collector, merge_snapshots


# ----------------------------------------------------------------------
# The worker side (runs in the forked child)
# ----------------------------------------------------------------------
def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives the pipe, else a faithful ServeError."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 — any pickle failure downgrades
        return ServeError(f"{type(exc).__name__}: {exc}")


def _worker_main(conn, config: NacuConfig, fast: bool, manifest,
                 worker_id: int, telemetry: bool, fault_plan=None,
                 rings=None) -> None:
    """One worker process: attach, evaluate batches, report, drain.

    The worker keeps a private collector for its own ``serve.pool.*``
    counters and ships it back in every snapshot — the parent merges
    them exactly. With ``telemetry`` set the collector is also installed
    process-wide and handed to the engine, so every counter the engine,
    table cache and store attach produce is captured too; without it
    the engine runs its telemetry-off path. Messages are processed
    strictly in order, so by the time the ``close`` reply goes out every
    earlier batch has already been answered: graceful drain is a
    property of the pipe's FIFO ordering, not of extra bookkeeping.

    ``rings`` (a :class:`~repro.serve.store.RingManifest`) attaches the
    zero-copy lane: an ``rbatch`` doorbell names a slot whose payload is
    read in place from the request ring and whose result is written in
    place to the response ring — the same :func:`evaluate_fused` kernel
    as a ``batch`` message's pickled payload, so the bytes cannot differ
    between the ring and its pipe overflow.

    ``fault_plan`` is this worker's private shard of the pool's chaos
    plan, armed *here* — after the fork, in the child only — so the
    shared table image the parent published stays pristine and the
    parent process never injects. A restarted worker re-arms the same
    shard: its fault stream replays from the top, exactly like
    re-arming any plan.
    """
    # Local import keeps the engine (and its compile machinery) out of
    # the hot import path of clients that only ever submit.
    from repro.engine import BatchEngine

    collector = Collector()
    # Replaces, too, whatever collector the parent had installed at fork.
    _telemetry.set_collector(collector if telemetry else None)
    # Whatever plan the *parent* had armed at fork time is its business,
    # not this worker's — injection here is opt-in via the shard.
    _inject.disarm()
    request_ring = response_ring = None
    if rings is not None:
        request_ring = SlotRing.attach(
            rings.request_name, "req", rings.slots, rings.slot_elements
        )
        response_ring = SlotRing.attach(
            rings.response_name, "resp", rings.slots, rings.slot_elements
        )
    source = AttachedTableSource(manifest) if manifest is not None else None
    cache = TableCache(source=source) if fast else None
    engine = BatchEngine(
        config=config, fast=fast, table_cache=cache,
        collector=collector if telemetry else None,
    )

    def evaluate(mode_value, raw, traced):
        """The fused batch and, when traced, the stage sink it ran under."""
        mode = FunctionMode(mode_value)
        if not traced:
            return evaluate_fused(engine, mode, raw), None
        sink = _tracing.StageSink()
        with _tracing.use_sink(sink):
            return evaluate_fused(engine, mode, raw), sink

    if fault_plan is not None:
        _inject.arm(fault_plan)
        collector.count("serve.pool.worker_armed")
    collector.count("serve.pool.worker_started")
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent vanished — nothing left to serve
            kind = message[0]
            if kind == "batch":
                _, seq, mode_value, raw, traced = message
                try:
                    out, sink = evaluate(mode_value, raw, traced)
                    collector.count("serve.pool.ipc_bytes", out.nbytes)
                    reply = (
                        "ok", seq, out,
                        sink.events if sink is not None else None,
                        sink.faults if sink is not None else None,
                    )
                except BaseException as exc:  # noqa: BLE001 — forwarded
                    reply = ("err", seq, _picklable(exc))
                conn.send(reply)
            elif kind == "rbatch":
                _, seq, mode_value, slot, shape, traced = message
                try:
                    raw = request_ring.read_frame(slot, seq, shape)
                    out, sink = evaluate(mode_value, raw, traced)
                    frame = response_ring.open_frame(slot, seq, out.size)
                    np.copyto(frame, out.reshape(-1))
                    response_ring.commit_frame(slot)
                    collector.count("serve.pool.ipc_bytes", out.nbytes)
                    reply = (
                        "rok", seq, slot,
                        sink.events if sink is not None else None,
                        sink.faults if sink is not None else None,
                    )
                except BaseException as exc:  # noqa: BLE001 — forwarded
                    reply = ("err", seq, _picklable(exc))
                conn.send(reply)
            elif kind == "snapshot":
                conn.send(("snapshot", message[1], collector.snapshot()))
            elif kind == "close":
                conn.send(("final", collector.snapshot()))
                break
    finally:
        if source is not None:
            source.close()
        if request_ring is not None:
            request_ring.close()
        if response_ring is not None:
            response_ring.close()
        conn.close()


# ----------------------------------------------------------------------
# The parent side
# ----------------------------------------------------------------------
class _Pending:
    """One batch in flight to a worker, with its observability context."""

    __slots__ = ("batch", "tel", "traces", "enqueue_ns", "dispatch_ns",
                 "tracer", "flight", "attempt", "slot", "shape")

    def __init__(self, batch, tel, traces, enqueue_ns, dispatch_ns, tracer,
                 flight=None, attempt=0):
        self.batch = batch
        self.tel = tel
        self.traces = traces
        self.enqueue_ns = enqueue_ns
        self.dispatch_ns = dispatch_ns
        self.tracer = tracer
        #: The resilience :class:`~repro.serve.resilience.Flight` this
        #: attempt belongs to, or ``None`` on a policy-free pool.
        self.flight = flight
        #: This attempt's index within the flight (0 = primary).
        self.attempt = attempt
        #: The ring slot this attempt occupies (None: it overflowed
        #: onto the pipe).
        self.slot = None
        #: The payload shape — what the response frame reshapes to.
        self.shape: Optional[Tuple[int, ...]] = None


class _WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = ("worker_id", "process", "conn", "lock", "send_lock",
                 "in_flight", "outstanding", "receiver", "final_snapshot",
                 "dead", "quarantined", "request_ring", "response_ring",
                 "free_slots")

    def __init__(self, worker_id: int, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: Guards ``in_flight`` / ``outstanding`` / ``free_slots``
        #: (dispatcher vs receiver).
        self.lock = threading.Lock()
        #: Serialises writers on the pipe (dispatcher, snapshots, close).
        self.send_lock = threading.Lock()
        self.in_flight: Dict[int, _Pending] = {}
        self.outstanding = 0
        self.receiver: Optional[threading.Thread] = None
        self.final_snapshot: Optional[dict] = None
        self.dead = False
        #: Set (under ``send_lock``) when the resilience policy benches
        #: this worker: no new batches, graceful drain, then replacement.
        self.quarantined = False
        #: This worker's paired payload rings (None once released).
        self.request_ring: Optional[SlotRing] = None
        self.response_ring: Optional[SlotRing] = None
        #: Free slot indices, shared by both rings (a request slot and
        #: its response slot are claimed and released together).
        self.free_slots: List[int] = []


class WorkerPool(_FrontEnd):
    """N forked worker processes serving one NACU configuration.

    >>> from repro.serve import WorkerPool
    >>> with WorkerPool(n_bits=12, workers=2) as pool:
    ...     future = pool.submit(0.5, mode="sigmoid")
    ...     round(future.result(), 3)
    0.622

    Same client contract as :class:`~repro.serve.server.InferenceServer`
    (``submit()`` → ``Future``, :class:`BackpressureError` sheds,
    ``close(flush=True)`` drains) — swapping one for the other changes
    where batches evaluate, never what bytes come back.
    """

    _tier = "pool"

    def __init__(
        self,
        *,
        config: Optional[NacuConfig] = None,
        n_bits: Optional[int] = None,
        workers: int = 2,
        fast: bool = True,
        share_tables: bool = True,
        restart: bool = True,
        ring_slots: int = 8,
        ring_slot_elements: Optional[int] = None,
        max_batch_elements: int = 4096,
        max_delay_us: float = 0.0,
        max_pending_elements: int = 1 << 20,
        publish_cache: Optional[TableCache] = None,
        mp_context: Optional[str] = None,
        collector=None,
        tracer=None,
        slo=None,
        resilience: Optional[ResponsePolicy] = None,
        dispatch_wait_s: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if workers < 1:
            raise ServeError("the pool needs at least one worker")
        if dispatch_wait_s < 0:
            raise ServeError("dispatch_wait_s must be non-negative")
        if config is None:
            config = (
                NacuConfig.for_bits(n_bits) if n_bits is not None
                else NacuConfig()
            )
        elif n_bits is not None:
            raise ServeError("pass either a config or n_bits, not both")
        if ring_slots < 1:
            raise ServeError("ring_slots must be positive")
        super().__init__(
            max_batch_elements=max_batch_elements,
            max_delay_us=max_delay_us,
            max_pending_elements=max_pending_elements,
            collector=collector, tracer=tracer, slo=slo,
        )
        self.config = config
        #: The served fixed-point I/O format (``build_request`` contract).
        self.io_fmt = config.io_fmt
        self.workers = workers
        self.fast = fast
        self.restart = restart
        self._ring_slots = ring_slots
        # Two batch ceilings per slot: room for the batcher's overflow
        # regime (a group may exceed the ceiling by one request) and for
        # the resilience canary slice appended to the payload.
        self._ring_slot_elements = (
            int(ring_slot_elements) if ring_slot_elements is not None
            else 2 * max_batch_elements
        )
        if self._ring_slot_elements < 1:
            raise ServeError("ring_slot_elements must be positive")
        #: Per-worker chaos shards: worker ``k`` always arms shard ``k``,
        #: across restarts too — position-independent seeds make the
        #: injected stream a property of the slot, not of pool history.
        self._plan_shards = (
            fault_plan.shard(workers) if fault_plan is not None else None
        )
        #: Whether workers also collect engine, compile and store
        #: counters: only for a pool with telemetry, or with a fault
        #: plan, whose ``faults.*`` ledger travels in those snapshots.
        #: Decided once, so a restarted worker collects like the first.
        self._worker_telemetry = (
            _telemetry.resolve(collector) is not None
            or fault_plan is not None
        )
        if mp_context is None:
            # fork is the whole point (attach without re-import); spawn
            # works too — everything crossing the boundary pickles.
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(mp_context)

        # Publish once, before any fork: every worker attaches to this
        # one image. A format too wide for the cache ceiling cannot be
        # published — workers then compile privately (fast=True) or run
        # the datapath (fast=False), exactly like a local engine.
        self._store: Optional[SharedTableStore] = None
        self._manifest = None
        if fast and share_tables:
            store = SharedTableStore()
            try:
                self._manifest = store.publish(
                    config,
                    cache=publish_cache if publish_cache is not None
                    else TableCache(),
                )
                self._store = store
            except ServeError:
                store.unlink()
                self._count("serve.pool.publish_fallback")

        self._seq = itertools.count()
        self._snapshot_waits: Dict[int, list] = {}
        self._handles: List[_WorkerHandle] = []
        #: Final telemetry snapshots of workers retired by quarantine —
        #: kept so merged accounting stays exact across replacements.
        self._retired_snapshots: List[dict] = []
        self._dispatch_wait_s = dispatch_wait_s
        self._resilience: Optional[ResilienceManager] = None
        # Fork every worker before the dispatcher thread exists: forking
        # a single-threaded parent is the only shape with no inherited-
        # lock hazard (restarts after a crash fork from a threaded
        # parent — the child only touches its own pipe and numpy).
        for worker_id in range(workers):
            self._handles.append(self._spawn(worker_id))
        self._count("serve.pool.workers", workers)
        for handle in self._handles:
            self._start_receiver(handle)
        if resilience is not None:
            self._resilience = ResilienceManager(self, resilience)
        self._start_dispatcher("nacu-pool-dispatch")

    def _shutdown(self) -> None:
        """After the dispatcher joined: drain, retire the workers, unlink.

        Under ``close(flush=True)`` the dispatcher has shipped every
        remaining batch, and each worker answers them **before** its
        final snapshot (pipe FIFO); only then do the processes exit.
        """
        if self._resilience is not None:
            # Every flight resolves (retries included) while the workers
            # are still alive to land them on; only then do the workers
            # get their close message below.
            self._resilience.drain()
        with self._cond:
            # Restarts are decided under this lock and suppressed once
            # closed, so this snapshot is the final roster: every handle
            # in it has a started receiver thread.
            handles = list(self._handles)
        for handle in handles:
            if not handle.dead:
                try:
                    with handle.send_lock:
                        handle.conn.send(("close",))
                except (OSError, BrokenPipeError):
                    pass  # already dead — its receiver handles the fallout
        for handle in handles:
            if handle.receiver is not None:
                handle.receiver.join()
            handle.process.join(timeout=30)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join()
            try:
                handle.conn.close()
            except OSError:
                pass
        for handle in handles:
            self._release_rings(handle)
        if self._store is not None:
            self._store.unlink()

    def alive_workers(self) -> int:
        """How many workers are currently live."""
        return sum(
            1 for handle in self._handles
            if not handle.dead and handle.process.is_alive()
        )

    def worker_pids(self) -> List[int]:
        """The live workers' process ids (smoke checks kill these)."""
        return [
            handle.process.pid for handle in self._handles
            if not handle.dead and handle.process.is_alive()
        ]

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def telemetry_snapshot(self, timeout: float = 10.0) -> dict:
        """Parent + every worker, folded through ``merge_snapshots``.

        Counters, histograms, timers, cycles and quantile buckets all
        merge exactly, so the result is byte-identical to what a single
        collector would have held. On a live pool each worker is asked
        over its pipe; after :meth:`close` the final snapshots the drain
        collected are used — no process needs to be alive.
        """
        snapshots = []
        tel = _telemetry.resolve(self.collector)
        if tel is not None:
            snapshots.append(tel.snapshot())
        snapshots.extend(self.worker_snapshots(timeout=timeout))
        return merge_snapshots(snapshots)

    def worker_snapshots(self, timeout: float = 10.0) -> List[dict]:
        """One telemetry snapshot per worker (live request or final).

        Includes the final snapshots of workers retired by quarantine —
        their replacement occupies the same slot, but the retired
        counts still belong to the pool's exact total.
        """
        out = list(self._retired_snapshots)
        for handle in self._handles:
            if handle.final_snapshot is not None:
                out.append(handle.final_snapshot)
                continue
            if handle.dead:
                continue  # crashed before draining: its metrics are gone
            if handle.quarantined:
                continue  # draining: its final lands in the retired list
            seq = next(self._seq)
            event = threading.Event()
            slot: list = [event, None]
            self._snapshot_waits[seq] = slot
            try:
                with handle.send_lock:
                    handle.conn.send(("snapshot", seq))
            except (OSError, BrokenPipeError):
                self._snapshot_waits.pop(seq, None)
                continue
            if not event.wait(timeout):
                self._snapshot_waits.pop(seq, None)
                raise ServeError(
                    f"worker {handle.worker_id} did not answer a snapshot "
                    f"request within {timeout:g}s"
                )
            out.append(slot[1])
        return out

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        shard = (
            self._plan_shards[worker_id]
            if self._plan_shards is not None else None
        )
        # Fresh rings per process generation: a restarted worker never
        # inherits frames (possibly torn) from its predecessor.
        request_ring = SlotRing.create(
            "req", self._ring_slots, self._ring_slot_elements
        )
        response_ring = SlotRing.create(
            "resp", self._ring_slots, self._ring_slot_elements
        )
        rings = RingManifest(
            request_name=request_ring.name,
            response_name=response_ring.name,
            slots=self._ring_slots,
            slot_elements=self._ring_slot_elements,
        )
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config, self.fast, self._manifest,
                  worker_id, self._worker_telemetry, shard, rings),
            name=f"nacu-pool-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the child end: EOF on parent_conn
        # then means exactly "the worker is gone".
        child_conn.close()
        handle = _WorkerHandle(worker_id, process, parent_conn)
        handle.request_ring = request_ring
        handle.response_ring = response_ring
        handle.free_slots = list(range(self._ring_slots))
        return handle

    def _start_receiver(self, handle: _WorkerHandle) -> None:
        handle.receiver = threading.Thread(
            target=self._receive_loop, args=(handle,),
            name=f"nacu-pool-recv-{handle.worker_id}", daemon=True,
        )
        handle.receiver.start()

    def _receive_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ok":
                _, seq, out_raw, events, faults = message
                pending = self._pop_pending(handle, seq)
                if pending is None:
                    continue
                self._deliver(handle, pending, out_raw, events, faults)
            elif kind == "rok":
                _, seq, slot, events, faults = message
                pending = self._pop_pending(handle, seq)
                try:
                    if pending is None:
                        continue
                    try:
                        out_raw = handle.response_ring.read_frame(
                            slot, seq, pending.shape
                        )
                    except ServeError as exc:
                        # A frame that fails its commit check is refused,
                        # loudly — the resilience layer may retry it, a
                        # bare pool fails the futures.
                        self._count("serve.pool.torn_frames")
                        if pending.flight is not None:
                            self._resilience.on_err(handle, pending, exc)
                        else:
                            pending.batch.fail(
                                exc, traces=pending.traces, slo=self.slo,
                                tracer=pending.tracer,
                            )
                        continue
                    if pending.batch.emits_raw:
                        # FxArray futures keep the raw words: unshare
                        # them before the slot is recycled underneath.
                        out_raw = np.array(out_raw)
                    self._deliver(handle, pending, out_raw, events, faults)
                finally:
                    # Every reply frees its slot pair — stale replies
                    # (a lost hedge race) included, or the ring leaks.
                    self._free_slot(handle, slot)
            elif kind == "err":
                _, seq, exc = message
                pending = self._pop_pending(handle, seq)
                if pending is None:
                    continue
                # An erring ring dispatch consumed its request frame and
                # wrote no response: the slot pair is reusable now.
                self._free_slot(handle, pending.slot)
                if pending.flight is not None:
                    self._resilience.on_err(handle, pending, exc)
                    continue
                pending.batch.fail(
                    exc, traces=pending.traces, slo=self.slo,
                    tracer=pending.tracer,
                )
            elif kind == "snapshot":
                slot = self._snapshot_waits.pop(message[1], None)
                if slot is not None:
                    slot[1] = message[2]
                    slot[0].set()
            elif kind == "final":
                handle.final_snapshot = message[1]
                break
        self._on_worker_exit(handle)

    def _pop_pending(self, handle: _WorkerHandle, seq: int):
        with handle.lock:
            pending = handle.in_flight.pop(seq, None)
            if pending is not None:
                handle.outstanding -= pending.batch.elements
            emptied = pending is not None and not handle.in_flight
        if emptied:
            # Replies, error replies and torn frames all pass here: a
            # worker with nothing left in flight opens the gate.
            self._wake_dispatcher()
        return pending

    def _deliver(self, handle: _WorkerHandle, pending: _Pending,
                 out_raw, events, faults) -> None:
        """Route one answered batch: resilience check or straight finish.

        ``out_raw`` is either the unpickled pipe payload or a read-only
        view over the worker's response-ring frame — by the time this
        returns, every future has resolved (floats view the batch's one
        de-quantised copy, FxArrays were unshared by the caller), so the
        caller may recycle the frame immediately.
        """
        sink = None
        if events is not None:
            sink = _tracing.StageSink()
            sink.events = events
            sink.faults = faults or {}
        if pending.flight is not None:
            self._resilience.on_ok(handle, pending, out_raw, sink)
            return
        try:
            pending.batch.finish(
                out_raw, self.io_fmt, tel=pending.tel,
                traces=pending.traces, enqueue_ns=pending.enqueue_ns,
                slo=self.slo, tracer=pending.tracer,
                dispatch_ns=pending.dispatch_ns, sink=sink,
            )
        except BaseException as exc:  # noqa: BLE001 — forwarded
            pending.batch.fail(
                exc, traces=pending.traces, slo=self.slo,
                tracer=pending.tracer,
            )

    def _free_slot(self, handle: _WorkerHandle, slot) -> None:
        """Return one slot pair to the worker's free list."""
        if slot is None or handle.request_ring is None:
            return
        with handle.lock:
            handle.free_slots.append(slot)

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        """Receiver epilogue: clean drain is a no-op, a crash is loud."""
        handle.dead = True
        with handle.lock:
            orphans = list(handle.in_flight.items())
            handle.in_flight.clear()
            handle.outstanding = 0
        crashed = handle.final_snapshot is None and not self._closed
        if orphans or crashed:
            self._count("serve.pool.worker_deaths")
            exc = WorkerCrashError(
                f"worker {handle.worker_id} (pid {handle.process.pid}) died "
                f"with {len(orphans)} batch(es) in flight",
                worker_id=handle.worker_id,
                in_flight_seqs=[seq for seq, _ in orphans],
                ring_slots=self._ring_forensics(handle, orphans),
            )
            flighted = [p for _, p in orphans if p.flight is not None]
            for _, pending in orphans:
                if pending.flight is not None:
                    continue  # the resilience manager decides its fate
                pending.batch.fail(
                    exc, traces=pending.traces, slo=self.slo,
                    tracer=pending.tracer,
                )
            if flighted:
                self._resilience.on_crash(handle, flighted, exc)
        # A quarantined worker that delivered its final snapshot retired
        # gracefully: its batches were answered first (pipe FIFO) and
        # its counts move to the retired list, so the replacement below
        # costs the pool nothing but the fork.
        quarantined = handle.quarantined and handle.final_snapshot is not None
        replaced = False
        if (crashed or quarantined) and self.restart:
            # The whole swap happens under the pool lock: close() either
            # sees the replacement in its roster snapshot or, by setting
            # ``_closed`` first, suppresses the restart entirely. The
            # receiver starts before the handle becomes visible, so any
            # visible handle is always joinable.
            with self._cond:
                if not self._closed:
                    replacement = self._spawn(handle.worker_id)
                    self._start_receiver(replacement)
                    self._handles[self._handles.index(handle)] = replacement
                    self._count("serve.pool.worker_restarts")
                    if handle.final_snapshot is not None:
                        self._retired_snapshots.append(handle.final_snapshot)
                    replaced = True
                    # Both the dispatcher and any dispatch-wait sleeper
                    # may be blocked on a live worker appearing.
                    self._cond.notify_all()
        if replaced:
            # The old handle left the roster, so close() will never join
            # it — reap the process, its pipe and its rings here, on its
            # receiver (forensics above already copied any slot state).
            handle.process.join(timeout=10)
            try:
                handle.conn.close()
            except OSError:
                pass
            self._release_rings(handle)
        else:
            # Out of service for good: the gate must look again, since a
            # pool with no live worker left lets held groups go, to fail
            # loudly (or wait out ``dispatch_wait_s``) in ``_ship``.
            self._wake_dispatcher()

    def _ring_forensics(self, handle: _WorkerHandle, orphans):
        """Header state of every orphaned slot pair, copied before reuse.

        What turns "worker 3 died" into "worker 3 died mid-write of
        resp[2], seq 41": the request frame's state shows what the
        worker was handed, the response frame's generation/commit pair
        shows whether the crash tore the answer.
        """
        if handle.request_ring is None:
            return ()
        states = []
        for _, pending in orphans:
            if pending.slot is None:
                continue
            try:
                states.append(handle.request_ring.slot_state(pending.slot))
                states.append(handle.response_ring.slot_state(pending.slot))
            except ServeError:
                break  # rings already released — nothing left to read
        return tuple(states)

    def _release_rings(self, handle: _WorkerHandle) -> None:
        """Unlink one retired worker's ring pair (parent owns them)."""
        for ring in (handle.request_ring, handle.response_ring):
            if ring is not None:
                ring.unlink()
        handle.request_ring = None
        handle.response_ring = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pick_handle(self, exclude=frozenset()) -> Optional[_WorkerHandle]:
        """The dispatchable worker holding the fewest outstanding elements.

        Quarantined workers are benched; ``exclude`` bans worker slots
        (retries prefer a worker the failed attempt didn't run on).
        """
        best = None
        for handle in self._handles:
            if handle.dead or handle.quarantined:
                continue
            if handle.worker_id in exclude:
                continue
            if best is None or handle.outstanding < best.outstanding:
                best = handle
        return best

    def _await_worker(self) -> Optional[_WorkerHandle]:
        """Optionally ride out an all-workers-dead window.

        With ``dispatch_wait_s`` set, a dispatch that finds no live
        worker parks on the pool condition until a restart lands (the
        exit path's ``notify_all``) or the window closes — so a single
        crash under open-loop load costs one bounded wait instead of a
        shed storm. Counted under ``serve.pool.dispatch_waits``.
        """
        if self._dispatch_wait_s <= 0:
            return None
        self._count("serve.pool.dispatch_waits")
        deadline = time.monotonic() + self._dispatch_wait_s
        with self._cond:
            while True:
                handle = self._pick_handle()
                remaining = deadline - time.monotonic()
                if handle is not None or remaining <= 0:
                    return handle
                self._cond.wait(remaining)

    def _executor_free(self) -> bool:
        """The self-clocking gate: may a below-ceiling group leave now?

        Yes while a live, unquarantined worker has nothing in flight (a
        batch whose resilience flight already timed out holds no one
        back), and also once no such worker is left at all, so
        :meth:`_ship` settles held groups instead of stranding them.
        Caller holds ``_cond``.
        """
        live = False
        for handle in self._handles:
            if handle.dead or handle.quarantined:
                continue
            live = True
            # Copied: receiver threads pop from it concurrently.
            if not handle.in_flight or all(
                p.flight is not None and p.flight.done
                for p in list(handle.in_flight.values())
            ):
                return True
        return not live

    def _run(self, ready, tracer) -> None:
        for batch in ready:
            self._ship(batch, tracer)

    def _transmit(self, handle: _WorkerHandle, seq: int, pending: _Pending,
                  source, traced: bool, guard: bool) -> bool:
        """Ship one fused payload to ``handle``: ring slot, else pipe.

        ``source`` is either the :class:`Batch` itself (gathered
        straight into a ring frame — no intermediate concatenation) or a
        pre-fused ndarray (a resilience flight's persistent payload,
        copied in). A free ring slot that fits takes the zero-copy lane:
        payload into the request frame, commit, then the tiny doorbell
        over the pipe. Oversize payloads and full rings overflow onto
        the pickled pipe message — counted, never refused. ``guard``
        skips the send when the worker is dead or quarantined (the
        flight path's contract); returns whether the payload went out.
        """
        if isinstance(source, Batch):
            elements = source.elements
            shape = source.fused_shape
        else:
            elements = source.size
            shape = source.shape
        pending.shape = shape
        # None only once a dead worker's rings were released: the send
        # below then fails like any other send to a dead worker.
        ring = handle.request_ring
        slot = None
        if ring is not None:
            if elements > ring.slot_elements:
                self._count("serve.pool.ring_oversize")
            else:
                with handle.lock:
                    if handle.free_slots:
                        slot = handle.free_slots.pop()
                if slot is None:
                    self._count("serve.pool.ring_full")
        pending.slot = slot
        counts = (
            ("serve.pool.dispatched", 1),
            ("serve.pool.ring_dispatched" if slot is not None
             else "serve.pool.pipe_dispatched", 1),
            ("serve.pool.ipc_bytes", elements * 8),
        )
        start = time.perf_counter_ns()
        sent = False
        try:
            if slot is not None:
                if isinstance(source, Batch):
                    frame = ring.open_frame(slot, seq, elements)
                    source.gather_into(frame, self.io_fmt)
                    ring.commit_frame(slot)
                else:
                    ring.write_frame(slot, seq, source)
                message = ("rbatch", seq, pending.batch.mode.value, slot,
                           shape, traced)
            else:
                payload = (
                    source.fused_raw(self.io_fmt)
                    if isinstance(source, Batch) else source
                )
                message = ("batch", seq, pending.batch.mode.value, payload,
                           traced)
            with handle.send_lock:
                if not (guard and (handle.dead or handle.quarantined)):
                    # Counted first: the worker may answer, and a caller
                    # read the counters, before send() returns.
                    for name, n in counts:
                        self._count(name, n)
                    sent = True
                    handle.conn.send(message)
        except (OSError, BrokenPipeError, ServeError):
            # OSError/BrokenPipeError: the worker died under the send.
            # ServeError: its rings were already released — same outcome.
            if sent:
                for name, n in counts:
                    self._count(name, -n)
            sent = False
        if sent:
            tel = _telemetry.resolve(self.collector)
            if tel is not None:
                tel.observe_span(
                    "serve.pool.ship", time.perf_counter_ns() - start
                )
        elif slot is not None:
            self._free_slot(handle, slot)
            pending.slot = None
        return sent

    def _ship(self, batch: Batch, tracer) -> None:
        """Hand one fused batch to the least-loaded live worker."""
        if self._resilience is not None:
            self._resilience.launch(batch, tracer)
            return
        handle = self._pick_handle()
        if handle is None:
            handle = self._await_worker()
        dispatch_ns = time.perf_counter_ns()
        tel, traces, enqueue_ns = batch.begin(
            self.collector, tracer, self.slo, dispatch_ns=dispatch_ns
        )
        if handle is None:
            self._count("serve.pool.no_live_workers")
            batch.fail(
                WorkerCrashError("no live workers to dispatch to"),
                traces=traces, slo=self.slo, tracer=tracer,
            )
            return
        seq = next(self._seq)
        pending = _Pending(batch, tel, traces, enqueue_ns, dispatch_ns, tracer)
        with handle.lock:
            handle.in_flight[seq] = pending
            handle.outstanding += batch.elements
        if not self._transmit(handle, seq, pending, batch, bool(traces),
                              guard=False):
            # Died between pick and send; the receiver's exit path may
            # have already failed it, so pop defensively first.
            if self._pop_pending(handle, seq) is not None:
                batch.fail(
                    WorkerCrashError(
                        f"worker {handle.worker_id} died before dispatch"
                    ),
                    traces=traces, slo=self.slo, tracer=tracer,
                )

    def _send_flight(self, flight, exclude=frozenset(),
                     wait: bool = False) -> bool:
        """Dispatch one attempt of a resilience flight.

        Prefers a live worker outside ``exclude`` (a retry should land
        somewhere the failed attempt didn't), falls back to any live
        worker — on a one-worker pool retrying in place still beats
        failing — and returns ``False`` only when nothing is live (after
        the optional :meth:`_await_worker` window when ``wait`` is set).
        """
        failed: set = set()
        while True:
            handle = self._pick_handle(set(exclude) | failed)
            if handle is None:
                handle = self._pick_handle(failed)
            if handle is None and wait:
                handle = self._await_worker()
                if handle is not None and handle.worker_id in failed:
                    handle = None
            if handle is None:
                return False
            seq = next(self._seq)
            dispatch_ns = time.perf_counter_ns()
            with flight.lock:
                pending = _Pending(
                    flight.batch, flight.tel, flight.traces,
                    flight.enqueue_ns, dispatch_ns, flight.tracer,
                    flight=flight, attempt=flight.attempts,
                )
            with handle.lock:
                handle.in_flight[seq] = pending
                handle.outstanding += flight.batch.elements
            # Quarantine flips under the send lock, so a set flag there
            # means the close message is already ahead of this attempt
            # in the pipe — _transmit skips the send (guard=True) and
            # another worker is picked instead.
            sent = self._transmit(
                handle, seq, pending, flight.payload, bool(flight.traces),
                guard=True,
            )
            if sent:
                with flight.lock:
                    flight.attempts += 1
                    flight.last_dispatch_ns = dispatch_ns
                    if not flight.first_dispatch_ns:
                        flight.first_dispatch_ns = dispatch_ns
                    flight.worker_ids.append(handle.worker_id)
                return True
            self._pop_pending(handle, seq)
            failed.add(handle.worker_id)

    def _quarantine(self, handle: _WorkerHandle) -> bool:
        """Bench one worker and start its graceful drain.

        The close message follows every batch already written to the
        pipe, so the worker answers its in-flight work, ships its final
        telemetry snapshot, and exits; the receiver's exit path then
        forks the replacement and moves the snapshot to the retired
        list. Returns whether this call initiated the quarantine.
        """
        with handle.send_lock:
            if handle.dead or handle.quarantined or self._closed:
                return False
            handle.quarantined = True
            try:
                handle.conn.send(("close",))
            except (OSError, BrokenPipeError):
                pass  # dying anyway — its receiver handles the fallout
        self._wake_dispatcher()
        return True

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        shared = (
            f"{len(self._manifest)} shared tables"
            if self._manifest is not None else "no shared image"
        )
        return (
            f"<WorkerPool {state}, {self.alive_workers()}/{self.workers} "
            f"workers live, {shared}, "
            f"{self._batcher.pending_requests} pending>"
        )
