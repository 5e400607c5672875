"""Spans around each layer's public functions, installed from outside.

The traced run replaces the functions named in ``default_targets`` with
wrappers before the backend is built, so a forked pool worker inherits
them, and puts every original back afterwards. Nothing in ``src/`` is
edited: module-level aliases (``repro.serve.server`` and
``repro.serve.pool`` import ``build_request`` and ``evaluate_fused`` by
name, ``repro.compile.cache`` imports the table compilers) are patched
alongside the defining module.

Each span records its name, wall start and end (``perf_counter_ns``,
``CLOCK_MONOTONIC`` and so comparable across processes), thread CPU at
both ends (``thread_time_ns``), its parent span, thread and process,
and a request key and a batch key. The request key is the closed loop's
running request number, set per submit by the closed loop; the batch key is
the pool's seq number, read from each doorbell or payload tuple as it
crosses ``Connection.send``/``recv``, which links parent and worker
spans. Spans are buffered in memory; a pool worker writes its buffer to
a file when its main function returns, and the traced run saves every
process's spans together once the backend is closed.

Two spans are synthetic, opened and closed at call boundaries rather
than around one call: ``serve.pool.receive`` runs on the receiver thread
from a reply's ``recv`` returning to its next ``recv``, and
``serve.pool.worker.reply`` runs in the worker from ``evaluate_fused``
returning to its ``Connection.send`` returning.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from array import array
from dataclasses import dataclass
from time import perf_counter_ns, thread_time_ns
from typing import Callable, Dict, List, Optional

import numpy as np

FIELDS = ("sid", "parent", "name", "req", "seq", "tid",
          "w0", "w1", "c0", "c1", "n", "nbytes")
(SID, PARENT, NAME, REQ, SEQ, TID,
 W0, W1, C0, C1, N, NBYTES) = range(len(FIELDS))

_BATCH_KINDS = ("batch", "rbatch")
_REPLY_KINDS = ("ok", "rok", "err")


class Recorder:
    """Per-process span buffer plus the few hooks that are not spans."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.role = "parent"
        self._reset()

    def _reset(self) -> None:
        self.buf = array("q")
        #: (request key, Batch.begin wall stamp) per batched request.
        self.waits = array("q")
        #: (Batch.begin wall stamp, requests in the batch) per batch.
        self.fills = array("q")
        #: id(future) -> request key, for requests not yet batched.
        self.future_req: Dict[int, int] = {}
        self.memory = {"table_bytes": 0, "ring_bytes": 0}
        self.local = threading.local()
        self.ids = itertools.count(1)

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    # ------------------------------------------------------------------
    def _frames(self) -> list:
        local = self.local
        try:
            return local.frames
        except AttributeError:
            local.frames = []
            local.tid = threading.get_native_id()
            return local.frames

    def set_request(self, req: int) -> None:
        """Key the calling thread's next top-level spans by ``req``."""
        self._frames()
        self.local.req = req

    def open(self, code: int, req: Optional[int] = None,
             seq: Optional[int] = None) -> list:
        """Start a span; the returned frame becomes its record on close."""
        frames = self._frames()
        if frames:
            top = frames[-1]
            parent = top[SID]
            req = top[REQ] if req is None else req
            seq = top[SEQ] if seq is None else seq
        else:
            parent = 0
            local = self.local
            req = getattr(local, "req", -1) if req is None else req
            seq = getattr(local, "seq", -1) if seq is None else seq
        # In FIELDS order; w0 is read before c0, and c1 before w1, so the
        # wall interval always contains the CPU interval.
        frame = [next(self.ids), parent, code, req, seq, self.local.tid,
                 perf_counter_ns(), 0, thread_time_ns(), 0, 0, 0]
        frames.append(frame)
        return frame

    def close(self, frame: list, c1: Optional[int] = None,
              w1: Optional[int] = None) -> None:
        if c1 is None:
            c1 = thread_time_ns()
            w1 = perf_counter_ns()
        frame[C1] = c1
        frame[W1] = w1
        frames = self.local.frames
        if frames and frames[-1] is frame:
            frames.pop()
        else:
            frames.remove(frame)
        self.buf.extend(frame)

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, len(FIELDS))

    # ------------------------------------------------------------------
    def become_worker(self) -> None:
        """Forked child: drop the parent's buffers and thread state."""
        self.role = "worker"
        self._reset()

    def dump_path(self, pid: int) -> str:
        return os.path.join(self.out_dir, f"spans-{pid}.npy")

    def dump(self) -> None:
        np.save(self.dump_path(os.getpid()), self.spans())


# ----------------------------------------------------------------------
# Wrapper kinds
# ----------------------------------------------------------------------
def _span(rec: Recorder, name: str, func: Callable) -> Callable:
    code = rec.code(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = rec.open(code)
        try:
            return func(*args, **kwargs)
        finally:
            rec.close(frame)
    return wrapper


def _build_request(rec: Recorder, name: str, func: Callable) -> Callable:
    code = rec.code(name)

    @functools.wraps(func)
    def wrapper(future, *args, **kwargs):
        frame = rec.open(code)
        # Keyed before the request can reach the batcher.
        rec.future_req[id(future)] = frame[REQ]
        try:
            return func(future, *args, **kwargs)
        finally:
            rec.close(frame)
    return wrapper


def _begin(rec: Recorder, name: str, func: Callable) -> Callable:
    """Not a span: stamps queue waits and batch fill, then runs begin."""

    @functools.wraps(func)
    def wrapper(batch, *args, **kwargs):
        now = perf_counter_ns()
        pop = rec.future_req.pop
        for request in batch.requests:
            rec.waits.extend((pop(id(request.future), -1), now))
        rec.fills.extend((now, len(batch.requests)))
        return func(batch, *args, **kwargs)
    return wrapper


def _send(rec: Recorder, name: str, func: Callable) -> Callable:
    ring, pipe, other = (rec.code(f"{name}.{lane}")
                         for lane in ("ring", "pipe", "other"))

    @functools.wraps(func)
    def wrapper(conn, obj):
        if rec.role == "worker":
            try:
                return func(conn, obj)
            finally:
                reply = getattr(rec.local, "reply", None)
                if reply is not None:
                    rec.local.reply = None
                    rec.close(reply)
        kind = obj[0] if isinstance(obj, tuple) and obj else None
        if kind == "rbatch":
            frame = rec.open(ring, seq=obj[1])
            frame[N] = math.prod(obj[4])
        elif kind == "batch":
            frame = rec.open(pipe, seq=obj[1])
            frame[N] = obj[3].size
        else:
            frame = rec.open(other)
        try:
            return func(conn, obj)
        finally:
            rec.close(frame)
    return wrapper


def _recv(rec: Recorder, name: str, func: Callable) -> Callable:
    parent_code = rec.code(name)
    worker_code = rec.code(name.replace("serve.pool.", "serve.pool.worker."))
    receive = rec.code("serve.pool.receive")

    @functools.wraps(func)
    def wrapper(conn, *args, **kwargs):
        rec._frames()
        local = rec.local
        held = getattr(local, "receive", None)
        if held is not None:
            local.receive = None
            rec.close(held)
        worker = rec.role == "worker"
        frame = rec.open(worker_code if worker else parent_code, seq=-1)
        try:
            message = func(conn, *args, **kwargs)
        except BaseException:
            rec.close(frame)
            raise
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind in _BATCH_KINDS or kind in _REPLY_KINDS:
            frame[SEQ] = local.seq = message[1]
        rec.close(frame)
        if not worker and kind in _REPLY_KINDS:
            local.receive = rec.open(receive)
        return message
    return wrapper


def _evaluate(rec: Recorder, name: str, func: Callable) -> Callable:
    code = rec.code(name)
    reply = rec.code("serve.pool.worker.reply")

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = rec.open(code)
        try:
            return func(*args, **kwargs)
        finally:
            rec.close(frame)
            if rec.role == "worker":
                rec.local.reply = rec.open(reply)
    return wrapper


def _gather(rec: Recorder, name: str, func: Callable) -> Callable:
    code = rec.code(name)

    @functools.wraps(func)
    def wrapper(table, x, *args, **kwargs):
        frame = rec.open(code)
        try:
            out = func(table, x, *args, **kwargs)
        except BaseException:
            rec.close(frame)
            raise
        c1 = thread_time_ns()
        w1 = perf_counter_ns()
        # Index words read, table words gathered, output words written.
        frame[N] = x.raw.size
        frame[NBYTES] = (x.raw.nbytes + out.raw.nbytes
                    + x.raw.size * table.outputs.itemsize)
        rec.close(frame, c1, w1)
        return out
    return wrapper


def _publish(rec: Recorder, name: str, func: Callable) -> Callable:
    code = rec.code(name)

    @functools.wraps(func)
    def wrapper(store, *args, **kwargs):
        frame = rec.open(code)
        try:
            return func(store, *args, **kwargs)
        finally:
            rec.close(frame)
            rec.memory["table_bytes"] = store.nbytes
    return wrapper


def _ring_create(rec: Recorder, name: str, func: Callable) -> Callable:
    code = rec.code(name)

    @functools.wraps(func)
    def wrapper(cls, *args, **kwargs):
        frame = rec.open(code)
        try:
            ring = func(cls, *args, **kwargs)
        finally:
            rec.close(frame)
        rec.memory["ring_bytes"] += ring.nbytes
        return ring
    return wrapper


def _worker_main(rec: Recorder, name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.become_worker()
        try:
            return func(*args, **kwargs)
        finally:
            rec.dump()
    return wrapper


KINDS = {
    "span": _span,
    "build_request": _build_request,
    "begin": _begin,
    "send": _send,
    "recv": _recv,
    "evaluate": _evaluate,
    "gather": _gather,
    "publish": _publish,
    "ring_create": _ring_create,
    "worker_main": _worker_main,
}


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` plus every alias of it."""

    owner: object
    attr: str
    name: str
    kind: str = "span"
    #: Modules that import the same function by name.
    aliases: tuple = ()


def default_targets() -> List[Target]:
    """Every layer boundary of the serving stack the ledger attributes."""
    import multiprocessing.connection as mpc
    import multiprocessing.process as mpp

    import repro.compile as compile_pkg
    import repro.compile.cache as cache
    import repro.compile.table as table
    import repro.serve.batcher as batcher
    import repro.serve.pool as pool
    import repro.serve.server as server
    import repro.serve.store as store
    from repro.engine import BatchEngine
    from repro.fixedpoint import FxArray
    from repro.nacu.approx_divider import ApproxReciprocalDivider
    from repro.nacu.datapath import NacuDatapath
    from repro.nacu.divider import RestoringDivider
    from repro.nacu.mac import MacUnit

    T = Target
    return [
        T(server.InferenceServer, "submit", "serve.submit"),
        T(pool.WorkerPool, "submit", "serve.submit"),
        T(batcher, "build_request", "serve.batcher.build_request",
          "build_request", (server, pool)),
        T(FxArray, "from_float", "fixedpoint.quantize"),
        T(batcher.MicroBatcher, "offer", "serve.batcher.offer"),
        T(batcher.MicroBatcher, "take_ready", "serve.batcher.take_ready"),
        T(batcher.Batch, "begin", "serve.batcher.begin", "begin"),
        T(batcher.Batch, "fused_raw", "serve.batcher.gather"),
        T(batcher.Batch, "gather_into", "serve.batcher.gather"),
        T(batcher.Batch, "finish", "serve.batcher.finish"),
        T(batcher.Batch, "run", "serve.server.dispatch"),
        T(mpc.Connection, "send", "serve.pool.send", "send"),
        T(mpc.Connection, "recv", "serve.pool.recv", "recv"),
        T(pool, "_worker_main", "serve.pool.worker", "worker_main"),
        T(store.SlotRing, "open_frame", "serve.store.frame"),
        T(store.SlotRing, "commit_frame", "serve.store.frame"),
        T(store.SlotRing, "read_frame", "serve.store.frame"),
        T(batcher, "evaluate_fused", "engine.evaluate_fused", "evaluate",
          (pool,)),
        T(BatchEngine, "sigmoid_fx", "engine.dispatch"),
        T(BatchEngine, "tanh_fx", "engine.dispatch"),
        T(BatchEngine, "exp_fx", "engine.dispatch"),
        T(BatchEngine, "softmax_fx", "engine.dispatch"),
        T(table.ResponseTable, "eval", "compile.gather", "gather"),
        T(table.ResponseTable, "eval_trusted", "compile.gather", "gather"),
        T(NacuDatapath, "softmax", "nacu.softmax.normalise"),
        T(MacUnit, "accumulate_sum", "nacu.mac.fold"),
        T(RestoringDivider, "divide_fast", "nacu.divider"),
        T(ApproxReciprocalDivider, "divide_fast", "nacu.divider"),
        T(table, "compile_table", "setup.compile", "span",
          (cache, compile_pkg)),
        T(table, "compile_reciprocal_table", "setup.compile", "span",
          (cache, compile_pkg)),
        T(store.SharedTableStore, "publish", "setup.publish", "publish"),
        T(store.SlotRing, "create", "setup.spawn", "ring_create"),
        T(mpp.BaseProcess, "start", "setup.spawn"),
    ]


_MISSING = object()


class Installed:
    """The wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self):
        self._saved: List[tuple] = []

    def _set(self, owner, attr, value) -> None:
        saved = owner.__dict__.get(attr, _MISSING) if isinstance(
            owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


def install(rec: Recorder, targets: List[Target]) -> Installed:
    """Wrap every target (and its aliases) so calls record into ``rec``."""
    done = Installed()
    for target in targets:
        owner, attr = target.owner, target.attr
        raw = (
            next((klass.__dict__[attr] for klass in owner.__mro__
                  if attr in klass.__dict__))
            if isinstance(owner, type) else getattr(owner, attr)
        )
        make = KINDS[target.kind]
        if isinstance(raw, classmethod):
            value = classmethod(make(rec, target.name, raw.__func__))
        else:
            value = make(rec, target.name, raw)
        done._set(owner, attr, value)
        for module in target.aliases:
            if getattr(module, attr, None) is raw:
                done._set(module, attr, value)
    return done
