"""The dynamic micro-batcher: coalesce small requests, evaluate once.

The vectorised datapath (and the compiled-table gather even more so) is
dominated by *per-call* overhead at small sizes: a scalar sigmoid pays
the same dispatch, telemetry resolve and table lookup as a million-
element batch. The batcher exploits that by parking incoming requests
per ``(mode, row-width)`` group while the executor that would run them
is busy, fusing everything that accumulates into **one** engine pass,
and scattering the raw results back — so a stream of single-sample
requests evaluates at large-batch throughput, and a lone request on an
idle server runs at once. The batching is self-clocked, like the NACU
pipeline that issues a new operand whenever its input stage frees: the
executor's own busy time sets how long a group fills, not a timer.

Bit identity is structural, not statistical: elementwise modes are pure
per-code maps and the batched softmax is row-independent, so
concatenating requests, evaluating once, and slicing the output yields
exactly the raw words each request would have produced alone
(``tests/serve/test_batcher.py`` pins this property over random splits).

Float↔fixed-point conversion happens once per batch, at the batch's
fixed-point boundary, as in the NACU itself: a float request carries its
float64 values to the dispatcher, every float member of a batch is
quantised in one call, and the fused output is de-quantised in one
multiply. Each float future then resolves to a view of its own slice of
that one float array. ``FxArray`` requests skip both conversions and
travel as raw words.

Backpressure is explicit: the pending pool is bounded in *elements*, and
an offer that would overflow it is refused — the server turns that into
:class:`~repro.errors.BackpressureError` and counts the shed — never
buffered without bound, never silently dropped.

The batcher itself is lock-free by design: the owning server serialises
every call under its own condition variable, so this module stays a pure
data structure that is easy to test.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import BatchEngine
from repro.errors import RangeError, ServeError
from repro.fixedpoint import FxArray
from repro.nacu.config import FunctionMode
from repro.telemetry import collector as _telemetry
from repro.telemetry import trace as _tracing

#: Modes the batcher can serve. MAC is excluded: it is a stateful
#: accumulation, not a per-request function evaluation.
SERVABLE_MODES = (
    FunctionMode.SIGMOID,
    FunctionMode.TANH,
    FunctionMode.EXP,
    FunctionMode.SOFTMAX,
)

_EXP_DOMAIN_MESSAGE = (
    "the exponential path is specified for x <= 0; normalise "
    "inputs by their maximum first (Eq. 13)"
)


class Request:
    """One pending evaluation: payload, result future, emit recipe.

    A float request resolves to a view into its batch's float output
    (a Python float when it was a scalar); an ``FxArray`` request to
    raw words.
    """

    __slots__ = (
        "future", "mode", "payload", "shape", "axis", "emit_fx",
        "emit_scalar", "enqueue_ns", "trace", "elements", "key",
    )

    def __init__(self, future, mode: FunctionMode, payload: np.ndarray,
                 shape: Tuple[int, ...], axis: int,
                 emit_fx: bool, emit_scalar: bool):
        self.future = future
        self.mode = mode
        #: The input in request order, flattened for elementwise modes
        #: and a 2-D row stack (the requested axis moved last) for
        #: softmax: float64 values still to be quantised with the batch,
        #: or raw int64 words when ``emit_fx``.
        self.payload = payload
        #: The shape to restore on scatter (axis already moved last for
        #: softmax; ``axis`` moves it back, and is -1 when it was last).
        self.shape = shape
        self.axis = axis
        #: Whether the request came (and resolves) as an ``FxArray``.
        self.emit_fx = emit_fx
        self.emit_scalar = emit_scalar
        self.enqueue_ns = time.perf_counter_ns()
        #: The sampled :class:`~repro.telemetry.trace.RequestTrace`
        #: following this request, or ``None`` (the common case).
        self.trace = None
        self.elements = payload.size
        #: The batcher group: ``(mode, row width)``, where the width
        #: matters only for softmax, whose rows must stack.
        self.key = (
            mode.value,
            payload.shape[-1] if mode is FunctionMode.SOFTMAX else 0,
        )


def build_request(future, x, mode: FunctionMode, axis: int,
                  engine: BatchEngine) -> Request:
    """Check ``x`` against the engine's format and shape it for coalescing.

    Runs in the *caller's* thread and keeps only the checks that must
    stay synchronous and per request, so a bad request is refused here
    instead of joining — and poisoning — a batch: the mode is servable,
    an ``FxArray``'s format matches, softmax gets a non-empty input with
    at least one axis, no input is NaN, and every exp input quantises to
    a raw word ``<= 0`` (for floats, the exact predicate
    ``x <= 2**-(fb+1)``). Quantising waits for the batch
    (:meth:`Batch.fused_raw`); a float request keeps a private float64
    copy of ``x``, so the caller may reuse its array as soon as
    ``submit()`` returns.
    """
    if mode not in SERVABLE_MODES:
        raise ServeError(
            f"mode {getattr(mode, 'value', mode)!r} is not servable; "
            f"servable modes: {[m.value for m in SERVABLE_MODES]}"
        )
    emit_fx = isinstance(x, FxArray)
    if emit_fx:
        if x.fmt != engine.io_fmt:
            raise ServeError(
                f"request format {x.fmt} does not match the server's "
                f"{engine.io_fmt}"
            )
        values = x.raw
        exp_limit = 0
    else:
        values = np.array(x, dtype=np.float64)
        # The largest float that rounds (ties to even) to raw 0.
        exp_limit = engine.io_fmt.resolution / 2
    if values.size and (mode is FunctionMode.EXP or not emit_fx):
        # One reduction serves both checks: the max is NaN if any input is.
        top = values.max()
        if top != top:
            raise RangeError("NaN has no fixed-point value to serve")
        if mode is FunctionMode.EXP and top > exp_limit:
            raise RangeError(_EXP_DOMAIN_MESSAGE)
    if mode is FunctionMode.SOFTMAX:
        if values.ndim == 0:
            raise RangeError("softmax needs at least one axis of inputs")
        if values.size == 0:
            # The serial engine's refusal, made here so it cannot depend
            # on which rows share the batch.
            raise RangeError(
                "softmax expects a non-empty 1-D vector or 2-D batch"
            )
        if axis == values.ndim - 1:
            axis = -1
        moved = values if axis == -1 else np.moveaxis(values, axis, -1)
        rows = np.ascontiguousarray(moved.reshape(-1, moved.shape[-1]))
        return Request(future, mode, rows, moved.shape, axis, emit_fx, False)
    flat = np.ascontiguousarray(values).reshape(-1)
    return Request(future, mode, flat, values.shape, axis, emit_fx,
                   values.ndim == 0)


#: The ``BatchEngine`` method that evaluates each servable mode.
_KERNELS = {mode: f"{mode.value}_fx" for mode in SERVABLE_MODES}


def evaluate_fused(engine: BatchEngine, mode: FunctionMode,
                   raw: np.ndarray) -> np.ndarray:
    """One fused engine pass over concatenated raw words.

    The single kernel hop both serving tiers share: the in-process
    dispatcher calls it directly and the worker pool calls it on the far
    side of the pipe — so a pooled response can only ever be the bytes
    the local path would have produced. ``raw`` is the flat elementwise
    concatenation, or the 2-D row stack for softmax.
    """
    # Looked up on the engine per call, so a patched method is the one
    # that runs; softmax's default axis is the stacked rows' last.
    kernel = getattr(engine, _KERNELS[mode])
    return kernel(FxArray._wrap(raw, engine.io_fmt)).raw


class Batch:
    """One coalesced engine pass over same-group requests."""

    __slots__ = ("mode", "requests", "elements")

    def __init__(self, mode: FunctionMode, requests: List[Request],
                 elements: int):
        self.mode = mode
        self.requests = requests
        #: The members' total element count, which the batcher already
        #: keeps per group.
        self.elements = elements

    def fused_raw(self, fmt) -> np.ndarray:
        """The gathered raw payload for :func:`evaluate_fused`.

        Every float member is quantised into ``fmt`` in one call over
        the concatenated values. A batch of one ``FxArray`` request (the
        large pre-formed-batch regime) needs no gather: its raw words are
        handed over in place so the serving layer adds no copy on top of
        the engine call.
        """
        requests = self.requests
        if len(requests) == 1 and requests[0].emit_fx:
            return requests[0].payload
        if not self.emits_raw:
            return self._quantised(fmt)
        out = np.empty(self.fused_shape, dtype=np.int64)
        self.gather_into(out.reshape(-1), fmt)
        return out

    @property
    def fused_shape(self) -> Tuple[int, ...]:
        """The shape of :meth:`fused_raw`, without materialising it.

        What a zero-copy transport puts in its control frame: the flat
        element count for elementwise modes, the stacked ``(rows,
        width)`` for softmax.
        """
        if self.mode is FunctionMode.SOFTMAX:
            width = self.requests[0].payload.shape[-1]
            return (self.elements // width, width)
        return (self.elements,)

    @property
    def emits_raw(self) -> bool:
        """Whether any member future receives the raw words themselves.

        ``FxArray`` clients get a view over the fused output on scatter;
        a serving layer that recycles its output buffer (the ring
        transport) must unshare the bytes first. Float futures view the
        batch's de-quantised copy, never the buffer itself.
        """
        requests = self.requests
        if len(requests) == 1:
            return requests[0].emit_fx
        return any(r.emit_fx for r in requests)

    def gather_into(self, out: np.ndarray, fmt) -> None:
        """Scatter-gather the fused payload straight into ``out`` (flat).

        The zero-copy dual of :meth:`fused_raw`: the ring transport
        hands over the destination slot and the member payloads land
        there directly — ``FxArray`` members as their raw words, float
        members as their share of one quantising call into ``fmt``.
        """
        quantised = self._quantised(fmt)
        if quantised is not None:
            quantised = quantised.reshape(-1)
            if quantised.size == out.size:
                out[:] = quantised
                return
        offset = taken = 0
        for request in self.requests:
            size = request.elements
            if request.emit_fx:
                payload = request.payload
                out[offset:offset + size] = (
                    payload if payload.ndim == 1 else payload.reshape(-1)
                )
            else:
                out[offset:offset + size] = quantised[taken:taken + size]
                taken += size
            offset += size

    def _quantised(self, fmt) -> Optional[np.ndarray]:
        """The float members' values quantised in one call, if any: one
        run of words for elementwise modes, one row stack for softmax."""
        values = [r.payload for r in self.requests if not r.emit_fx]
        if not values:
            return None
        return FxArray.from_float(
            values[0] if len(values) == 1 else np.concatenate(values), fmt
        ).raw

    def begin(self, collector=None, tracer=None, slo=None,
              dispatch_ns: Optional[int] = None):
        """Dispatch-side observability: sampling, counters, queue waits.

        Called where the batch leaves the queue — the in-process
        dispatcher just before it evaluates, the pool just before the
        batch crosses the pipe. Returns ``(tel, traces, enqueue_ns)``
        for the matching :meth:`finish`/:meth:`fail`.
        """
        tel = _telemetry.resolve(collector)
        if tel is None and tracer is None and slo is None:
            # Nobody watches this batch: no stamps, no samples.
            return None, (), None
        traces = []
        if tracer is not None:
            # Sampling happens here, not per submit: one counter jump
            # covers the whole batch and only the every-Nth members the
            # sequential policy would have picked get a trace opened —
            # unsampled requests are never even looked at.
            for i in tracer.sample_batch(len(self.requests)):
                request = self.requests[i]
                if request.trace is None:
                    request.trace = tracer.begin(
                        request.mode.value, request.elements,
                        request.enqueue_ns,
                    )
                traces.append(request.trace)
        if dispatch_ns is None:
            dispatch_ns = time.perf_counter_ns()
        # One int64 array of enqueue stamps serves both the queue-wait
        # fold here and the latency fold after the scatter — no
        # per-request Python calls on the batch path.
        enqueue_ns = (
            np.fromiter(
                (r.enqueue_ns for r in self.requests),
                dtype=np.int64, count=len(self.requests),
            )
            if tel is not None or slo is not None else None
        )
        if tel is not None:
            tel.observe_span_many("serve.queue_wait", dispatch_ns - enqueue_ns)
            tel.count("serve.requests", len(self.requests))
            tel.count("serve.batches")
            tel.count("serve.batch_elements", self.elements)
            tel.observe("serve.batch_fill", len(self.requests))
            if traces:
                tel.count("serve.traced", len(traces))
        return tel, traces, enqueue_ns

    def finish(self, out_raw: np.ndarray, fmt, *, tel=None, traces=(),
               enqueue_ns=None, slo=None, tracer=None,
               dispatch_ns: int = 0, sink=None) -> None:
        """Scatter the fused output and resolve every member future.

        Float members share one de-quantise of the whole output (``raw *
        fmt.resolution``): each float future resolves to a view of its
        own slice of that float array — a Python float for a scalar
        request — so a held result keeps its batch's float output alive.
        ``FxArray`` futures get views of ``out_raw`` itself.

        The completion half of :meth:`begin`: per-mode latency quantile
        fold, SLO good/bad classification, and trace retirement with the
        batch's stage timeline (``sink``). May raise — callers wrap it
        exactly like the evaluation itself (see :meth:`run`).
        """
        raw = out_raw if out_raw.ndim == 1 else out_raw.reshape(-1)
        requests = self.requests
        # A lone request takes the whole output: no pass over the
        # members, no slice.
        lone = len(requests) == 1
        # Made before any future resolves: an FxArray client may write
        # into its view of ``raw`` as soon as it has it.
        values = (
            None if (requests[0].emit_fx if lone
                     else all(r.emit_fx for r in requests))
            else raw * fmt.resolution
        )
        offset = 0
        for request in requests:
            piece = raw if request.emit_fx else values
            if not lone:
                end = offset + request.elements
                piece = piece[offset:end]
                offset = end
            # A 1-D request's slice already has its shape, and its
            # softmax axis is always the last.
            if len(request.shape) != 1:
                piece = piece.reshape(request.shape)
                if (request.mode is FunctionMode.SOFTMAX
                        and request.axis != -1):
                    piece = np.moveaxis(piece, -1, request.axis)
            if request.emit_fx:
                result = FxArray._wrap(piece, fmt)
            else:
                result = float(piece) if request.emit_scalar else piece
            request.future.set_result(result)
        finish_ns = time.perf_counter_ns()
        if enqueue_ns is not None:
            latencies = finish_ns - enqueue_ns
            if tel is not None:
                tel.observe_latency_many(
                    f"serve.latency.{self.mode.value}", latencies
                )
            if slo is not None:
                slo.record_many(latencies)
        if traces:
            self._retire(traces, sink, dispatch_ns, finish_ns, "ok", tracer)

    def fail(self, exc: BaseException, *, traces=(), slo=None,
             tracer=None) -> None:
        """Fail every unresolved member future with ``exc`` (never raises)."""
        for request in self.requests:
            if not request.future.done():
                request.future.set_exception(exc)
        if slo is not None:
            slo.record_many([0] * len(self.requests), ok=False)
        if traces:
            self._retire(
                traces, None, time.perf_counter_ns(), None, "error", tracer
            )

    def run(self, engine: BatchEngine, collector=None,
            tracer=None, slo=None) -> None:
        """Evaluate, scatter, resolve every future (never raises).

        Observability rides per batch: queue-wait spans, a per-mode
        request-latency quantile fold (one vectorised pass), SLO
        good/bad classification, and — only when the batch carries
        sampled traces — a stage sink around the engine call whose
        collected timeline fans out to every member trace.
        """
        start = time.perf_counter_ns()
        tel, traces, enqueue_ns = self.begin(
            collector, tracer, slo, dispatch_ns=start
        )
        try:
            sink = _tracing.StageSink() if traces else None
            fmt = engine.io_fmt
            payload = self.fused_raw(fmt)
            if sink is None:
                out_raw = evaluate_fused(engine, self.mode, payload)
            else:
                with _tracing.use_sink(sink):
                    out_raw = evaluate_fused(engine, self.mode, payload)
            self.finish(
                out_raw, fmt, tel=tel, traces=traces,
                enqueue_ns=enqueue_ns, slo=slo, tracer=tracer,
                dispatch_ns=start, sink=sink,
            )
        except BaseException as exc:  # noqa: BLE001 — forwarded, not dropped
            self.fail(exc, traces=traces, slo=slo, tracer=tracer)

    def _retire(self, traces, sink, dispatch_ns, finish_ns, status,
                tracer) -> None:
        """Stamp batch context into the sampled traces and park them."""
        for trace in traces:
            trace.dispatch_ns = dispatch_ns
            trace.finish_ns = finish_ns
            trace.batch_fill = len(self.requests)
            trace.batch_elements = self.elements
            trace.status = status
        if sink is not None:
            sink.fan_out(traces)
        if tracer is not None:
            tracer.retire_many(traces)


class MicroBatcher:
    """Per-group pending pools, drained when full or when asked.

    Groups are keyed by ``(mode, row_width)`` — row width only matters
    for softmax, whose rows must stack. A group that reaches
    ``max_batch_elements`` is ready at once. A group below the ceiling
    leaves only when the owning dispatcher has an executor free to run
    it (:meth:`take_ready` with a clock reading), and not before its
    oldest request has waited ``max_delay_us`` — the least time a group
    waits for company, 0 by default. While every executor is busy,
    groups keep filling. A single request larger than the batch ceiling
    is accepted and flushed alone: the ceiling bounds coalescing, not
    request size.
    """

    def __init__(self, max_batch_elements: int = 4096,
                 max_delay_us: float = 0.0,
                 max_pending_elements: int = 1 << 20):
        if max_batch_elements <= 0 or max_pending_elements <= 0:
            raise ServeError("batch and pending bounds must be positive")
        self.max_batch_elements = max_batch_elements
        self.max_delay_ns = int(max_delay_us * 1_000)
        self.max_pending_elements = max_pending_elements
        self._groups: Dict[Tuple[str, int], List[Request]] = {}
        self._group_elements: Dict[Tuple[str, int], int] = {}
        self._deadlines: Dict[Tuple[str, int], int] = {}
        self._pending_elements = 0
        self._full_groups = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_elements(self) -> int:
        return self._pending_elements

    @property
    def pending_requests(self) -> int:
        return sum(len(g) for g in self._groups.values())

    @property
    def has_full_group(self) -> bool:
        """Whether some group already holds a size-triggered flush.

        The dispatcher only needs a wake-up when this turns true (or
        when the pool was idle): a submit into a below-ceiling group
        changes nothing for a dispatcher that is waiting out a deadline
        or waiting for a busy executor, and skipping the notify avoids
        one pointless context switch per coalesced request.
        """
        return self._full_groups > 0

    def __bool__(self) -> bool:
        return bool(self._groups)

    # ------------------------------------------------------------------
    # Enqueue / drain (caller holds the server lock)
    # ------------------------------------------------------------------
    def offer(self, request: Request) -> bool:
        """Admit ``request`` unless the pending pool would overflow."""
        if self._pending_elements + request.elements > self.max_pending_elements:
            return False
        key = request.key
        group = self._groups.setdefault(key, [])
        if not group:
            self._deadlines[key] = request.enqueue_ns + self.max_delay_ns
        group.append(request)
        elements = self._group_elements.get(key, 0) + request.elements
        self._group_elements[key] = elements
        self._pending_elements += request.elements
        if (
            elements >= self.max_batch_elements
            and elements - request.elements < self.max_batch_elements
        ):
            self._full_groups += 1
        return True

    def take_ready(self, now_ns: Optional[int],
                   flush_all: bool = False) -> List[Batch]:
        """Pop every ready group as a batch.

        Full groups are always ready. ``now_ns`` is the dispatcher's
        clock while an executor is free, and then a group below the
        ceiling is ready too once its deadline has passed; ``None``
        means every executor is busy, so only full groups leave and the
        rest keep filling. ``flush_all`` pops everything (close).
        """
        ready: List[Batch] = []
        for key in list(self._groups):
            if (
                flush_all
                or self._group_elements[key] >= self.max_batch_elements
                or (now_ns is not None and now_ns >= self._deadlines[key])
            ):
                requests = self._groups.pop(key)
                elements = self._group_elements.pop(key)
                self._pending_elements -= elements
                if elements >= self.max_batch_elements:
                    self._full_groups -= 1
                self._deadlines.pop(key)
                ready.append(Batch(requests[0].mode, requests, elements))
        return ready

    def next_deadline_ns(self) -> Optional[int]:
        """The earliest pending flush deadline, or ``None`` when idle."""
        return min(self._deadlines.values()) if self._deadlines else None
