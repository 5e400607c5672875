"""Sampled per-request tracing across the serving datapath.

One :class:`RequestTrace` follows a request from
``InferenceServer.submit()`` through micro-batcher coalescing, the
dispatcher, the engine, and the datapath's exp/divide/fold stages, plus
any fault-mitigation events (injected/detected/corrected) the request's
batch crossed — and lands in a bounded ring buffer for the trace report.

Three design rules keep this serving-grade:

* **Sampling is the admission control.** The tracer keeps every Nth
  request (``sample_every``, counter-based so a fixed request stream
  always samples the same requests). The dispatcher samples whole
  batches in one counter jump (:meth:`Tracer.sample_batch`), so
  unsampled requests pay *nothing* on the submit fast path.
* **Stage events are recorded once per batch, fanned out per trace.**
  A coalesced batch runs the engine once, so the dispatcher installs one
  thread-local :class:`StageSink` around the engine call; datapath
  stages emit into it only when it is present (one module-attribute load
  and a ``None`` check when tracing is off — the same contract as the
  telemetry and fault registries), and the finished event list is shared
  by every sampled trace in the batch.
* **The ring buffer bounds memory.** Retired traces go into a
  ``deque(maxlen=capacity)``; a soak that serves millions of requests
  holds at most ``capacity`` traces, the newest ones.

The tracer mirrors the telemetry registry: module-level ``_active``
reference, :func:`enable_tracing` / :func:`disable_tracing` /
:class:`use_tracer` scoping, and ``resolve(override)`` for injection.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "RequestTrace",
    "StageSink",
    "Tracer",
    "current_sink",
    "disable_tracing",
    "emit_fault",
    "enable_tracing",
    "get_tracer",
    "resolve",
    "set_tracer",
    "use_sink",
    "use_tracer",
]


class RequestTrace:
    """One sampled request's lifecycle, from submit to future resolution."""

    __slots__ = (
        "trace_id", "mode", "elements", "submit_ns", "dispatch_ns",
        "finish_ns", "batch_fill", "batch_elements", "stages", "faults",
        "status",
    )

    def __init__(self, trace_id: int, mode: str, elements: int,
                 submit_ns: Optional[int] = None):
        self.trace_id = trace_id
        self.mode = mode
        self.elements = elements
        self.submit_ns = (
            submit_ns if submit_ns is not None else time.perf_counter_ns()
        )
        self.dispatch_ns: Optional[int] = None
        self.finish_ns: Optional[int] = None
        #: How many requests / elements the owning batch fused.
        self.batch_fill: Optional[int] = None
        self.batch_elements: Optional[int] = None
        #: ``[name, start_ns, dur_ns]`` triples, start relative to submit.
        self.stages: List[List] = []
        #: Fault-mitigation event counts the batch crossed
        #: (``injected.<site>`` / ``corrected.parity`` / ...).
        self.faults: Dict[str, int] = {}
        #: ``ok`` / ``error`` / ``shed`` / ``pending``.
        self.status = "pending"

    # ------------------------------------------------------------------
    @property
    def queue_wait_ns(self) -> Optional[int]:
        if self.dispatch_ns is None:
            return None
        return self.dispatch_ns - self.submit_ns

    @property
    def latency_ns(self) -> Optional[int]:
        if self.finish_ns is None:
            return None
        return self.finish_ns - self.submit_ns

    def add_stage(self, name: str, start_ns: int, dur_ns: int) -> None:
        """Record one stage span (absolute start; stored submit-relative)."""
        self.stages.append([name, start_ns - self.submit_ns, dur_ns])

    def to_dict(self) -> dict:
        """JSON-able form for the JSONL dump and the timeline renderer."""
        return {
            "trace_id": self.trace_id,
            "mode": self.mode,
            "elements": self.elements,
            "status": self.status,
            "queue_wait_ns": self.queue_wait_ns,
            "latency_ns": self.latency_ns,
            "batch_fill": self.batch_fill,
            "batch_elements": self.batch_elements,
            "stages": [list(stage) for stage in self.stages],
            "faults": dict(self.faults),
        }

    def __repr__(self) -> str:
        return (
            f"<RequestTrace #{self.trace_id} {self.mode} "
            f"{self.elements} el, {self.status}>"
        )


class StageSink:
    """Per-batch event buffer the datapath stages emit into.

    The dispatcher installs one sink around each engine call; stages
    append ``(name, start_ns, dur_ns)`` and fault hooks add event
    counts. :meth:`fan_out` copies the collected batch timeline into
    every sampled member trace.
    """

    __slots__ = ("events", "faults")

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self.faults: Dict[str, int] = {}

    def emit(self, name: str, start_ns: int, dur_ns: int) -> None:
        self.events.append((name, start_ns, dur_ns))

    def emit_fault(self, name: str, n: int) -> None:
        self.faults[name] = self.faults.get(name, 0) + int(n)

    def fan_out(self, traces) -> None:
        for trace in traces:
            for name, start_ns, dur_ns in self.events:
                trace.add_stage(name, start_ns, dur_ns)
            for name, n in self.faults.items():
                trace.faults[name] = trace.faults.get(name, 0) + n


class Tracer:
    """Sampling policy + bounded retirement ring for finished traces."""

    def __init__(self, sample_every: int = 64, capacity: int = 1024):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sample_every = sample_every
        self.capacity = capacity
        self._seen = 0
        self._ids = itertools.count()
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def maybe_trace(self, mode: str, elements: int,
                    submit_ns: Optional[int] = None) -> Optional[RequestTrace]:
        """A new trace for every ``sample_every``-th call, else ``None``.

        Counter-based (not random): a fixed request stream samples the
        same requests every run, which keeps smoke tests deterministic.
        """
        seen = self._seen
        self._seen = seen + 1
        if seen % self.sample_every:
            return None
        return self.begin(mode, elements, submit_ns)

    def sample_batch(self, n: int) -> range:
        """The local indices sampled among the next ``n`` requests.

        One counter jump replaces ``n`` :meth:`maybe_trace` calls — the
        dispatcher asks once per coalesced batch and touches only the
        sampled members, so unsampled requests cost *nothing*. The
        selected positions are exactly the ones ``n`` sequential
        :meth:`maybe_trace` calls would have sampled.
        """
        start = self._seen
        self._seen = start + n
        return range(-start % self.sample_every, n, self.sample_every)

    def begin(self, mode: str, elements: int,
              submit_ns: Optional[int] = None) -> RequestTrace:
        """Open a trace unconditionally (sampling already decided)."""
        return RequestTrace(next(self._ids), mode, elements, submit_ns)

    def retire(self, trace: RequestTrace) -> None:
        """Park a finished trace in the ring (oldest evicted first)."""
        with self._lock:
            self._ring.append(trace)

    def retire_many(self, traces) -> None:
        """Park a batch of finished traces under one lock acquisition."""
        with self._lock:
            self._ring.extend(traces)

    def traces(self) -> List[RequestTrace]:
        """The retained traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def snapshot(self) -> List[dict]:
        """JSON-able dicts of the retained traces, oldest first."""
        return [trace.to_dict() for trace in self.traces()]

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"<Tracer 1/{self.sample_every} sampling, "
            f"{len(self._ring)}/{self.capacity} retained>"
        )


# ----------------------------------------------------------------------
# Module registry (mirrors repro.telemetry.collector)
# ----------------------------------------------------------------------
_active: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The registered tracer, or ``None`` when tracing is off."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or ``None`` to disable); returns the old one."""
    global _active
    previous = _active
    _active = tracer
    return previous


def enable_tracing(tracer: Optional[Tracer] = None, **kwargs) -> Tracer:
    """Turn tracing on process-wide; returns the active tracer."""
    global _active
    if tracer is None:
        tracer = _active if _active is not None else Tracer(**kwargs)
    _active = tracer
    return tracer


def disable_tracing() -> Optional[Tracer]:
    """Turn tracing off; returns the tracer that was active."""
    return set_tracer(None)


def resolve(override: Optional[Tracer] = None) -> Optional[Tracer]:
    """Injected tracer wins; otherwise the module registry decides."""
    return override if override is not None else _active


class use_tracer:
    """``with use_tracer(t):`` — scoped registry install, for tests."""

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tracer(self._previous)


# ----------------------------------------------------------------------
# Thread-local stage-sink context (set per batch by the dispatcher)
# ----------------------------------------------------------------------
_sink_local = threading.local()


def current_sink() -> Optional[StageSink]:
    """The batch's stage sink on this thread, or ``None`` — the one check
    every datapath stage hook pays when tracing is off."""
    return getattr(_sink_local, "sink", None)


class use_sink:
    """``with use_sink(sink):`` — scoped install on the current thread."""

    def __init__(self, sink: Optional[StageSink]):
        self._sink = sink
        self._previous: Optional[StageSink] = None

    def __enter__(self) -> Optional[StageSink]:
        self._previous = getattr(_sink_local, "sink", None)
        _sink_local.sink = self._sink
        return self._sink

    def __exit__(self, exc_type, exc, tb) -> None:
        _sink_local.sink = self._previous


def emit_fault(name: str, n: int) -> None:
    """Attach a fault-event count to the current sink, if one is installed."""
    sink = getattr(_sink_local, "sink", None)
    if sink is not None:
        sink.emit_fault(name, n)
