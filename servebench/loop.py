"""The closed loop: one client thread, a fixed window of requests in flight.

``run_phase`` keeps exactly ``window`` requests outstanding and submits
the next one as soon as any completes (``window=1`` is the idle phase).
Round trips are stamped at ``submit()`` and in the future's
done-callback; the callback only stamps and hands the future back, and
the client thread checks each response against the stream's oracle as
it comes round to submit again, so the check costs the same on every
backend and never runs on a serving thread.

Buffers are preallocated and fixed in size: latencies of the last
``LATENCY_CAPACITY`` completions are kept, so a faster program does not
grow the benchmark's own memory.
"""

from __future__ import annotations

import collections
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

LATENCY_CAPACITY = 1 << 16
DRAIN_TIMEOUT_S = 60.0


@dataclass
class PhaseResult:
    """What one closed-loop phase attempted, completed and timed."""

    window: int
    start_ns: int
    end_ns: int
    attempted: int = 0
    completed: int = 0
    errors: int = 0
    sheds: int = 0
    mismatches: int = 0
    #: Completions per wall second in each equal slice of the phase.
    slice_rates: List[float] = field(default_factory=list)
    #: Submit and done stamps of the last LATENCY_CAPACITY completions.
    starts_ns: np.ndarray = field(default=None, repr=False)
    ends_ns: np.ndarray = field(default=None, repr=False)
    #: Requests that were still outstanding when the drain gave up.
    lost: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.sheds + self.mismatches + self.lost

    @property
    def correct(self) -> int:
        return self.completed - self.mismatches

    @property
    def latencies_ns(self) -> np.ndarray:
        return self.ends_ns - self.starts_ns


def _done(queue, permits, index, t0, future) -> None:
    queue.append((index, t0, time.perf_counter_ns(), future))
    permits.release()


def run_phase(backend, stream, window: int, seconds: float, *,
              slices: int = 1, before_submit=None) -> PhaseResult:
    """Drive ``backend`` closed-loop for ``seconds`` and drain.

    Requests are taken from ``stream`` cyclically from its start.
    ``before_submit(k)`` is called with the running request number just
    before each ``submit()`` (the traced run keys its spans by it).
    """
    from repro.errors import BackpressureError

    permits = threading.Semaphore(window)
    queue: collections.deque = collections.deque()
    starts = np.zeros(LATENCY_CAPACITY, dtype=np.int64)
    ends = np.zeros(LATENCY_CAPACITY, dtype=np.int64)
    counts = [0] * slices
    size = len(stream)
    start = time.perf_counter_ns()
    end = start + int(seconds * 1e9)
    slice_ns = max((end - start) // slices, 1)
    result = PhaseResult(window=window, start_ns=start, end_ns=end)
    issued = 0

    def settle() -> None:
        while queue:
            index, t0, t1, future = queue.popleft()
            exc = future.exception()
            if exc is not None:
                result.errors += 1
                continue
            if not stream.matches(index, future.result()):
                result.mismatches += 1
            slot = result.completed % LATENCY_CAPACITY
            starts[slot] = t0
            ends[slot] = t1
            result.completed += 1
            k = (t1 - start) // slice_ns
            if k < slices:
                counts[k] += 1

    while True:
        permits.acquire()
        settle()
        if time.perf_counter_ns() >= end:
            break
        index = issued % size
        if before_submit is not None:
            before_submit(issued)
        issued += 1
        result.attempted += 1
        t0 = time.perf_counter_ns()
        try:
            future = backend.submit(stream.inputs[index],
                                    mode=stream.modes[index])
        except BackpressureError:
            result.sheds += 1
            permits.release()
            continue
        except Exception:  # noqa: BLE001 — every refusal is a failure
            result.errors += 1
            permits.release()
            continue
        future.add_done_callback(
            functools.partial(_done, queue, permits, index, t0)
        )
    # One permit is held; collect the other window - 1 as they return.
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for held in range(1, window):
        if not permits.acquire(timeout=max(deadline - time.monotonic(), 0)):
            result.lost = window - held
            break
    settle()
    result.end_ns = max(end, time.perf_counter_ns())
    kept = min(result.completed, LATENCY_CAPACITY)
    result.starts_ns = starts[:kept].copy()
    result.ends_ns = ends[:kept].copy()
    result.slice_rates = [c * 1e9 / slice_ns for c in counts]
    return result


def merge(phases: List[PhaseResult]) -> PhaseResult:
    """One result for several rounds of the same phase."""
    out = PhaseResult(window=phases[0].window, start_ns=phases[0].start_ns,
                      end_ns=phases[-1].end_ns)
    for phase in phases:
        out.attempted += phase.attempted
        out.completed += phase.completed
        out.errors += phase.errors
        out.sheds += phase.sheds
        out.mismatches += phase.mismatches
        out.lost += phase.lost
        out.slice_rates += phase.slice_rates
    out.starts_ns = np.concatenate([p.starts_ns for p in phases])
    out.ends_ns = np.concatenate([p.ends_ns for p in phases])
    return out


def percentile_ms(latencies_ns: np.ndarray, q: float) -> float:
    if latencies_ns.size == 0:
        return float("nan")
    return float(np.percentile(latencies_ns, q)) / 1e6


def tail_percentiles(count: int) -> List[float]:
    """Of p90, p99 and p99.9, those with at least ten samples beyond."""
    return [q for q in (90.0, 99.0, 99.9) if count * (100.0 - q) / 100.0 >= 10]
