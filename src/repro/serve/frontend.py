"""The asyncio front door: admission-controlled async submission.

:class:`AsyncFrontend` puts an event loop in front of either serving
backend — the in-process :class:`~repro.serve.server.InferenceServer`
or the multi-process :class:`~repro.serve.pool.WorkerPool` — without
adding a thread of its own. ``await frontend.submit(x)`` validates and
enqueues on the caller's loop (quantising waits for the batch),
hands the backend's :class:`concurrent.futures.Future` to
:func:`asyncio.wrap_future`, and suspends the coroutine until a
dispatcher or worker resolves it. Ten thousand coroutines awaiting
responses cost ten thousand suspended frames, not ten thousand threads.

Admission control happens **here**, before the backend's queue is ever
touched: the frontend tracks its own in-flight count and sheds with
:class:`~repro.errors.BackpressureError` the moment ``max_inflight``
awaited requests are outstanding. That bounds end-to-end latency at the
earliest possible point — a request that would only sit behind an
already-deep queue is refused while it is still cheap to refuse, the
shed is counted (``serve.frontend.shed``) and burns SLO error budget
exactly like a backend shed. The backend's own element-bounded pool is
the second line of defence; its sheds propagate unchanged.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Union

from repro.errors import BackpressureError
from repro.nacu.config import FunctionMode
from repro.telemetry import collector as _telemetry


class AsyncFrontend:
    """Async facade with in-flight admission control over a backend.

    Wraps any object with the serving contract (``submit(x, mode, axis)
    -> Future``, ``close(flush)``, optional ``collector``/``slo``
    attributes). Not thread-safe by design: one frontend belongs to one
    event loop, where single-threaded execution makes the admission
    check race-free.
    """

    def __init__(self, backend, *, max_inflight: int = 4096):
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.backend = backend
        self.max_inflight = max_inflight
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Requests admitted here and not yet resolved."""
        return self._inflight

    async def submit(
        self,
        x,
        mode: Union[FunctionMode, str] = FunctionMode.SIGMOID,
        axis: int = -1,
    ):
        """Admit, enqueue, and await one evaluation.

        Returns the resolved result (floats in, floats out; fixed-point
        in, fixed-point out — the backend's contract). Raises
        :class:`BackpressureError` when ``max_inflight`` requests are
        already awaited (counted under ``serve.frontend.shed``) and
        propagates backend sheds and evaluation errors unchanged. A
        batch lost with a crashed worker is retried, if at all, by the
        pool's response policy (``WorkerPool(resilience=...)``), which
        counts every attempt; the error that reaches here is final.
        """
        if self._inflight >= self.max_inflight:
            self._shed()
            raise BackpressureError(
                f"frontend at max_inflight={self.max_inflight}; retry later"
            )
        self._inflight += 1
        try:
            future = self.backend.submit(x, mode=mode, axis=axis)
            return await asyncio.wrap_future(future)
        finally:
            self._inflight -= 1

    async def close(self, flush: bool = True) -> None:
        """Drain the backend off-loop (its close joins threads/processes)."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, lambda: self.backend.close(flush))

    async def __aenter__(self) -> "AsyncFrontend":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _shed(self) -> None:
        tel = _telemetry.resolve(getattr(self.backend, "collector", None))
        if tel is not None:
            tel.count("serve.frontend.shed")
        slo = getattr(self.backend, "slo", None)
        if slo is not None:
            slo.record_shed()

    def __repr__(self) -> str:
        return (
            f"<AsyncFrontend {self._inflight}/{self.max_inflight} in flight "
            f"over {self.backend!r}>"
        )
