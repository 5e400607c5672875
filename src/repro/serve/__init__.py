"""The serving layer: shared table images + micro-batched inference.

Six pieces, separable and composable:

* :mod:`repro.serve.store` — publish compiled response tables once into
  shared memory (or map persisted ``.npz`` files in place) and attach N
  workers to one zero-copy image;
* :mod:`repro.serve.batcher` — coalesce single-sample and small-array
  requests into the large fused batches the vectorised datapath is
  fastest at, bit-identically and with explicit backpressure;
* :mod:`repro.serve.server` — the in-process ``submit()``/``close()``
  front end tying both to a dispatcher thread, with ``serve.*``
  telemetry; its admission, dispatcher and close are shared by the pool;
* :mod:`repro.serve.pool` — the scale-out tier: N forked worker
  processes attached read-only to one shared table image, batched
  hand-off through zero-copy shared-memory slot rings (a pickled pipe
  message carries only the batches a slot cannot: oversize, or every
  slot in flight), crash detection and restart — same client contract,
  same bytes;
* :mod:`repro.serve.frontend` — the asyncio front door: async
  ``submit()`` with admission control that sheds before queues grow,
  over either backend;
* :mod:`repro.serve.resilience` — the chaos defence: response
  verification (range/row-sum invariants, interleaved golden canaries),
  bounded retry, timeouts and worker quarantine — driven by a
  :class:`~repro.serve.resilience.ResponsePolicy` handed to the worker
  pool, the one place a batch is verified or retried.

``python -m repro.serve`` runs a self-contained demo server (add
``--pool N`` to demo the worker pool).
"""

from repro._lazy import lazy_names
from repro.errors import (
    BackpressureError,
    ResponseTimeoutError,
    ResponseVerificationError,
    ServeError,
    ServerClosedError,
    TornFrameError,
    WorkerCrashError,
)
from repro.serve.batcher import SERVABLE_MODES, Batch, MicroBatcher, Request
from repro.serve.pool import WorkerPool
from repro.serve.resilience import ResponsePolicy, ResponseVerifier
from repro.serve.server import InferenceServer
from repro.serve.store import (
    AttachedTableSource,
    MmapTableSource,
    RingManifest,
    RingSlotState,
    SharedTableStore,
    SlotRing,
    StoreManifest,
    TableEntry,
    mmap_table,
)

# The asyncio front door imports asyncio (and through it ssl), which
# neither serving tier uses: it loads on first access.
__getattr__ = lazy_names(globals(), {"AsyncFrontend": "repro.serve.frontend"})

__all__ = [
    "AsyncFrontend",
    "AttachedTableSource",
    "BackpressureError",
    "Batch",
    "InferenceServer",
    "MicroBatcher",
    "MmapTableSource",
    "Request",
    "ResponsePolicy",
    "ResponseTimeoutError",
    "ResponseVerificationError",
    "ResponseVerifier",
    "RingManifest",
    "RingSlotState",
    "SERVABLE_MODES",
    "ServeError",
    "ServerClosedError",
    "SharedTableStore",
    "SlotRing",
    "StoreManifest",
    "TableEntry",
    "TornFrameError",
    "WorkerCrashError",
    "WorkerPool",
    "mmap_table",
]
