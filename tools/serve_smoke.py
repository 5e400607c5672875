#!/usr/bin/env python
"""CI smoke check for the micro-batching inference server.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--seed N] [--workers N]
        [--pool-workers N]

Publishes one shared table image, attaches a server to it, and fires 64
concurrent mixed-mode requests (sigmoid / tanh / exp / softmax, scalars
and small arrays) from four client threads. Every response must be
raw-bit-identical to a direct :class:`BatchEngine` evaluation, the
server must have attached to the published image instead of compiling
private tables, backpressure must shed loudly when provoked, and the
server must shut down cleanly with nothing left pending.

The same stream then runs through a forked :class:`WorkerPool`: every
worker must survive the storm, every pooled response must match the
serial engine bit for bit, the merged parent+worker telemetry must
account for each request, and the batches must have ridden the
shared-memory slot rings. When ``$REPRO_NACU_CACHE_DIR`` is set (the CI
table cache), the pool publishes from the persisted cache so warm runs
skip the table compile entirely.

Exits 0 when every check holds, 1 otherwise, printing one line per
check so CI logs show exactly what broke.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import threading

# Allow running straight from a checkout without PYTHONPATH.
_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.compile import TableCache, default_persist_dir  # noqa: E402
from repro.engine import BatchEngine  # noqa: E402
from repro.errors import BackpressureError, WorkerCrashError  # noqa: E402
from repro.loadgen import RequestMix, make_requests  # noqa: E402
from repro.nacu.config import NacuConfig  # noqa: E402
from repro.serve import (  # noqa: E402
    AttachedTableSource,
    InferenceServer,
    SharedTableStore,
    WorkerPool,
)
from repro.telemetry import Collector, use_collector  # noqa: E402

N_BITS = 12
N_REQUESTS = 64
N_CLIENTS = 4


def _check(ok: bool, label: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'}  {label}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="request stream seed (default 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="server worker threads (default 1)")
    parser.add_argument("--pool-workers", type=int, default=2,
                        help="forked pool workers (default 2)")
    args = parser.parse_args(argv)

    config = NacuConfig.for_bits(N_BITS)
    reference = BatchEngine(config=config, fast=True, table_cache=TableCache())
    requests = make_requests(
        N_REQUESTS, RequestMix(max_elements=8, max_row=6), rng=args.seed
    )
    collector = Collector()
    futures = {}

    with SharedTableStore() as store:
        store.publish(config, cache=TableCache())
        with AttachedTableSource(store.manifest()) as source:
            with use_collector(collector):
                server = InferenceServer(
                    config=config, table_source=source,
                    workers=args.workers, max_delay_us=500.0,
                )

                def client(offset: int) -> None:
                    for i in range(offset, N_REQUESTS, N_CLIENTS):
                        mode, x = requests[i]
                        futures[i] = server.submit(x, mode=mode)

                threads = [
                    threading.Thread(target=client, args=(k,))
                    for k in range(N_CLIENTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                resolved = {
                    i: future.result(timeout=60)
                    for i, future in futures.items()
                }
                server.close()

    ok = _check(len(resolved) == N_REQUESTS,
                f"all {N_REQUESTS} concurrent requests resolved")
    mismatches = [
        i for i, (mode, x) in enumerate(requests)
        if not np.array_equal(resolved[i], getattr(reference, mode)(x))
    ]
    ok &= _check(not mismatches,
                 "every response is bit-identical to the direct engine "
                 f"(mismatches={mismatches or 'none'})")

    counters = collector.snapshot()["counters"]
    ok &= _check(counters.get("serve.requests") == N_REQUESTS,
                 f"server counted the stream "
                 f"(serve.requests={counters.get('serve.requests')})")
    ok &= _check(1 <= counters.get("serve.batches", 0) <= N_REQUESTS,
                 f"requests were fused "
                 f"(serve.batches={counters.get('serve.batches')})")
    ok &= _check(counters.get("compile.attach_hits", 0) >= 1,
                 "server attached to the shared table image "
                 f"(attach_hits={counters.get('compile.attach_hits')})")
    ok &= _check(counters.get("compile.tables_compiled") is None,
                 "no private table was compiled")
    ok &= _check(server.closed, "server reports closed after close()")

    # Backpressure must be loud: a parked server with a tiny pending
    # pool sheds the overflow request with a distinct error.
    shed_collector = Collector()
    with use_collector(shed_collector):
        parked = InferenceServer(
            n_bits=N_BITS, max_delay_us=10_000_000,
            max_batch_elements=1 << 20, max_pending_elements=2,
        )
        admitted = [parked.submit(0.1), parked.submit(0.2)]
        try:
            parked.submit(0.3)
            shed_loudly = False
        except BackpressureError:
            shed_loudly = True
        parked.close()
    ok &= _check(shed_loudly, "overflow submit raises BackpressureError")
    shed_counters = shed_collector.snapshot()["counters"]
    ok &= _check(shed_counters.get("serve.shed") == 1,
                 f"shed is counted (serve.shed={shed_counters.get('serve.shed')})")
    ok &= _check(all(f.done() for f in admitted),
                 "admitted requests still served through close()")

    # Worker pool: the same stream through forked processes. Any worker
    # death, any response diverging from the serial engine, or any gap
    # in the merged accounting fails the smoke.
    publish_cache = (
        TableCache(persist_dir=default_persist_dir())
        if os.environ.get("REPRO_NACU_CACHE_DIR") else None
    )
    pool_collector = Collector()
    pool = WorkerPool(
        config=config, workers=args.pool_workers, max_delay_us=500.0,
        publish_cache=publish_cache, collector=pool_collector,
    )
    pool_resolved = {}
    crashes = 0
    try:
        pool_futures = {
            i: pool.submit(x, mode=mode)
            for i, (mode, x) in enumerate(requests)
        }
        for i, future in pool_futures.items():
            try:
                pool_resolved[i] = future.result(timeout=120)
            except WorkerCrashError:
                crashes += 1
        alive = pool.alive_workers()
        merged = pool.telemetry_snapshot()
    finally:
        pool.close()

    ok &= _check(crashes == 0 and len(pool_resolved) == N_REQUESTS,
                 f"pool resolved all {N_REQUESTS} requests "
                 f"({args.pool_workers} workers, crashes={crashes})")
    pool_mismatches = [
        i for i, (mode, x) in enumerate(requests)
        if i not in pool_resolved
        or not np.array_equal(pool_resolved[i], getattr(reference, mode)(x))
    ]
    ok &= _check(not pool_mismatches,
                 "every pooled response is bit-identical to the direct "
                 f"engine (mismatches={pool_mismatches or 'none'})")
    ok &= _check(alive == args.pool_workers,
                 f"every worker survived the storm "
                 f"(alive={alive}/{args.pool_workers})")
    pool_counters = merged["counters"]
    ok &= _check(pool_counters.get("serve.pool.worker_deaths") is None,
                 "no worker died mid-stream")
    ok &= _check(pool_counters.get("serve.requests") == N_REQUESTS,
                 f"merged snapshot counted the stream "
                 f"(serve.requests={pool_counters.get('serve.requests')})")
    ok &= _check(
        pool_counters.get("serve.pool.worker_started") == args.pool_workers,
        f"every worker snapshot crossed the pipe "
        f"(worker_started={pool_counters.get('serve.pool.worker_started')})")
    dispatched = pool_counters.get("serve.pool.ring_dispatched", 0)
    ok &= _check(dispatched >= 1,
                 f"batches actually rode the ring "
                 f"(ring_dispatched={dispatched})")
    ok &= _check(pool.alive_workers() == 0,
                 "workers exited after pool close()")

    print("serve smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
