"""Worker-pool scaling soak: req/s and p99 vs worker count, bit-exact.

Not a paper figure: this bench pins the pool's scaling and accounting
criteria (``pool_scaling``) and the ring's advantage over its pipe
overflow lane (``pool_transport``).

``pool_scaling`` drives the same ≥4096-request mixed-mode closed-loop
storm through a :class:`~repro.serve.pool.WorkerPool` at 1, 2 and 4
workers and through the serial :class:`~repro.engine.BatchEngine`, and
asserts three things:

* **bit identity** — every pooled response, at every worker count,
  equals the serial engine's output byte for byte (the pool ships raw
  words through the same :func:`~repro.serve.batcher.evaluate_fused`
  kernel over one shared table image, so anything else is a bug);
* **exact observability** — the merged parent+worker telemetry
  snapshot accounts for every request: ``serve.requests`` equals the
  storm size, each mode's latency-quantile entry counts exactly the
  requests of that mode, SLO good+bad+shed covers the storm with no
  double counting, and folding the worker snapshots in does not perturb
  a single latency bucket (the merge is exact, not approximate);
* **scaling** — on a host with ≥4 CPUs, 4 workers must clear ≥1.8x the
  1-worker req/s. On smaller hosts there is no second core to overlap
  forked workers on, so the bench **documents the CPU-count ceiling in
  its result rows** (``host_cpus``, ``cpu_bound`` columns) and asserts
  the parity half of the criterion — identity and exact accounting at
  every worker count — instead of a speedup no hardware could show.

``pool_transport`` isolates the IPC lane itself: one worker, serial
round-trips of large fixed-point sigmoid batches (so per-batch
serialize+copy cost dominates compute), rounds **interleaved** between
the shared-memory ring and the pickled-pipe overflow lane so drift hits
both equally. The pipe side is a pool whose one-element ring slots no
batch fits, so every batch overflows (``serve.pool.ring_oversize``).
Each row carries the per-batch accounting that makes the win
attributable — bytes/batch from ``serve.pool.ipc_bytes``, parent-side
serialize+copy µs from the ``serve.pool.ship`` timer, and batches/s —
and the ring must clear ``MIN_RING_SPEEDUP`` (2x) the pipe's 1-worker
req/s with byte-identical responses.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.experiments.result import ExperimentResult
from repro.fixedpoint import FxArray
from repro.loadgen import LoadGenerator, make_requests
from repro.nacu.config import NacuConfig
from repro.serve import ResponsePolicy, WorkerPool
from repro.telemetry import (
    Collector,
    SLOPolicy,
    quantiles_from_entry,
    set_collector,
)

N_BITS = 12
N_REQUESTS = 4096
WORKER_COUNTS = (1, 2, 4)
CONCURRENCY = 8
MIN_SPEEDUP_4V1 = 1.8
#: Generous soak target: the SLO assertions below are about *exact
#: accounting* (good+bad+shed == offered), not about meeting a latency
#: bar on whatever box CI landed on.
SLO_MS = 500.0


@pytest.fixture(autouse=True)
def registry_off():
    previous = set_collector(None)
    yield
    set_collector(previous)


def test_pool_scaling_req_per_s_and_exactness(record_result):
    requests = make_requests(N_REQUESTS, rng=23)
    mode_counts = {}
    for mode, _ in requests:
        mode_counts[mode] = mode_counts.get(mode, 0) + 1
    reference = BatchEngine.for_bits(N_BITS, fast=True)

    host_cpus = os.cpu_count() or 1
    cpu_bound = host_cpus < max(WORKER_COUNTS)
    rows = []
    req_per_s = {}

    for workers in WORKER_COUNTS:
        collector = Collector()
        policy = SLOPolicy("serve", latency_ms=SLO_MS)
        pool = WorkerPool(
            n_bits=N_BITS, workers=workers, collector=collector,
            slo=policy,
        )
        try:
            generator = LoadGenerator(pool, verify_engine=reference)
            # Untimed warm-up so every worker has attached and served
            # before the measured storm (first-touch page faults and the
            # private fallback compile, if any, stay out of the timing).
            generator.run_closed(requests[:64], concurrency=CONCURRENCY)
            report = generator.run_closed(
                requests, concurrency=CONCURRENCY
            )
            parent_snapshot = collector.snapshot()
            merged = pool.telemetry_snapshot()
        finally:
            pool.close()
        final = pool.telemetry_snapshot()  # parent + drained finals

        # -- bit identity at this worker count ------------------------
        assert report.errors == 0, f"{workers}w: {report.errors} errors"
        assert report.sheds == 0, f"{workers}w: unexpected sheds"
        assert report.completed == N_REQUESTS
        assert report.mismatches == 0, (
            f"{workers}w: {report.mismatches} responses diverged from "
            f"the serial engine"
        )

        # -- exact merged accounting ----------------------------------
        offered = N_REQUESTS + 64
        for snapshot in (merged, final):
            counters = snapshot["counters"]
            assert counters["serve.requests"] == offered
            slo_total = (
                counters.get("slo.serve.good", 0)
                + counters.get("slo.serve.bad", 0)
                + counters.get("slo.serve.shed", 0)
            )
            assert slo_total == offered, counters
        # Folding worker snapshots in must not touch one latency
        # bucket: the request-latency fold lives in the parent, and the
        # merge is exact — byte-identical quantile state, not close.
        assert (
            json.dumps(final["quantiles"], sort_keys=True)
            == json.dumps(parent_snapshot["quantiles"], sort_keys=True)
        )
        for mode, count in mode_counts.items():
            entry = final["quantiles"][f"serve.latency.{mode}"]
            warm = sum(1 for m, _ in requests[:64] if m == mode)
            assert entry["count"] == count + warm, (mode, entry["count"])
        # The worker halves really did cross the pipe into the merge.
        assert final["counters"]["serve.pool.worker_started"] == workers

        sig = quantiles_from_entry(
            final["quantiles"]["serve.latency.sigmoid"], (0.5, 0.99)
        )
        req_per_s[workers] = report.req_per_s
        rows.append({
            "workers": workers,
            "requests": N_REQUESTS,
            "req_per_s": round(report.req_per_s),
            "client_p50_ms": round(report.p50_ms, 2),
            "client_p99_ms": round(report.p99_ms, 2),
            "served_sigmoid_p50_us": round(sig["p50"] / 1e3, 1),
            "served_sigmoid_p99_us": round(sig["p99"] / 1e3, 1),
            "identical": report.mismatches == 0,
            "host_cpus": host_cpus,
            "cpu_bound": cpu_bound,
        })

    # One armed-resilience point: the same storm through a verifying,
    # canary-interleaving pool (no fault plan) — the clean-path price of
    # the chaos defences in the same units as the scaling rows, and the
    # bit-identity guarantee they must not break.
    collector = Collector()
    pool = WorkerPool(
        n_bits=N_BITS, workers=2, collector=collector,
        resilience=ResponsePolicy(canary_every=8, max_retries=2),
    )
    try:
        generator = LoadGenerator(pool, verify_engine=reference)
        generator.run_closed(requests[:64], concurrency=CONCURRENCY)
        resilient = generator.run_closed(requests, concurrency=CONCURRENCY)
    finally:
        pool.close()
    final = pool.telemetry_snapshot()
    assert resilient.errors == 0 and resilient.sheds == 0
    assert resilient.mismatches == 0, (
        f"resilient pool: {resilient.mismatches} responses diverged "
        f"from the serial engine"
    )
    assert final["counters"]["serve.requests"] == N_REQUESTS + 64
    assert final["counters"].get("serve.resilience.canaries", 0) > 0
    assert final["counters"].get("serve.resilience.verify_failures", 0) == 0
    sig = quantiles_from_entry(
        final["quantiles"]["serve.latency.sigmoid"], (0.5, 0.99)
    )
    rows.append({
        "workers": "2 resilient",
        "requests": N_REQUESTS,
        "req_per_s": round(resilient.req_per_s),
        "client_p50_ms": round(resilient.p50_ms, 2),
        "client_p99_ms": round(resilient.p99_ms, 2),
        "served_sigmoid_p50_us": round(sig["p50"] / 1e3, 1),
        "served_sigmoid_p99_us": round(sig["p99"] / 1e3, 1),
        "identical": resilient.mismatches == 0,
        "host_cpus": host_cpus,
        "cpu_bound": cpu_bound,
    })

    speedup = req_per_s[4] / req_per_s[1]
    rows.append({
        "workers": "4 vs 1",
        "requests": N_REQUESTS,
        "req_per_s": round(speedup, 2),
        "client_p50_ms": None,
        "client_p99_ms": None,
        "served_sigmoid_p50_us": None,
        "served_sigmoid_p99_us": None,
        "identical": True,
        "host_cpus": host_cpus,
        "cpu_bound": cpu_bound,
    })
    claim = (
        f"(harness) 4 workers serve >= {MIN_SPEEDUP_4V1}x the 1-worker "
        f"req/s on a >=4-CPU host, bit-identically and with exact merged "
        f"telemetry; on a {host_cpus}-CPU host the speedup is "
        f"CPU-ceiling-bound, so identity + exact accounting are the "
        f"asserted halves"
        if cpu_bound else
        f"(harness) 4 workers serve >= {MIN_SPEEDUP_4V1}x the 1-worker "
        f"req/s, bit-identically and with exact merged telemetry"
    )
    record_result(
        ExperimentResult(
            experiment_id="pool_scaling",
            title=f"Worker-pool scaling ({N_REQUESTS} mixed-mode requests, "
            f"{N_BITS}-bit, closed loop x{CONCURRENCY}, "
            f"{host_cpus}-CPU host)",
            paper_claim=claim,
            rows=rows,
        )
    )
    if not cpu_bound:
        assert speedup >= MIN_SPEEDUP_4V1, (
            f"4-worker speedup {speedup:.2f}x < {MIN_SPEEDUP_4V1}x"
        )
    # On a CPU-bound host the speedup assertion has no hardware to run
    # on; identity and exactness were asserted per worker count above.


# ----------------------------------------------------------------------
# The IPC lane — ring vs its pickled-pipe overflow, attributed
# ----------------------------------------------------------------------
#: Large enough that per-batch IPC (512 KiB of raw words each way)
#: dominates the worker's table-lookup compute; the pipe has to chunk
#: and copy it through the kernel, the ring memcpys it into place.
TRANSPORT_ELEMENTS = 65536
TRANSPORT_BATCHES = 32
TRANSPORT_ROUNDS = 3
MIN_RING_SPEEDUP = 2.0


def test_transport_ring_vs_pipe(record_result):
    config = NacuConfig.for_bits(N_BITS)
    fmt = config.io_fmt
    rng = np.random.default_rng(11)
    x = FxArray.from_float(
        rng.uniform(fmt.min_value / 2, fmt.max_value / 2,
                    size=(TRANSPORT_ELEMENTS,)),
        fmt,
    )
    reference = BatchEngine(config=config, fast=True)
    want = reference.sigmoid_fx(x).raw

    pools = {}
    # One-element slots send every batch over the pipe as oversize; the
    # default slots (two batch ceilings) take every batch on the ring.
    slot_elements = {"pipe": 1, "ring": None}
    for transport, elements in slot_elements.items():
        pools[transport] = WorkerPool(
            config=config, workers=1, collector=Collector(),
            max_batch_elements=TRANSPORT_ELEMENTS,
            ring_slot_elements=elements,
        )

    best = {"pipe": 0.0, "ring": 0.0}
    outputs = {}
    try:
        # Warm both lanes (first-touch faults, table attach) untimed.
        for transport, pool in pools.items():
            for _ in range(4):
                outputs[transport] = pool.submit(
                    x, mode="sigmoid"
                ).result(timeout=120)
        # Interleave the timed rounds so clock drift, page cache and
        # scheduler noise land on both transports, not just the second.
        for _ in range(TRANSPORT_ROUNDS):
            for transport, pool in pools.items():
                start = time.perf_counter()
                for _ in range(TRANSPORT_BATCHES):
                    got = pool.submit(x, mode="sigmoid").result(timeout=120)
                elapsed = time.perf_counter() - start
                best[transport] = max(
                    best[transport], TRANSPORT_BATCHES / elapsed
                )
                outputs[transport] = got
        snapshots = {
            transport: pool.telemetry_snapshot()
            for transport, pool in pools.items()
        }
    finally:
        for pool in pools.values():
            pool.close()

    # Bit identity: both transports equal the serial engine — and so
    # each other — byte for byte. Each submit is one fused batch, so
    # batches/s here *is* the 1-worker pooled req/s.
    for transport, got in outputs.items():
        assert np.array_equal(np.asarray(got.raw), want), (
            f"{transport}: pooled sigmoid diverged from the serial engine"
        )

    rows = []
    for transport in ("pipe", "ring"):
        counters = snapshots[transport]["counters"]
        dispatched = counters.get(f"serve.pool.{transport}_dispatched", 0)
        assert dispatched >= TRANSPORT_ROUNDS * TRANSPORT_BATCHES, (
            f"{transport}: batches leaked off the measured lane "
            f"({transport}_dispatched={dispatched})"
        )
        # ipc_bytes counts request bytes in the parent and response
        # bytes in the worker, so per batch it is both directions.
        bytes_per_batch = counters["serve.pool.ipc_bytes"] / dispatched
        ship = snapshots[transport]["timers"]["serve.pool.ship"]
        ship_us = ship["total_ns"] / ship["count"] / 1e3
        rows.append({
            "transport": transport,
            "workers": 1,
            "batch_elements": TRANSPORT_ELEMENTS,
            "batches_per_s": round(best[transport]),
            "bytes_per_batch": round(bytes_per_batch),
            "ship_us_per_batch": round(ship_us),
            "speedup_vs_pipe": round(best[transport] / best["pipe"], 2),
            "identical": True,
        })

    ratio = best["ring"] / best["pipe"]
    record_result(
        ExperimentResult(
            experiment_id="pool_transport",
            title=f"Pool IPC transport: shm slot ring vs pickled pipe "
            f"({TRANSPORT_ELEMENTS}-element sigmoid batches, 1 worker, "
            f"interleaved rounds)",
            paper_claim=f"(harness) the zero-copy ring transport serves "
            f">= {MIN_RING_SPEEDUP}x the pickled-pipe 1-worker pooled "
            f"req/s at {TRANSPORT_ELEMENTS}-element batches, "
            f"bit-identically",
            rows=rows,
        )
    )
    assert ratio >= MIN_RING_SPEEDUP, (
        f"ring transport {ratio:.2f}x pipe < {MIN_RING_SPEEDUP}x "
        f"(ring {best['ring']:.0f} vs pipe {best['pipe']:.0f} batches/s)"
    )
