"""Demo server: a mixed-mode request storm through the micro-batcher.

Usage::

    PYTHONPATH=src python -m repro.serve [--bits 16] [--requests 2048]
        [--clients 4] [--workers 1] [--pool N] [--max-batch 4096]
        [--delay-us 0] [--report] [--trace] [--trace-sample 16]
        [--slo-ms 50] [--prom-out metrics.prom] [--trace-out traces.jsonl]

Spins up an :class:`~repro.serve.server.InferenceServer` — or, with
``--pool N``, a :class:`~repro.serve.pool.WorkerPool` of N forked
worker processes on one shared table image — fires a storm of
single-sample and small-array sigmoid/tanh/exp/softmax requests from
concurrent client threads, checks every response against a direct
engine call, and prints throughput plus the ``serve.*`` telemetry the
run produced (for a pool, merged exactly across every worker) — including per-mode p50/p99/p999 latency and, with
``--slo-ms``, the SLO budget view. ``--trace`` samples per-request
traces (``--trace-out`` dumps them as JSONL for
``tools/trace_report.py``; ``--prom-out`` writes the Prometheus text
exposition). Exits non-zero if any response mismatches — the demo
doubles as an end-to-end sanity check.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import threading
import time

import numpy as np

from repro.engine import BatchEngine
from repro.loadgen import make_requests
from repro.serve import InferenceServer, WorkerPool
from repro.telemetry import (
    Collector,
    SLOPolicy,
    Tracer,
    quantiles_from_entry,
    render_prometheus,
    slo_summary,
    use_collector,
    write_traces_jsonl,
)
from repro.telemetry.report import render_snapshot

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bits", type=int, default=16)
    parser.add_argument("--requests", type=int, default=2048)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--pool", type=int, default=None, metavar="N",
                        help="serve through a WorkerPool of N forked "
                             "processes instead of the in-process server")
    parser.add_argument("--max-batch", type=int, default=4096)
    parser.add_argument("--delay-us", type=float, default=None,
                        help="least time a batch group waits for company "
                             "(default: the server's own, 0)")
    parser.add_argument("--report", action="store_true",
                        help="print the full telemetry report")
    parser.add_argument("--trace", action="store_true",
                        help="sample per-request traces")
    parser.add_argument("--trace-sample", type=int, default=16,
                        help="trace every Nth request (default 16)")
    parser.add_argument("--trace-capacity", type=int, default=1024,
                        help="trace ring-buffer size (default 1024)")
    parser.add_argument("--slo-ms", type=float, default=None,
                        help="latency SLO target in ms (enables accounting)")
    parser.add_argument("--slo-objective", type=float, default=0.999,
                        help="good-request objective fraction (default 0.999)")
    parser.add_argument("--prom-out", type=pathlib.Path, default=None,
                        help="write the Prometheus text exposition here")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None,
                        help="write sampled traces as JSONL here")
    args = parser.parse_args(argv)
    if args.trace_out is not None and not args.trace:
        parser.error("--trace-out needs --trace")

    reference = BatchEngine.for_bits(args.bits, fast=True)
    requests = make_requests(args.requests, rng=0)
    shards = [requests[i::args.clients] for i in range(args.clients)]
    futures = [[] for _ in shards]

    collector = Collector()
    tracer = (
        Tracer(sample_every=args.trace_sample, capacity=args.trace_capacity)
        if args.trace else None
    )
    policy = (
        SLOPolicy("serve", latency_ms=args.slo_ms,
                  objective=args.slo_objective)
        if args.slo_ms is not None else None
    )
    knobs = dict(n_bits=args.bits, max_batch_elements=args.max_batch,
                 tracer=tracer, slo=policy)
    if args.delay_us is not None:
        knobs["max_delay_us"] = args.delay_us
    with use_collector(collector):
        if args.pool is not None:
            server = WorkerPool(workers=args.pool, **knobs)
        else:
            server = InferenceServer(workers=args.workers, **knobs)
        start = time.perf_counter()
        with server:
            def client(shard, out):
                for mode, x in shard:
                    out.append((mode, x, server.submit(x, mode=mode)))

            threads = [
                threading.Thread(target=client, args=(shard, out))
                for shard, out in zip(shards, futures)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [
                [(mode, x, future.result()) for mode, x, future in out]
                for out in futures
            ]
        elapsed = time.perf_counter() - start
        # For a pool this folds the parent's request accounting with
        # every worker's drained engine counters — exactly, as if one
        # collector had seen all the traffic.
        snapshot = (
            server.telemetry_snapshot() if args.pool is not None
            else collector.snapshot()
        )

    mismatches = 0
    for out in results:
        for mode, x, got in out:
            want = getattr(reference, mode)(x)
            if not np.array_equal(np.asarray(got), np.asarray(want)):
                mismatches += 1

    counters = snapshot["counters"]
    batches = counters.get("serve.batches", 0)
    print(
        f"served {args.requests} requests in {elapsed * 1e3:.1f} ms "
        f"({args.requests / elapsed:,.0f} req/s) across {batches} fused "
        f"batches ({args.requests / max(batches, 1):.1f} req/batch), "
        f"{mismatches} mismatches"
    )
    for name in sorted(snapshot.get("quantiles", {})):
        entry = snapshot["quantiles"][name]
        ps = quantiles_from_entry(entry, (0.5, 0.99, 0.999))
        print(
            f"  {name}: n={entry['count']} p50={ps['p50'] / 1e3:.1f}us "
            f"p99={ps['p99'] / 1e3:.1f}us p999={ps['p999'] / 1e3:.1f}us"
        )
    if policy is not None:
        slo = slo_summary(snapshot, policy)
        print(
            f"  slo[{policy.name}] target={policy.latency_ms:g}ms "
            f"objective={policy.objective:g}: {slo['good']} good / "
            f"{slo['bad']} bad / {slo['shed']} shed, compliance "
            f"{slo['compliance']:.4f}, budget burn {slo['budget_burn']:.2f}"
            f"{' — VIOLATED' if slo['violated'] else ''}"
        )
    if tracer is not None:
        print(f"  traced {len(tracer.traces())} requests ({tracer!r})")
    if args.prom_out is not None:
        policies = [policy] if policy is not None else []
        args.prom_out.write_text(render_prometheus(snapshot, policies))
        print(f"  wrote exposition to {args.prom_out}")
    if args.trace_out is not None:
        written = write_traces_jsonl(tracer.traces(), args.trace_out)
        print(f"  wrote {written} traces to {args.trace_out}")
    if args.report:
        print(render_snapshot(snapshot))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
