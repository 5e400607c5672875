"""Traffic harness CLI: drive a serving backend under generated load.

Usage::

    PYTHONPATH=src python -m repro.loadgen [--profile quick|soak]
        [--backend pool|server] [--pool-workers 2] [--bits 12]
        [--loop closed|open] [--arrivals poisson|uniform|bursty]
        [--rate 2000] [--requests N] [--concurrency 8] [--seed 0]
        [--no-verify]

Builds the backend, generates a seeded mixed-mode request storm, drives
it with the chosen loop discipline, verifies every response
byte-for-byte against a direct engine call (unless ``--no-verify``),
prints the :class:`~repro.loadgen.generator.LoadReport` summary, and
exits non-zero on any mismatch, error, or (pool backend) dead worker.

``--profile quick`` pins the whole run well under CI's 60 s budget;
``--profile soak`` is the full-traffic run the scaling benchmark mirrors.
"""

from __future__ import annotations

import argparse
import sys

from repro.engine import BatchEngine
from repro.loadgen.arrivals import ARRIVALS, make_offsets
from repro.loadgen.generator import LoadGenerator
from repro.loadgen.workload import make_requests
from repro.serve import InferenceServer, WorkerPool

#: (requests, rate_rps, concurrency) per profile. Quick is sized for CI:
#: 256 requests at 2k req/s offered finishes in well under ten seconds
#: even cold, keeping the smoke jobs inside their 60 s pin.
PROFILES = {
    "quick": (256, 2000.0, 4),
    "soak": (4096, 8000.0, 8),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="quick")
    parser.add_argument("--backend", choices=("pool", "server"),
                        default="pool")
    parser.add_argument("--pool-workers", type=int, default=2)
    parser.add_argument("--bits", type=int, default=12)
    parser.add_argument("--loop", choices=("closed", "open"),
                        default="closed")
    parser.add_argument("--arrivals", choices=sorted(ARRIVALS),
                        default="poisson",
                        help="open-loop arrival process (ignored for "
                             "closed loop)")
    parser.add_argument("--rate", type=float, default=None,
                        help="open-loop offered rate, req/s "
                             "(default: profile)")
    parser.add_argument("--requests", type=int, default=None,
                        help="request count (default: profile)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="closed-loop client threads "
                             "(default: profile)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the bit-identity oracle")
    args = parser.parse_args(argv)

    n_requests, rate, concurrency = PROFILES[args.profile]
    if args.requests is not None:
        n_requests = args.requests
    if args.rate is not None:
        rate = args.rate
    if args.concurrency is not None:
        concurrency = args.concurrency

    requests = make_requests(n_requests, rng=args.seed)
    verify = (
        None if args.no_verify else BatchEngine.for_bits(args.bits, fast=True)
    )

    if args.backend == "pool":
        backend = WorkerPool(n_bits=args.bits, workers=args.pool_workers)
    else:
        backend = InferenceServer(n_bits=args.bits)
    failures = []
    try:
        generator = LoadGenerator(backend, verify_engine=verify)
        if args.loop == "closed":
            report = generator.run_closed(requests, concurrency=concurrency)
        else:
            offsets = make_offsets(
                args.arrivals, n_requests, rate, rng=args.seed
            )
            report = generator.run_open(requests, offsets)
        print(report.summary())
        if report.errors:
            failures.append(f"{report.errors} request errors")
        if report.mismatches:
            failures.append(
                f"{report.mismatches} responses mismatched the serial engine"
            )
        if args.backend == "pool":
            alive = backend.alive_workers()
            if alive < args.pool_workers:
                failures.append(
                    f"only {alive}/{args.pool_workers} workers alive"
                )
    finally:
        backend.close()
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
