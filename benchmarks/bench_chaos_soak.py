"""Chaos soak: zero silent wrong answers, priced defences, MTTR.

Not a paper figure: this bench pins the ISSUE 9 acceptance criteria.

``chaos_soak`` sweeps fault rate × mitigation through a chaos-armed
:class:`~repro.serve.pool.WorkerPool` under seeded open-loop traffic
and asserts the resilience contract where it is provable:

* the **unmitigated baseline** at the same site and a 4x higher rate
  must serve silently wrong answers (otherwise the experiment is
  vacuous — nothing needed defending);
* every **mitigated, guard-visible** cell (MSB-pinned upsets at the
  output bus, single-crossing sigmoid/tanh traffic) must serve **zero**
  silent wrong answers: every response is bit-correct, corrected (and
  counted), or loudly shed;
* every cell's request accounting must fold exactly —
  ``correct + corrected + wrong + shed + failed_loud == offered`` —
  with the corrected count crossing worker process boundaries through
  :func:`~repro.telemetry.merge_snapshots`;
* the **kill cell** must land its SIGKILL, restart the worker, and
  report a finite MTTR.

``resilience_overhead`` prices the defence on the clean path: with no
plan armed and canaries off, a verifying pool must stay within
``MAX_DISARMED_OVERHEAD`` of the bare pool's closed-loop req/s
(best-of-``REPEATS`` on both sides, interleaved to decorrelate host
drift). Single-CPU CI hosts cannot overlap forked workers, so both
benches document the ceiling in their result rows (``host_cpus``,
``cpu_bound``) rather than asserting throughput no hardware could show.
"""

import os
from dataclasses import replace

from repro.chaos import ChaosScenario, run_soak
from repro.engine import BatchEngine
from repro.loadgen import LoadGenerator, make_requests
from repro.serve import ResponsePolicy, WorkerPool
from repro.experiments.result import ExperimentResult

N_BITS = 12
N_REQUESTS = 480
SINGLE_CROSSING = ("sigmoid", "tanh")
#: Clean-path price ceiling for verify-on, canaries-off resilience.
MAX_DISARMED_OVERHEAD = 0.05
REPEATS = 3


def _cells():
    base = ChaosScenario(
        name="", n_bits=N_BITS, requests=N_REQUESTS, rate_rps=5000.0,
        workers=2, modes=SINGLE_CROSSING,
    )
    return [
        replace(base, name="unmitigated", fault_rate=0.02,
                mitigation="none"),
        replace(base, name="detect-only", fault_rate=0.01,
                mitigation="detect"),
        replace(base, name="retry", fault_rate=0.005, mitigation="retry",
                max_retries=3, canary_every=8),
        replace(base, name="retry-quarantine-kill", fault_rate=0.005,
                mitigation="retry", max_retries=3, canary_every=8,
                quarantine_after=5, kill_after_s=0.05),
    ]


def test_chaos_soak_zero_silent_wrong(record_result):
    host_cpus = os.cpu_count() or 1
    cpu_bound = host_cpus < 2
    rows = []
    reports = {}
    for scenario in _cells():
        report = run_soak(scenario)
        reports[scenario.name] = report
        row = report.to_row()
        row["host_cpus"] = host_cpus
        row["cpu_bound"] = cpu_bound
        rows.append(row)
        # Exhaustive accounting holds in every cell, mitigated or not.
        assert report.accounted, (
            f"{scenario.name}: {report.correct}+{report.corrected}+"
            f"{report.wrong}+{report.shed}+{report.failed_loud} != "
            f"{report.offered}"
        )

    baseline = reports["unmitigated"]
    assert baseline.wrong > 0, (
        "the unmitigated pool served no wrong answers — the injected "
        "rate proves nothing about the defences"
    )
    for name in ("detect-only", "retry", "retry-quarantine-kill"):
        report = reports[name]
        assert report.scenario.guard_visible
        assert report.wrong == 0, (
            f"{name}: {report.wrong} silent wrong answer(s) escaped a "
            f"guard-visible mitigation cell"
        )
        assert report.detections >= 1, f"{name}: no upset ever detected"
    retry = reports["retry"]
    assert retry.corrected > 0, "retry cell corrected nothing"
    kill = reports["retry-quarantine-kill"]
    assert kill.killed, "the worker kill never landed"
    assert kill.restarts >= 1, "the killed worker was not restarted"
    assert kill.mttr_s is not None, "the pool never recovered"

    record_result(
        ExperimentResult(
            experiment_id="chaos_soak",
            title=f"Chaos soak ({N_REQUESTS} single-crossing requests "
            f"per cell, {N_BITS}-bit, MSB-pinned transients at io.out, "
            f"{host_cpus}-CPU host)",
            paper_claim="(harness) at an upset rate where the "
            "unmitigated pool silently corrupts, the defended pool "
            "serves zero silent wrong answers — every response is "
            "bit-correct, corrected (counted), or loudly shed — and "
            "recovers from a worker kill with millisecond MTTR",
            rows=rows,
        )
    )


def test_disarmed_resilience_overhead(record_result):
    host_cpus = os.cpu_count() or 1
    cpu_bound = host_cpus < 2
    requests = make_requests(2048, rng=31)
    reference = BatchEngine.for_bits(N_BITS, fast=True)
    policy = ResponsePolicy(canary_every=0, max_retries=2)

    pools = {
        "bare": WorkerPool(n_bits=N_BITS, workers=2),
        "verifying": WorkerPool(n_bits=N_BITS, workers=2,
                                resilience=policy),
    }
    best = {}
    try:
        for name, pool in pools.items():
            generator = LoadGenerator(pool, verify_engine=reference)
            generator.run_closed(requests[:64], concurrency=8)  # warm-up
            best[name] = 0.0
            pools[name] = (pool, generator)
        # Interleave the measured repeats so slow host drift (thermal,
        # noisy neighbours) hits both configurations alike.
        for _ in range(REPEATS):
            for name, (pool, generator) in pools.items():
                report = generator.run_closed(requests, concurrency=8)
                assert report.errors == 0 and report.sheds == 0
                assert report.mismatches == 0, (
                    f"{name}: clean-path responses diverged"
                )
                best[name] = max(best[name], report.req_per_s)
    finally:
        for pool, _ in pools.values():
            pool.close()

    overhead = 1.0 - best["verifying"] / best["bare"]
    rows = [
        {
            "config": name,
            "requests": len(requests),
            "best_req_per_s": round(best[name]),
            "overhead_vs_bare": round(
                1.0 - best[name] / best["bare"], 4
            ),
            "host_cpus": host_cpus,
            "cpu_bound": cpu_bound,
        }
        for name in ("bare", "verifying")
    ]
    record_result(
        ExperimentResult(
            experiment_id="resilience_overhead",
            title=f"Disarmed resilience overhead (clean path, canaries "
            f"off, best of {REPEATS}, {host_cpus}-CPU host)",
            paper_claim=f"(harness) response verification with no plan "
            f"armed and canaries off costs <= "
            f"{MAX_DISARMED_OVERHEAD:.0%} of the bare pool's "
            f"closed-loop req/s",
            rows=rows,
        )
    )
    assert overhead <= MAX_DISARMED_OVERHEAD, (
        f"disarmed resilience costs {overhead:.1%} of clean-path "
        f"throughput (ceiling {MAX_DISARMED_OVERHEAD:.0%})"
    )
