#!/usr/bin/env python3
"""Serving benchmark: one workload, one seed, every metric with its unit.

    python3 servebench/run.py --workload small_mixed_server --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the six end-to-end metrics, ``--trace 1`` the
per-layer ledger (see ``NOTES.md``); the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--repeat N`` runs the command N times with seeds seed..seed+N-1 and
prints each metric's median, quartiles and relative spreads. The exit
status is non-zero on any mismatch, failed request or dead worker, and
when the checkout holds no ``src/repro`` to measure.

Run from the root of a checkout; nothing needs building.
"""

import os
import sys
import time

T0 = time.perf_counter()


def _pin_at_start():
    """First action of a measuring process: pin it to one CPU.

    Threads created later (the client, the dispatcher, the pool's
    receiver) and forked pool workers inherit the pin; the worker is
    moved to the second CPU once it exists. ``--cpus P,W`` fixes the
    layout (set-up probes get their parent's); ``--repeat`` only spawns
    measuring processes, so it pins nothing.
    """
    if "--repeat" in sys.argv:
        return None
    allowed = sorted(os.sched_getaffinity(0))
    if "--cpus" in sys.argv:
        cpus = [int(c) for c in sys.argv[sys.argv.index("--cpus") + 1].split(",")]
    else:
        cpus = [allowed[0], allowed[1] if len(allowed) > 1 else allowed[0]]
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[1], allowed


if __name__ == "__main__":
    LAYOUT = _pin_at_start()

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Share of ``--seconds`` spent in the idle phase; the loaded phase
#: takes the rest.
IDLE_SHARE = 0.2
#: Unmeasured warm-up before the idle phase.
WARMUP_S = 0.5
#: Extra fresh processes that time set-up; setup_s is the median of
#: these and the measuring process's own set-up.
SETUP_PROBES = 2
#: The untraced run alternates idle and loaded phases this many times,
#: so each metric samples the host across the whole run, not one stretch.
ROUNDS = 4
#: Width of one req/s slice of the loaded phase.
SLICE_S = 1.0
SUBPROCESS_TIMEOUT_S = 170


def parse_args(argv):
    from servebench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with successive seeds and "
                             "report each metric's spread")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cpus", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"servebench: no src/repro under {ROOT}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from servebench import host

    host.adopt_orphans()
    try:
        if args.repeat:
            return repeat(args)
        if args.setup_probe:
            return setup_probe(args)
        with host.IdleSpinners(LAYOUT[:2]):
            return traced_run(args) if args.trace else measured_run(args)
    finally:
        host.stop_children()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def prepare(workload, worker_cpu):
    """Build the backend, pin its worker, answer one request per mode.

    Returns ``(backend, first_ns)``: when the first requests went in.
    """
    from servebench import workloads

    backend = workloads.build_backend(workload)
    for pid in worker_pids(backend):
        os.sched_setaffinity(pid, {worker_cpu})
    first_ns = time.perf_counter_ns()
    fmt = workloads.config().io_fmt
    futures = [backend.submit(x, mode=mode)
               for mode, x in workloads.first_inputs(workload.traffic, fmt)]
    for future in futures:
        future.result(timeout=60)
    return backend, first_ns


def freeze_inputs() -> None:
    """Exempt the benchmark's own long-lived objects (the stream and its
    expected outputs) from garbage collection, so collections during the
    phases cost only what the program's own objects cost."""
    gc.collect()
    gc.freeze()


def worker_pids(backend):
    return backend.worker_pids() if hasattr(backend, "worker_pids") else []


def setup_probe(args) -> int:
    """A fresh process that only times set-up (``--setup-probe``)."""
    from servebench import workloads

    backend, _ = prepare(workloads.WORKLOADS[args.workload], LAYOUT[1])
    setup_s = time.perf_counter() - T0
    backend.close()
    print(json.dumps({"setup_s": setup_s}))
    return 0


def probe_setups(workload_name: str) -> list:
    """``SETUP_PROBES`` set-up times, each from its own fresh process."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload_name, "--cpus",
             f"{LAYOUT[0]},{LAYOUT[1]}"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def measured_run(args) -> int:
    from servebench import host, loop, metrics, workloads

    workload = workloads.WORKLOADS[args.workload]
    parent_cpu, worker_cpu, allowed = LAYOUT
    backend, _ = prepare(workload, worker_cpu)
    setup_main = time.perf_counter() - T0
    stream = workloads.make_stream(workload.traffic, args.seed,
                                   workloads.config().io_fmt)
    stream.compute_expected(workloads.oracle_engine())
    freeze_inputs()
    idle_s, loaded_s = args.seconds * IDLE_SHARE, args.seconds * (1 - IDLE_SHARE)
    cpus = sorted({parent_cpu, worker_cpu})
    slices = max(int(round(loaded_s / ROUNDS / SLICE_S)), 1)
    steal = {"idle": collections.Counter(), "loaded": collections.Counter()}
    idles, loadeds, loaded_cpu = [], [], 0
    try:
        pids = worker_pids(backend)
        procs = [os.getpid()] + pids
        warm = loop.run_phase(backend, stream, workload.window, WARMUP_S)
        for _ in range(ROUNDS):
            before = host.steal_ticks(cpus)
            idles.append(loop.run_phase(backend, stream, 1, idle_s / ROUNDS))
            between = host.steal_ticks(cpus)
            cpu0 = sum(host.cpu_ns(pid) for pid in procs)
            loadeds.append(loop.run_phase(
                backend, stream, workload.window, loaded_s / ROUNDS,
                slices=slices))
            loaded_cpu += sum(host.cpu_ns(pid) for pid in procs) - cpu0
            after = host.steal_ticks(cpus)
            steal["idle"].update(host.steal_delta(before, between))
            steal["loaded"].update(host.steal_delta(between, after))
        peak = sum(host.hwm_mib(pid) for pid in procs)
        restarts = len(set(worker_pids(backend)) - set(pids))
    finally:
        backend.close()
    idle, loaded = loop.merge(idles), loop.merge(loadeds)
    setups = [setup_main] + probe_setups(workload.name)
    values = metrics.end_to_end(idle, loaded, loaded_cpu, peak, setups)

    print(f"servebench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace=0")
    print("host:", json.dumps(host.host_record(parent_cpu, worker_cpu, allowed)))
    print(f"placement: parent pid {os.getpid()} on cpu {parent_cpu}; "
          f"workers {pids} on cpu {worker_cpu}")
    print("steal ticks: idle", dict(steal["idle"]),
          "loaded", dict(steal["loaded"]))
    _print_phase("idle", idle)
    _print_phase("loaded", loaded)
    print("loaded slice req/s:", " ".join(f"{r:.0f}" for r in loaded.slice_rates))
    print("setup samples s:", " ".join(f"{s:.4f}" for s in setups))
    for name, unit in metrics.END_TO_END.items():
        print(f"  {name:<16} {values[name]:>14.6g} {unit}")
    return _finish([warm] + idles + loadeds, [idle, loaded], restarts,
                   metrics.with_units(values, metrics.END_TO_END))


def _print_phase(name, phase) -> None:
    from servebench import loop

    lat = phase.latencies_ns
    tails = "".join(f", p{q:g} {loop.percentile_ms(lat, q):.3f} ms"
                    for q in loop.tail_percentiles(lat.size))
    print(f"{name}: window {phase.window}, attempted {phase.attempted}, "
          f"completed {phase.completed}, failed {phase.failed}; "
          f"p50 {loop.percentile_ms(lat, 50):.3f} ms{tails} "
          f"over {lat.size} samples")


def _finish(checked, counted, restarts, metrics_out) -> int:
    failed = sum(p.failed for p in counted)
    correct = restarts == 0 and all(p.failed == 0 for p in checked)
    if restarts:
        print(f"FAIL: {restarts} pool worker(s) died and were replaced")
    if not correct:
        print("FAIL: responses were missing, refused or not bit-identical")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p in counted),
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The traced run: per-layer ledger
# ----------------------------------------------------------------------
def traced_run(args) -> int:
    start = time.perf_counter()
    import repro.serve  # noqa: F401 — timed: setup.import_s
    import_s = time.perf_counter() - start

    from servebench import host, ledger, loop, tracing, workloads

    workload = workloads.WORKLOADS[args.workload]
    parent_cpu, worker_cpu, allowed = LAYOUT
    fmt = workloads.config().io_fmt
    stream = workloads.make_stream(workload.traffic, args.seed, fmt)
    stream.compute_expected(workloads.oracle_engine())
    freeze_inputs()
    # The traced loaded phase and the untraced one it is compared with
    # for trace.overhead_pct share the loaded time, so the whole run
    # measures for --seconds and buffers spans for half of it.
    idle_s = args.seconds * IDLE_SHARE
    loaded_s = args.seconds * (1 - IDLE_SHARE) / 2
    slices = max(int(round(loaded_s / SLICE_S)), 1)
    cpus = sorted({parent_cpu, worker_cpu})
    out_dir = os.path.join(ROOT, ".servebench")
    os.makedirs(out_dir, exist_ok=True)

    rec = tracing.Recorder(out_dir)
    installed = tracing.install(rec, tracing.default_targets())
    try:
        build_ns = time.perf_counter_ns()
        backend, first_ns = prepare(workload, worker_cpu)
        ready_ns = time.perf_counter_ns()
        try:
            pids = worker_pids(backend)
            warm = loop.run_phase(backend, stream, workload.window, WARMUP_S)
            steal0 = host.steal_ticks(cpus)
            idle = loop.run_phase(backend, stream, 1, idle_s,
                                    before_submit=rec.set_request)
            steal1 = host.steal_ticks(cpus)
            cpu0 = {pid: host.cpu_ns(pid) for pid in [os.getpid()] + pids}
            loaded = loop.run_phase(backend, stream, workload.window,
                                      loaded_s, slices=slices,
                                      before_submit=rec.set_request)
            cpu1 = {pid: host.cpu_ns(pid) for pid in cpu0}
            steal2 = host.steal_ticks(cpus)
            hwm = {pid: host.hwm_mib(pid) for pid in cpu0}
            restarts = len(set(worker_pids(backend)) - set(pids))
            if workload.backend == "server":
                from repro.compile.cache import default_cache

                rec.memory["table_bytes"] = default_cache().nbytes
        finally:
            backend.close()
    finally:
        installed.restore()
    processes = [ledger.ProcessSpans("parent", rec.spans().copy())]
    for pid in pids:
        processes.append(ledger.ProcessSpans("worker", _take_spans(rec, pid)))
    trace_path = os.path.join(
        out_dir, f"trace-{workload.name}-seed{args.seed}.npz")
    _save_trace(trace_path, rec, processes, idle, loaded)

    # The same loaded phase with no wrappers installed: the overhead base.
    plain, _ = prepare(workload, worker_cpu)
    try:
        loop.run_phase(plain, stream, workload.window, WARMUP_S)
        untraced = loop.run_phase(plain, stream, workload.window, loaded_s,
                                    slices=slices)
    finally:
        plain.close()

    me = os.getpid()
    inputs = ledger.TraceInputs(
        names=list(rec.names),
        processes=processes,
        waits=_pairs(rec.waits),
        fills=_pairs(rec.fills),
        idle=idle,
        loaded=loaded,
        cpu_ns={
            "parent": cpu1[me] - cpu0[me],
            "worker": sum(cpu1[p] - cpu0[p] for p in pids),
        },
        setup={
            "import_s": import_s,
            "total_s": import_s + (ready_ns - build_ns) / 1e9,
            "build_ns": build_ns,
            "first_ns": first_ns,
            "ready_ns": ready_ns,
        },
        memory={
            "table_bytes": rec.memory["table_bytes"],
            "ring_bytes": rec.memory["ring_bytes"],
            "parent_hwm_mb": hwm[me],
            "worker_hwm_mb": sum(hwm[p] for p in pids),
        },
        failures={
            "serve.errors": idle.errors + loaded.errors,
            "serve.sheds": idle.sheds + loaded.sheds,
            "serve.mismatches": idle.mismatches + loaded.mismatches,
            "serve.pool.worker_restarts": restarts,
        },
        traced_req_per_s=statistics.median(loaded.slice_rates),
        untraced_req_per_s=statistics.median(untraced.slice_rates),
    )
    rows, by_role = ledger.per_layer(inputs)

    print(f"servebench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace=1")
    print("host:", json.dumps(host.host_record(parent_cpu, worker_cpu, allowed)))
    print(f"spans: {trace_path}")
    print("steal ticks: idle", host.steal_delta(steal0, steal1),
          "loaded", host.steal_delta(steal1, steal2))
    _print_phase("traced idle", idle)
    _print_phase("traced loaded", loaded)
    _print_phase("untraced loaded", untraced)
    _print_breakdown(rows, by_role)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    return _finish([warm, idle, loaded, untraced], [idle, loaded], restarts,
                   {name: {"value": value, "unit": unit}
                    for name, (value, unit) in rows.items()})


def _pairs(buf):
    import numpy as np

    return np.frombuffer(buf, dtype=np.int64).reshape(-1, 2).copy()


def _take_spans(rec, pid):
    """A worker's span dump, read and deleted (empty if it never wrote)."""
    import numpy as np

    from servebench.tracing import FIELDS

    path = rec.dump_path(pid)
    if not os.path.exists(path):
        return np.zeros((0, len(FIELDS)), dtype=np.int64)
    spans = np.load(path)
    os.remove(path)
    return spans


def _save_trace(path, rec, processes, idle, loaded) -> None:
    """Every span of the traced run, for reading after it ends."""
    import numpy as np

    from servebench.tracing import FIELDS

    np.savez_compressed(
        path,
        fields=np.array(FIELDS),
        names=np.array(rec.names),
        waits=_pairs(rec.waits),
        fills=_pairs(rec.fills),
        windows=np.array([[idle.start_ns, idle.end_ns],
                          [loaded.start_ns, loaded.end_ns]]),
        **{f"{proc.role}{i}": proc.spans for i, proc in enumerate(processes)},
    )


def _print_breakdown(rows, by_role) -> None:
    """Each process's busy rows against its measured CPU per request."""
    for role, busy in by_role.items():
        target = rows[f"proc.{role}.cpu_us_per_req"][0]
        if not target:
            continue
        parts = ", ".join(f"{row} {us:.1f}" for row, us in busy.items() if us)
        print(f"{role} cpu/req {target:.1f} us = unattributed "
              f"{rows[f'proc.{role}.unattributed_us'][0]:.1f} + {parts}")


# ----------------------------------------------------------------------
# Steadiness report
# ----------------------------------------------------------------------
def repeat(args) -> int:
    """Run the command ``args.repeat`` times; report each metric's spread."""
    from servebench import metrics

    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S + 60,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, proc.stderr, sep="\n")
            print(f"run with seed {seed} failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()))
    report = {}
    print(f"{args.workload}: {args.repeat} runs of {args.seconds:g} s")
    print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name, first in runs[0]["metrics"].items():
        stats = metrics.spread([r["metrics"][name]["value"] for r in runs])
        report[name] = dict(stats, unit=first["unit"])
        print(f"  {name:<40} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
              f"{stats['q3']:>12.6g} {stats['iqr_share']:>8.3f} "
              f"{stats['range_share']:>9.3f}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "seconds": args.seconds, "spread": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
