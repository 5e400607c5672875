"""CPU placement and the host facts a run records.

Thread placement decides serving throughput on a small host more than
the code does: unpinned, one process swung between about 13k and 6k
req/s as the kernel moved the client and dispatcher threads between
CPUs. So a measuring run pins itself (and, through inheritance, the
client thread and every serving thread) to one CPU and its pool worker
to another, keeps both CPUs from halting while it runs
(:class:`IdleSpinners`), and records steal ticks per phase so a run
taken while the host was busy can be spotted.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List

_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    A process the benchmark starts indirectly (a set-up probe's pool
    worker or resource tracker, say) that outlives its own parent is
    then handed to this process rather than to init, so
    :func:`stop_children` finds it and waits for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (AttributeError, OSError):
        pass


def children(pid: int) -> List[int]:
    """Processes whose parent is ``pid``, zombies included."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                text = handle.read()
        except OSError:
            continue
        if int(text[text.rindex(")") + 2:].split()[1]) == pid:
            out.append(int(name))
    return out


def stop_children() -> None:
    """Stop every child of this process still running and wait for each.

    ``multiprocessing`` starts a resource tracker the first time a
    shared-memory segment is created; it lives until this process's end
    of its pipe closes, so it is closed here (the tracker then unlinks
    any segment left registered and exits). Anything else left, and any
    orphan handed over by :func:`adopt_orphans`, is killed and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:
            pass
    me = os.getpid()
    while True:
        left = children(me)
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in left:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def cpu_ns(pid: int) -> int:
    """User plus system CPU of every thread of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # Fields after the parenthesised command name, which may hold spaces:
    # field 3 of proc(5) is fields[0], utime and stime are 14 and 15.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_NS


def hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def steal_ticks(cpus) -> Dict[str, int]:
    """Cumulative steal ticks, host-wide and for each CPU in ``cpus``."""
    wanted = {"cpu"} | {f"cpu{cpu}" for cpu in cpus}
    out = {}
    with open("/proc/stat") as handle:
        for line in handle:
            name, *values = line.split()
            if not name.startswith("cpu"):
                break
            if name in wanted:
                # user nice system idle iowait irq softirq steal ...
                out[name] = int(values[7]) if len(values) > 7 else 0
    return out


def steal_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in before}


def host_record(parent_cpu: int, worker_cpu: int, allowed) -> dict:
    """What a reader needs to judge where the numbers came from."""
    import numpy

    return {
        "parent_cpu": parent_cpu,
        "worker_cpu": worker_cpu,
        "allowed_cpus": sorted(allowed),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


#: A busy loop that ends once the process that started it is gone.
_SPIN = (
    "import os, sys\n"
    "parent = int(sys.argv[1])\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


class IdleSpinners:
    """Keep the given CPUs from idling while a run measures.

    On a virtual machine an idle CPU halts, and waking it again waits for
    the hypervisor to schedule it: every thread hand-off and cross-process
    wake-up of the serving stack then costs whatever the host's other
    tenants impose, run to run (on a 2-vCPU virtual machine, 400 to 900
    bulk_fx_pool req/s between runs, against 1220 to 1350 with spinners).
    A busy loop in the ``SCHED_IDLE`` class, pinned to each CPU, keeps it
    runnable without taking time from the measured threads: a waking
    thread preempts it at once. Its CPU time is in no metric. Create it
    before the process starts any thread: the loops are placed by
    ``preexec_fn``, which is unsafe in a threaded parent.
    """

    def __init__(self, cpus):
        self.procs = []
        for cpu in sorted(set(cpus)):
            def placed(cpu=cpu):
                os.sched_setaffinity(0, {cpu})
                os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", _SPIN, str(os.getpid())],
                preexec_fn=placed, stdin=subprocess.DEVNULL,
            ))

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs = []

    def __enter__(self) -> "IdleSpinners":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
