"""Per-layer metrics from the traced run's spans.

A span's self time is its duration minus the durations of its child
spans. ``*.busy_us`` rows are self thread-CPU per completed request of
the traced loaded phase; each has a ``*.wait_us`` twin, self wall time
minus self CPU time, which is time spent waiting for the interpreter
lock, the scheduler or (for ``recv``) the next message. For each process
the busy rows plus its ``unattributed_us`` row add up to its CPU per
request, by construction of ``unattributed_us``.

Latency rows (``serve.batcher.queue_wait_us``, ``serve.pool.hop_us``)
and ``trace.idle_unattributed_share`` come from the traced idle phase,
because they decompose ``idle_p50_ms``; everything else comes from the
traced loaded phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from servebench.tracing import (C0, C1, FIELDS, N, NAME, NBYTES, PARENT, REQ,
                                SEQ, SID, W0, W1)

#: busy row -> the span names whose self time it sums.
BUSY_ROWS: Dict[str, Tuple[str, ...]] = {
    "serve.submit": ("serve.submit",),
    "fixedpoint.quantize": ("fixedpoint.quantize",),
    "serve.batcher.build_request": ("serve.batcher.build_request",),
    "serve.batcher.offer": ("serve.batcher.offer",),
    "serve.batcher.take_ready": ("serve.batcher.take_ready",),
    "serve.batcher.gather": ("serve.batcher.gather",),
    "serve.batcher.finish": ("serve.batcher.finish",),
    "serve.server.dispatch": ("serve.server.dispatch",),
    "serve.pool.send": ("serve.pool.send.ring", "serve.pool.send.pipe",
                        "serve.pool.send.other"),
    "serve.pool.recv": ("serve.pool.recv",),
    "serve.pool.receive": ("serve.pool.receive",),
    "serve.pool.worker.recv": ("serve.pool.worker.recv",),
    "serve.pool.worker.reply": ("serve.pool.worker.reply",),
    "serve.store.frame": ("serve.store.frame",),
    "engine.dispatch": ("engine.evaluate_fused", "engine.dispatch"),
    "compile.gather": ("compile.gather",),
    "nacu.softmax.normalise": ("nacu.softmax.normalise",),
    "nacu.mac.fold": ("nacu.mac.fold",),
    "nacu.divider": ("nacu.divider",),
}

ROLES = ("parent", "worker")


@dataclass
class ProcessSpans:
    """One process's spans with their self times."""

    role: str
    spans: np.ndarray
    self_wall: np.ndarray = field(init=False)
    self_cpu: np.ndarray = field(init=False)

    def __post_init__(self):
        self.self_wall, self.self_cpu = self_times(self.spans)


def self_times(spans: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each span's wall and CPU duration minus those of its children."""
    wall = spans[:, W1] - spans[:, W0]
    cpu = spans[:, C1] - spans[:, C0]
    if not len(spans):
        return wall, cpu
    order = np.argsort(spans[:, SID], kind="stable")
    ids = spans[order, SID]
    parents = spans[:, PARENT]
    pos = np.minimum(np.searchsorted(ids, parents), len(ids) - 1)
    found = (parents > 0) & (ids[pos] == parents)
    owner = order[pos[found]]
    child_wall = np.zeros_like(wall)
    child_cpu = np.zeros_like(cpu)
    np.add.at(child_wall, owner, wall[found])
    np.add.at(child_cpu, owner, cpu[found])
    return wall - child_wall, cpu - child_cpu


@dataclass
class TraceInputs:
    """Everything one traced run hands the ledger."""

    names: List[str]
    processes: List[ProcessSpans]
    #: (request key, Batch.begin stamp) rows and (stamp, fill) rows.
    waits: np.ndarray
    fills: np.ndarray
    idle: object                  # loop.PhaseResult
    loaded: object                # loop.PhaseResult
    #: role -> CPU ns over the loaded phase (from /proc/<pid>/stat).
    cpu_ns: Dict[str, int]
    setup: Dict[str, float]       # import_s, total_s, build/ready stamps
    memory: Dict[str, float]
    failures: Dict[str, int]
    traced_req_per_s: float
    untraced_req_per_s: float


class _View:
    """Spans of every process filtered by name and time window."""

    def __init__(self, inputs: TraceInputs):
        self.inputs = inputs
        self.codes = {name: i for i, name in enumerate(inputs.names)}

    def select(self, names, start: int, end: int, roles=ROLES):
        codes = [self.codes[n] for n in names if n in self.codes]
        for proc in self.inputs.processes:
            if proc.role not in roles:
                continue
            s = proc.spans
            mask = (np.isin(s[:, NAME], codes) & (s[:, W0] >= start)
                    & (s[:, W0] < end))
            yield proc, mask

    def rows(self, names, start: int, end: int, roles=ROLES) -> np.ndarray:
        """The selected spans of every process, stacked."""
        found = [proc.spans[mask]
                 for proc, mask in self.select(names, start, end, roles)]
        return (np.concatenate(found) if found
                else np.zeros((0, len(FIELDS)), dtype=np.int64))


def per_layer(inputs: TraceInputs):
    """Every per-layer metric, ``name -> (value, unit)``, and the busy rows
    split by process, ``role -> row -> us per request``."""
    view = _View(inputs)
    loaded, idle = inputs.loaded, inputs.idle
    lo, hi = loaded.start_ns, loaded.end_ns
    done = max(loaded.completed, 1)
    out: Dict[str, Tuple[float, str]] = {}

    by_role: Dict[str, Dict[str, float]] = {role: {} for role in ROLES}
    for row, names in BUSY_ROWS.items():
        busy = wait = 0
        for proc, mask in view.select(names, lo, hi):
            cpu = int(proc.self_cpu[mask].sum())
            busy += cpu
            wait += int(proc.self_wall[mask].sum()) - cpu
            share = by_role[proc.role]
            share[row] = share.get(row, 0.0) + cpu / done / 1e3
        out[f"{row}.busy_us"] = (busy / done / 1e3, "us")
        out[f"{row}.wait_us"] = (wait / done / 1e3, "us")

    fills = inputs.fills
    fills = fills[(fills[:, 0] >= lo) & (fills[:, 0] < hi)]
    out["serve.batcher.fill"] = (
        float(fills[:, 1].mean()) if len(fills) else 0.0, "count")
    out["serve.batcher.queue_wait_us"] = (_queue_wait_us(view, inputs), "us")

    lanes = {}
    for lane in ("ring", "pipe"):
        count = elements = 0
        for proc, mask in view.select([f"serve.pool.send.{lane}"], lo, hi,
                                      roles=("parent",)):
            count += int(mask.sum())
            elements += int(proc.spans[mask, N].sum())
        lanes[lane] = (count, elements)
    batches = lanes["ring"][0] + lanes["pipe"][0]
    out["serve.pool.pipe_share"] = (
        lanes["pipe"][0] / batches if batches else 0.0, "ratio")
    # Request and response words, 8 bytes each, counted from tensor sizes.
    ipc = {lane: lanes[lane][1] * 16 / done for lane in lanes}
    out["serve.pool.ipc_bytes_per_req"] = (ipc["ring"] + ipc["pipe"], "bytes")
    out["serve.pool.ipc_bytes_per_req.ring"] = (ipc["ring"], "bytes")
    out["serve.pool.ipc_bytes_per_req.pipe"] = (ipc["pipe"], "bytes")
    out["serve.pool.hop_us"] = (_hop_us(view, idle), "us")

    gather_cpu = gather_n = gather_bytes = 0
    for proc, mask in view.select(["compile.gather"], lo, hi):
        gather_cpu += int(proc.self_cpu[mask].sum())
        gather_n += int(proc.spans[mask, N].sum())
        gather_bytes += int(proc.spans[mask, NBYTES].sum())
    out["compile.gather.ns_per_elem"] = (
        gather_cpu / gather_n if gather_n else 0.0, "ns")
    out["compile.gather.bytes_per_elem"] = (
        gather_bytes / gather_n if gather_n else 0.0, "bytes")

    wall = max(hi - lo, 1)
    for role in ROLES:
        cpu = inputs.cpu_ns.get(role, 0)
        out[f"proc.{role}.busy_share"] = (cpu / wall, "ratio")
        out[f"proc.{role}.cpu_us_per_req"] = (cpu / done / 1e3, "us")
        out[f"proc.{role}.unattributed_us"] = (
            cpu / done / 1e3 - sum(by_role[role].values()) if cpu else 0.0,
            "us")

    out.update(_setup_rows(view, inputs))
    memory = inputs.memory
    out["serve.store.table_bytes"] = (memory["table_bytes"], "bytes")
    out["serve.store.ring_bytes"] = (memory["ring_bytes"], "bytes")
    out["proc.parent.hwm_mb"] = (memory["parent_hwm_mb"], "MiB")
    out["proc.worker.hwm_mb"] = (memory["worker_hwm_mb"], "MiB")
    for name in ("serve.errors", "serve.sheds", "serve.mismatches",
                 "serve.pool.worker_restarts"):
        out[name] = (inputs.failures[name], "count")
    out["trace.overhead_pct"] = (
        (inputs.untraced_req_per_s / inputs.traced_req_per_s - 1) * 100
        if inputs.traced_req_per_s else 0.0, "%")
    out["trace.idle_unattributed_share"] = (
        _idle_unattributed_share(view, idle), "ratio")
    return out, by_role


def _by_key(rows: np.ndarray, key: int, value: np.ndarray):
    """``key -> value`` lookup arrays (first occurrence of each key)."""
    keys, first = np.unique(rows[:, key], return_index=True)
    return keys, value[first]


def _lookup(keys, values, wanted):
    """``(hit, value)`` for each wanted key in sorted ``keys``."""
    if not len(keys):
        return np.zeros(len(wanted), dtype=bool), np.zeros(len(wanted))
    pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return keys[pos] == wanted, values[pos]


def _queue_wait_us(view: _View, inputs: TraceInputs) -> float:
    """p50 from ``submit()`` returning to its batch reaching ``begin``."""
    idle = inputs.idle
    submits = view.rows(["serve.submit"], idle.start_ns, idle.end_ns,
                        roles=("parent",))
    submits = submits[submits[:, REQ] >= 0]
    waits = inputs.waits
    waits = waits[(waits[:, 1] >= idle.start_ns) & (waits[:, 1] < idle.end_ns)
                  & (waits[:, 0] >= 0)]
    if not len(submits) or not len(waits):
        return 0.0
    keys, ends = _by_key(submits, REQ, submits[:, W1])
    hit, end = _lookup(keys, ends, waits[:, 0])
    if not hit.any():
        return 0.0
    return float(np.median(waits[hit, 1] - end[hit])) / 1e3


def _hop_us(view: _View, idle) -> float:
    """p50 per batch: parent send to reply received, minus evaluate."""
    def keyed(names, role, column):
        rows = view.rows(names, idle.start_ns, idle.end_ns, roles=(role,))
        rows = rows[rows[:, SEQ] >= 0]
        value = rows[:, column] if column is not None else (
            rows[:, W1] - rows[:, W0])
        return _by_key(rows, SEQ, value)

    send_keys, send_w0 = keyed(
        ["serve.pool.send.ring", "serve.pool.send.pipe"], "parent", W0)
    recv_keys, recv_w1 = keyed(["serve.pool.recv"], "parent", W1)
    eval_keys, eval_wall = keyed(["engine.evaluate_fused"], "worker", None)
    if not len(send_keys):
        return 0.0
    hit_r, reply = _lookup(recv_keys, recv_w1, send_keys)
    hit_e, evaluate = _lookup(eval_keys, eval_wall, send_keys)
    hit = hit_r & hit_e
    if not hit.any():
        return 0.0
    return float(np.median(reply[hit] - send_w0[hit] - evaluate[hit])) / 1e3


def _idle_unattributed_share(view: _View, idle) -> float:
    """Share of idle round-trip time that no span covers.

    A ``recv`` span spends most of its wall time blocked waiting for the
    next message, so it covers only its CPU time, at its end.
    """
    trips_s, trips_e = idle.starts_ns, idle.ends_ns
    total = float((trips_e - trips_s).sum())
    if not total:
        return 0.0
    # From a second early, so spans already open when a trip starts count.
    spans = view.rows(list(view.codes), idle.start_ns - 10**9, idle.end_ns)
    if not len(spans):
        return 1.0
    begin = spans[:, W0].copy()
    blocking = np.isin(spans[:, NAME], [
        view.codes[n] for n in ("serve.pool.recv", "serve.pool.worker.recv")
        if n in view.codes])
    begin[blocking] = spans[blocking, W1] - (
        spans[blocking, C1] - spans[blocking, C0])
    merged_s, merged_e = _union(begin, spans[:, W1])
    covered = (_covered_before(merged_s, merged_e, trips_e)
               - _covered_before(merged_s, merged_e, trips_s))
    return 1.0 - float(covered.sum()) / total


def _union(starts: np.ndarray, ends: np.ndarray):
    """Disjoint sorted intervals covering the same time as the input."""
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    # A new run begins where a start lies beyond everything so far.
    fresh = np.ones(len(starts), dtype=bool)
    fresh[1:] = starts[1:] > reach[:-1]
    run = np.cumsum(fresh) - 1
    out_s = starts[fresh]
    out_e = np.zeros(len(out_s), dtype=ends.dtype)
    np.maximum.at(out_e, run, ends)
    return out_s, out_e


def _covered_before(starts, ends, t):
    """Covered length of (-inf, t] for each t, over disjoint intervals."""
    before = np.concatenate(([0], np.cumsum(ends - starts)))
    i = np.searchsorted(starts, t, side="right")  # intervals begun by t
    last = np.maximum(i - 1, 0)
    inside = np.clip(t - starts[last], 0, ends[last] - starts[last])
    return np.where(i > 0, before[last] + inside, 0)


def _setup_rows(view: _View, inputs: TraceInputs) -> Dict[str, Tuple[float, str]]:
    """Set-up split: import, compile, publish, spawn, first responses."""
    setup = inputs.setup
    lo, hi = setup["build_ns"], setup["ready_ns"]

    def wall(names, start=lo, end=hi, own=False):
        total = 0
        for proc, mask in view.select(names, start, end, roles=("parent",)):
            if own:
                total += int(proc.self_wall[mask].sum())
            else:
                total += int((proc.spans[mask, W1] - proc.spans[mask, W0]).sum())
        return total / 1e9

    first_lo = setup["first_ns"]
    return {
        "setup.import_s": (setup["import_s"], "s"),
        "setup.compile_s": (wall(["setup.compile"]), "s"),
        "setup.publish_s": (wall(["setup.publish"], own=True), "s"),
        "setup.spawn_s": (wall(["setup.spawn"]), "s"),
        # A lazily compiling backend compiles inside its first requests;
        # that time is already in compile_s.
        "setup.first_response_s": (
            (hi - first_lo) / 1e9 - wall(["setup.compile"], first_lo, hi),
            "s"),
        "setup.total_s": (setup["total_s"], "s"),
    }
