import threading
from concurrent.futures import Future

import numpy as np
import pytest

from servebench import ledger, loop, metrics, workloads
from servebench.loop import PhaseResult
from servebench.tracing import FIELDS

US = 1_000  # ns


def _phase(window, start, end, **kw):
    phase = PhaseResult(window=window, start_ns=start, end_ns=end)
    for key, value in kw.items():
        setattr(phase, key, value)
    return phase


def test_end_to_end_arithmetic():
    idle = _phase(1, 0, 10, attempted=3, completed=3,
                  starts_ns=np.zeros(3, np.int64),
                  ends_ns=np.array([1, 2, 3], np.int64) * 1_000_000)
    loaded = _phase(8, 0, 10, attempted=5, completed=4, mismatches=1,
                    slice_rates=[10.0, 30.0, 20.0])
    values = metrics.end_to_end(idle, loaded, loaded_cpu_ns=8_000_000,
                                peak_rss_mib=42.5, setup_samples=[3, 1, 2])
    assert values == {
        "req_per_s": 20.0,
        "cpu_us_per_req": 2000.0,
        "idle_p50_ms": 2.0,
        "setup_s": 2,
        "peak_rss_mb": 42.5,
        "success_rate": 0.75,
    }
    assert list(metrics.with_units(values, metrics.END_TO_END)) == list(
        metrics.END_TO_END)


def test_spread_uses_python_quartiles():
    stats = metrics.spread([float(v) for v in range(1, 11)])
    assert stats["median"] == 5.5
    assert (stats["q1"], stats["q3"]) == (2.75, 8.25)
    assert stats["iqr_share"] == pytest.approx(1.0)
    assert stats["range_share"] == pytest.approx(9 / 5.5)


def _spans(rows):
    """rows of (sid, parent, name, req, seq, w0, w1, cpu, n, nbytes) in us."""
    out = np.zeros((len(rows), len(FIELDS)), dtype=np.int64)
    for i, (sid, parent, name, req, seq, w0, w1, cpu, n, nbytes) in enumerate(rows):
        out[i] = (sid, parent, name, req, seq, 1, w0 * US, w1 * US,
                  0, cpu * US, n, nbytes)
    return out


def _known_inputs():
    """A fake pool run with known timings: two requests, two batches."""
    names = ["serve.submit", "serve.batcher.build_request",
             "fixedpoint.quantize", "serve.pool.send.ring",
             "serve.pool.send.pipe", "serve.pool.recv", "serve.pool.receive",
             "serve.pool.worker.recv", "engine.evaluate_fused",
             "compile.gather"]
    code = {n: i for i, n in enumerate(names)}
    parent = _spans([
        (1, 0, code["serve.submit"], 0, -1, 1000, 1100, 80, 0, 0),
        (2, 1, code["serve.batcher.build_request"], 0, -1, 1010, 1060, 40, 0, 0),
        (3, 2, code["fixedpoint.quantize"], 0, -1, 1020, 1040, 15, 0, 0),
        (4, 0, code["serve.submit"], 1, -1, 1200, 1300, 60, 0, 0),
        (5, 0, code["serve.pool.send.ring"], -1, 7, 1400, 1410, 8, 100, 0),
        (6, 0, code["serve.pool.send.pipe"], -1, 8, 1500, 1530, 20, 10000, 0),
        (7, 0, code["serve.pool.recv"], -1, 7, 1300, 1600, 5, 0, 0),
        (8, 0, code["serve.pool.receive"], -1, 7, 1600, 1650, 30, 0, 0),
    ])
    worker = _spans([
        (1, 0, code["serve.pool.worker.recv"], -1, 7, 1410, 1420, 3, 0, 0),
        (2, 0, code["engine.evaluate_fused"], -1, 7, 1420, 1500, 70, 0, 0),
        (3, 2, code["compile.gather"], -1, 7, 1430, 1480, 45, 100, 2400),
    ])
    window = dict(start=1000 * US, end=2000 * US)
    idle = _phase(1, completed=2, starts_ns=np.array([1000 * US]),
                  ends_ns=np.array([1700 * US]), **window)
    loaded = _phase(2, completed=2, **window)
    inputs = ledger.TraceInputs(
        names=names,
        processes=[ledger.ProcessSpans("parent", parent),
                   ledger.ProcessSpans("worker", worker)],
        waits=np.array([[0, 1150 * US], [1, 1350 * US]]),
        fills=np.array([[1150 * US, 1], [1350 * US, 3]]),
        idle=idle, loaded=loaded,
        cpu_ns={"parent": 400 * US, "worker": 200 * US},
        setup={"import_s": 0.25, "total_s": 0.5, "build_ns": 0,
               "first_ns": 100 * US, "ready_ns": 400 * US},
        memory={"table_bytes": 7, "ring_bytes": 9, "parent_hwm_mb": 50.0,
                "worker_hwm_mb": 20.0},
        failures={"serve.errors": 0, "serve.sheds": 0,
                  "serve.mismatches": 0, "serve.pool.worker_restarts": 0},
        traced_req_per_s=800.0, untraced_req_per_s=1000.0,
    )
    return inputs


def test_ledger_arithmetic_on_known_spans():
    rows, by_role = ledger.per_layer(_known_inputs())
    value = {name: v for name, (v, _) in rows.items()}
    assert value["serve.submit.busy_us"] == 50.0       # (80-40 + 60) / 2
    assert value["serve.submit.wait_us"] == 25.0       # (50+100 - 100) / 2
    assert value["serve.batcher.build_request.busy_us"] == 12.5
    assert value["fixedpoint.quantize.busy_us"] == 7.5
    assert value["serve.pool.send.busy_us"] == 14.0
    assert value["serve.pool.receive.busy_us"] == 15.0
    assert value["engine.dispatch.busy_us"] == 12.5    # (70 - 45) / 2
    assert value["compile.gather.busy_us"] == 22.5
    assert value["compile.gather.ns_per_elem"] == 450.0
    assert value["compile.gather.bytes_per_elem"] == 24.0
    assert value["serve.pool.pipe_share"] == 0.5
    assert value["serve.pool.ipc_bytes_per_req"] == 80800.0
    assert value["serve.pool.ipc_bytes_per_req.ring"] == 800.0
    assert value["serve.pool.hop_us"] == 120.0         # 1600-1400-80
    assert value["serve.batcher.queue_wait_us"] == 50.0
    assert value["serve.batcher.fill"] == 2.0
    assert value["proc.parent.busy_share"] == 0.4
    assert value["proc.parent.cpu_us_per_req"] == 200.0
    assert value["proc.parent.unattributed_us"] == pytest.approx(98.5)
    assert value["proc.worker.unattributed_us"] == pytest.approx(63.5)
    for role in ledger.ROLES:
        total = sum(by_role[role].values())
        assert total + value[f"proc.{role}.unattributed_us"] == pytest.approx(
            value[f"proc.{role}.cpu_us_per_req"])
    # Covered: 100 + 100 + 10 + (1417..1530) + (1595..1650) of 700 us.
    assert value["trace.idle_unattributed_share"] == pytest.approx(
        1 - 378 / 700)
    assert value["trace.overhead_pct"] == pytest.approx(25.0)
    assert value["setup.first_response_s"] == pytest.approx(300e-6)
    assert value["setup.import_s"] == 0.25


class FakeBackend:
    """Answers ``x -> x`` after ``delay_s``; every ``wrong``-th answer is off
    by one and every ``shed``-th submit is refused."""

    def __init__(self, delay_s=0.0, wrong=0, shed=0):
        self.delay_s, self.wrong, self.shed = delay_s, wrong, shed
        self.calls = 0

    def submit(self, x, mode):
        from repro.errors import BackpressureError

        self.calls += 1
        if self.shed and self.calls % self.shed == 0:
            raise BackpressureError("full")
        future = Future()
        answer = x + 1.0 if self.wrong and self.calls % self.wrong == 0 else x
        if self.delay_s:
            threading.Timer(self.delay_s, future.set_result, (answer,)).start()
        else:
            future.set_result(answer)
        return future


def _echo_stream():
    stream = workloads.Stream(["sigmoid"] * 5,
                              [np.array([float(i)]) for i in range(5)],
                              raw_io=False)
    stream.expected = [x.copy() for x in stream.inputs]
    return stream


def test_closed_loop_counts_every_outcome():
    backend = FakeBackend(wrong=7, shed=5)
    phase = loop.run_phase(backend, _echo_stream(), 4, 0.2, slices=2)
    assert phase.attempted == backend.calls > 0
    assert phase.sheds == backend.calls // 5
    assert phase.completed == phase.attempted - phase.sheds
    assert phase.mismatches > 0
    assert phase.failed == phase.sheds + phase.mismatches
    assert len(phase.slice_rates) == 2
    assert phase.latencies_ns.size == min(phase.completed,
                                          loop.LATENCY_CAPACITY)


def test_closed_loop_times_a_known_delay():
    backend = FakeBackend(delay_s=0.005)
    phase = loop.run_phase(backend, _echo_stream(), 1, 0.3)
    assert phase.failed == 0 and phase.completed >= 5
    p50 = loop.percentile_ms(phase.latencies_ns, 50)
    assert 5.0 <= p50 < 100.0
    # One request in flight: at most one completion per delay.
    assert phase.completed <= 0.3 / 0.005 + 1



def test_benchmark_json_lists_exactly_what_the_runs_print():
    import json
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    gated = [w["name"] for w in bench["workloads"]]
    assert len(gated) >= 2 and set(gated) <= set(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        metrics.END_TO_END)
    rows, _ = ledger.per_layer(_known_inputs())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in rows.items()]
