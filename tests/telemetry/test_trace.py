"""Unit tests for request traces, the stage sink, and the tracer registry."""

import threading

import pytest

from repro.telemetry import (
    RequestTrace,
    StageSink,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.telemetry.trace import (
    current_sink,
    emit_fault,
    resolve,
    use_sink,
)


@pytest.fixture(autouse=True)
def tracing_off():
    previous = set_tracer(None)
    yield
    set_tracer(previous)


class TestRequestTrace:
    def test_lifecycle_fields(self):
        trace = RequestTrace(0, "sigmoid", 4, submit_ns=1000)
        assert trace.status == "pending"
        assert trace.queue_wait_ns is None
        assert trace.latency_ns is None
        trace.dispatch_ns = 3000
        trace.finish_ns = 8000
        assert trace.queue_wait_ns == 2000
        assert trace.latency_ns == 7000

    def test_stages_stored_submit_relative(self):
        trace = RequestTrace(1, "exp", 1, submit_ns=500)
        trace.add_stage("engine.exp", start_ns=700, dur_ns=50)
        assert trace.stages == [["engine.exp", 200, 50]]

    def test_to_dict_round_trip(self):
        trace = RequestTrace(2, "softmax", 8, submit_ns=0)
        trace.dispatch_ns = 10
        trace.finish_ns = 100
        trace.batch_fill = 3
        trace.batch_elements = 24
        trace.status = "ok"
        trace.add_stage("softmax.fold", 20, 5)
        trace.faults["injected.acc"] = 2
        record = trace.to_dict()
        assert record["trace_id"] == 2
        assert record["latency_ns"] == 100
        assert record["queue_wait_ns"] == 10
        assert record["stages"] == [["softmax.fold", 20, 5]]
        assert record["faults"] == {"injected.acc": 2}


class TestStageSink:
    def test_fan_out_copies_events_to_every_trace(self):
        sink = StageSink()
        sink.emit("engine.tanh", 100, 30)
        sink.emit_fault("detected.parity", 1)
        sink.emit_fault("detected.parity", 2)
        traces = [RequestTrace(i, "tanh", 1, submit_ns=0) for i in range(3)]
        sink.fan_out(traces)
        for trace in traces:
            assert trace.stages == [["engine.tanh", 100, 30]]
            assert trace.faults == {"detected.parity": 3}

    def test_thread_local_sink_scoping(self):
        sink = StageSink()
        assert current_sink() is None
        with use_sink(sink):
            assert current_sink() is sink
            current_sink().emit("x", 0, 1)
            emit_fault("injected.y", 1)
            with use_sink(None):
                # The compile path scopes the sink off this way.
                assert current_sink() is None
            assert current_sink() is sink
        assert current_sink() is None
        assert sink.events == [("x", 0, 1)]
        assert sink.faults == {"injected.y": 1}

    def test_sink_is_per_thread(self):
        sink = StageSink()
        seen = {}

        def other():
            seen["sink"] = current_sink()

        with use_sink(sink):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen["sink"] is None


class TestTracer:
    def test_counter_based_sampling_is_deterministic(self):
        tracer = Tracer(sample_every=4)
        sampled = [
            tracer.maybe_trace("sigmoid", 1) is not None for _ in range(12)
        ]
        assert sampled == [True, False, False, False] * 3

    def test_sample_every_one_traces_everything(self):
        tracer = Tracer(sample_every=1)
        assert all(
            tracer.maybe_trace("exp", 1) is not None for _ in range(5)
        )

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(sample_every=1, capacity=4)
        for i in range(10):
            trace = tracer.maybe_trace("tanh", 1)
            trace.status = "ok"
            tracer.retire(trace)
        retained = tracer.traces()
        assert len(retained) == 4
        assert [t.trace_id for t in retained] == [6, 7, 8, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(sample_every=0)
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_snapshot_is_jsonable(self):
        tracer = Tracer(sample_every=1)
        tracer.retire(tracer.maybe_trace("sigmoid", 2))
        (record,) = tracer.snapshot()
        assert record["mode"] == "sigmoid"
        assert record["status"] == "pending"


class TestRegistry:
    def test_enable_disable(self):
        assert get_tracer() is None
        tracer = enable_tracing(sample_every=8)
        assert get_tracer() is tracer
        assert tracer.sample_every == 8
        # enable with no args keeps the active tracer.
        assert enable_tracing() is tracer
        assert disable_tracing() is tracer
        assert get_tracer() is None

    def test_resolve_prefers_override(self):
        registry = enable_tracing()
        injected = Tracer()
        assert resolve(injected) is injected
        assert resolve(None) is registry

    def test_use_tracer_scoping(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is None
