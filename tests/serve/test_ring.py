"""The zero-copy ring transport: framing, backpressure, torn frames.

Three layers of coverage:

* :class:`repro.serve.store.SlotRing` as a data structure — frame
  roundtrips, wraparound generations, torn-frame refusal (property
  tests);
* the pool's transport behaviour — full-ring and oversize overflow onto
  the pipe, FxArray slot-reuse safety, crash forensics after a SIGKILL
  with frames in flight;
* the differential check — the same mixed-mode request stream through
  a pool whose batches overflow onto the pipe (one-element slots) and
  one whose batches ride the ring must produce identical raw bytes at
  8/12/16 bits, both equal to the serial engine.
"""

import os
import signal
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BatchEngine
from repro.errors import ServeError, TornFrameError, WorkerCrashError
from repro.fixedpoint import FxArray
from repro.serve import RingSlotState, SlotRing, WorkerPool
from repro.telemetry import Collector

MODES = ("sigmoid", "tanh", "exp", "softmax")


def _mixed_requests(count, fmt, seed=0):
    """A reproducible mixed-mode stream scaled to ``fmt``'s range."""
    rng = np.random.default_rng(seed)
    lo = fmt.min_value / 2
    hi = fmt.max_value / 2
    out = []
    for _ in range(count):
        mode = MODES[int(rng.integers(len(MODES)))]
        if mode == "softmax":
            x = rng.uniform(lo, hi, size=(int(rng.integers(2, 7)),))
        elif mode == "exp":
            x = rng.uniform(lo, 0, size=(int(rng.integers(1, 9)),))
        else:
            x = rng.uniform(lo, hi, size=(int(rng.integers(1, 9)),))
        out.append((mode, x))
    return out


def _wait_for(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# SlotRing as a data structure
# ----------------------------------------------------------------------
class TestSlotRing:
    def test_frame_roundtrip(self):
        ring = SlotRing.create("req", slots=2, slot_elements=16)
        try:
            payload = np.arange(10, dtype=np.int64) - 5
            ring.write_frame(0, seq=7, payload=payload)
            back = ring.read_frame(0, seq=7, shape=(10,))
            assert np.array_equal(back, payload)
            assert not back.flags.writeable
        finally:
            ring.unlink()

    def test_attach_sees_owner_frames(self):
        ring = SlotRing.create("req", slots=1, slot_elements=8)
        attached = None
        try:
            attached = SlotRing.attach(ring.name, "req", 1, 8)
            payload = np.array([1, -2, 3], dtype=np.int64)
            ring.write_frame(0, seq=3, payload=payload)
            assert np.array_equal(
                attached.read_frame(0, seq=3, shape=(3,)), payload
            )
        finally:
            if attached is not None:
                attached.close()
            ring.unlink()

    def test_two_dimensional_shapes(self):
        ring = SlotRing.create("req", slots=1, slot_elements=32)
        try:
            rows = np.arange(12, dtype=np.int64).reshape(3, 4)
            ring.write_frame(0, seq=1, payload=rows)
            assert np.array_equal(
                ring.read_frame(0, seq=1, shape=(3, 4)), rows
            )
        finally:
            ring.unlink()

    def test_uncommitted_frame_reads_torn(self):
        ring = SlotRing.create("resp", slots=1, slot_elements=8)
        try:
            frame = ring.open_frame(0, seq=1, elements=4)
            frame[:] = 11  # writer dies here: no commit
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=1, shape=(4,))
            state = ring.slot_state(0)
            assert state.torn
            assert "TORN" in str(state)
        finally:
            ring.unlink()

    def test_seq_and_size_mismatches_are_refused(self):
        ring = SlotRing.create("req", slots=1, slot_elements=8)
        try:
            ring.write_frame(0, seq=5, payload=np.ones(4, dtype=np.int64))
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=6, shape=(4,))   # stale seq
            with pytest.raises(TornFrameError):
                ring.read_frame(0, seq=5, shape=(3,))   # wrong size
        finally:
            ring.unlink()

    def test_oversize_frame_is_refused(self):
        ring = SlotRing.create("req", slots=1, slot_elements=4)
        try:
            with pytest.raises(ServeError):
                ring.open_frame(0, seq=1, elements=5)
        finally:
            ring.unlink()

    def test_closed_ring_is_refused(self):
        ring = SlotRing.create("req", slots=1, slot_elements=4)
        ring.unlink()
        with pytest.raises(ServeError):
            ring.open_frame(0, seq=1, elements=1)
        with pytest.raises(ServeError):
            ring.read_frame(0, seq=1, shape=(1,))

    def test_invalid_geometry_is_refused(self):
        with pytest.raises(ServeError):
            SlotRing.create("req", slots=0, slot_elements=4)
        with pytest.raises(ServeError):
            SlotRing.create("req", slots=1, slot_elements=0)

    def test_wraparound_generations(self):
        # Many frames through few slots: every reuse bumps the
        # generation, every committed frame reads back exactly.
        ring = SlotRing.create("req", slots=2, slot_elements=8)
        try:
            for seq in range(20):
                slot = seq % 2
                payload = np.full(3 + seq % 5, seq, dtype=np.int64)
                ring.write_frame(slot, seq=seq, payload=payload)
                assert np.array_equal(
                    ring.read_frame(slot, seq=seq, shape=payload.shape),
                    payload,
                )
            # 10 writes per slot → generation 10, fully committed.
            for slot in range(2):
                state = ring.slot_state(slot)
                assert state.generation == state.commit == 10
                assert not state.torn
        finally:
            ring.unlink()

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 24), min_size=1, max_size=32),
        slots=st.integers(2, 5),
        data=st.data(),
    )
    def test_roundtrip_property(self, sizes, slots, data):
        # Arbitrary frame sizes through arbitrary slot choices: a
        # committed frame always reads back bit-exactly, whatever was in
        # the slot before.
        ring = SlotRing.create("req", slots=slots, slot_elements=24)
        try:
            for seq, size in enumerate(sizes):
                slot = data.draw(
                    st.integers(0, slots - 1), label=f"slot[{seq}]"
                )
                payload = np.asarray(
                    data.draw(
                        st.lists(
                            st.integers(-(2 ** 62), 2 ** 62),
                            min_size=size, max_size=size,
                        ),
                        label=f"payload[{seq}]",
                    ),
                    dtype=np.int64,
                )
                ring.write_frame(slot, seq=seq, payload=payload)
                assert np.array_equal(
                    ring.read_frame(slot, seq=seq, shape=(size,)), payload
                )
        finally:
            ring.unlink()

    def test_slot_state_is_a_plain_snapshot(self):
        ring = SlotRing.create("resp", slots=1, slot_elements=4)
        try:
            ring.write_frame(0, seq=9, payload=np.ones(2, dtype=np.int64))
            state = ring.slot_state(0)
        finally:
            ring.unlink()
        # Outlives the ring: plain ints, safely embeddable in an error.
        assert state == RingSlotState(
            ring="resp", slot=0, generation=1, commit=1, seq=9, elements=2
        )


# ----------------------------------------------------------------------
# The pool's ring transport
# ----------------------------------------------------------------------
class TestRingTransport:
    def test_ring_without_slots_is_refused(self):
        with pytest.raises(ServeError):
            WorkerPool(n_bits=12, workers=1, ring_slots=0)

    def test_full_ring_falls_back_to_pipe(self):
        # Stop the worker so dispatched frames cannot drain, overfill
        # the 2-slot ring with 4 single-mode batches: the overflow must
        # cross the pipe (counted), and every answer must still be
        # bit-exact once the worker resumes. Each 9-element request
        # fills its group, so it ships even though the worker is busy.
        reference = BatchEngine.for_bits(12, fast=True)
        collector = Collector()
        pool = WorkerPool(
            n_bits=12, workers=1, collector=collector,
            ring_slots=2, max_batch_elements=9,
        )
        try:
            pool.submit(0.5).result(timeout=30)  # worker is warm
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            try:
                inputs = {
                    mode: np.linspace(-2, 0 if mode == "exp" else 2, 9)
                    for mode in ("sigmoid", "tanh", "exp", "softmax")
                }
                futures = {
                    mode: pool.submit(x, mode=mode)
                    for mode, x in inputs.items()
                }
                _wait_for(
                    lambda: collector.snapshot()["counters"].get(
                        "serve.pool.dispatched", 0
                    ) >= 5,
                    what="all four batches to dispatch",
                )
            finally:
                os.kill(pid, signal.SIGCONT)
            for mode, future in futures.items():
                got = future.result(timeout=30)
                want = getattr(reference, mode)(inputs[mode])
                assert np.array_equal(np.asarray(got), np.asarray(want)), mode
        finally:
            pool.close()
        counters = collector.snapshot()["counters"]
        assert counters["serve.pool.ring_full"] >= 1
        assert counters["serve.pool.pipe_dispatched"] >= 1
        assert counters["serve.pool.ring_dispatched"] >= 2
        # The fallback is a detour, not a loss: every request resolved.
        assert counters["serve.requests"] == 5

    def test_oversize_batch_falls_back_to_pipe(self):
        reference = BatchEngine.for_bits(12, fast=True)
        collector = Collector()
        x = np.linspace(-4, 4, 64)
        with WorkerPool(
            n_bits=12, workers=1, collector=collector,
            ring_slot_elements=8,
        ) as pool:
            got = pool.submit(x, mode="sigmoid").result(timeout=30)
        assert np.array_equal(got, reference.sigmoid(x))
        counters = collector.snapshot()["counters"]
        assert counters["serve.pool.ring_oversize"] >= 1
        assert counters["serve.pool.pipe_dispatched"] >= 1

    def test_fx_results_survive_slot_reuse(self):
        # FxArray futures receive the raw words themselves; a one-slot
        # ring guarantees the response frame is recycled by the very
        # next batch, so any un-unshared view would be corrupted.
        reference = BatchEngine.for_bits(12, fast=True)
        fx = FxArray.from_float(np.linspace(-3, 3, 11), reference.io_fmt)
        with WorkerPool(n_bits=12, workers=1, ring_slots=1) as pool:
            first = pool.submit(fx, mode="tanh").result(timeout=30)
            want = reference.tanh_fx(fx).raw.copy()
            assert np.array_equal(first.raw, want)
            for _ in range(8):  # recycle the slot repeatedly
                pool.submit(np.linspace(-1, 1, 11), mode="sigmoid").result(
                    timeout=30
                )
            assert np.array_equal(first.raw, want), (
                "FxArray result mutated by ring slot reuse"
            )

    @pytest.mark.parametrize(
        "transport, slot_elements", [("ring", None), ("pipe", 1)],
        ids=["ring", "pipe"],
    )
    def test_dispatch_is_counted_before_the_worker_can_answer(
        self, transport, slot_elements, monkeypatch
    ):
        # A caller already holding its answer must find the batch
        # counted, so the counters move before the message goes out.
        collector = Collector()
        seen = []
        send = Connection.send

        def recording_send(conn, obj):
            if isinstance(obj, tuple) and obj[0] in ("batch", "rbatch"):
                seen.append(collector.snapshot()["counters"].get(
                    f"serve.pool.{transport}_dispatched", 0
                ))
            return send(conn, obj)

        monkeypatch.setattr(Connection, "send", recording_send)
        # One-element slots make the 16-element batch overflow.
        with WorkerPool(
            n_bits=12, workers=1, ring_slot_elements=slot_elements,
            collector=collector,
        ) as pool:
            pool.submit(np.linspace(-1, 1, 16)).result(timeout=30)
        assert seen == [1]


class TestCrashForensics:
    def test_crash_report_carries_seqs_and_slot_state(self):
        collector = Collector()
        # Each 256-element request fills its group, so both ship into
        # the stopped worker instead of waiting for it to free up.
        pool = WorkerPool(
            n_bits=12, workers=1, restart=False, collector=collector,
            max_batch_elements=256,
        )
        try:
            pool.submit(0.25).result(timeout=30)
            pid = pool.worker_pids()[0]
            os.kill(pid, signal.SIGSTOP)
            futures = [
                pool.submit(np.linspace(-2, 2, 256), mode="sigmoid"),
                pool.submit(np.linspace(-2, 1.5, 256), mode="tanh"),
            ]
            _wait_for(
                lambda: collector.snapshot()["counters"].get(
                    "serve.pool.dispatched", 0
                ) >= 3,
                what="both batches to dispatch",
            )
            os.kill(pid, signal.SIGKILL)
            errors = []
            for future in futures:
                with pytest.raises(WorkerCrashError) as info:
                    future.result(timeout=30)
                errors.append(info.value)
        finally:
            pool.close()
        exc = errors[0]
        assert exc.worker_id == 0
        assert len(exc.in_flight_seqs) == 2
        # One request + one response state per orphaned slot pair.
        assert len(exc.ring_slots) == 4
        rings = {state.ring for state in exc.ring_slots}
        assert rings == {"req", "resp"}
        by_ring = {"req": [], "resp": []}
        for state in exc.ring_slots:
            by_ring[state.ring].append(state)
        # The parent committed what it shipped: request frames whole,
        # carrying exactly the orphaned seqs.
        assert {s.seq for s in by_ring["req"]} == set(exc.in_flight_seqs)
        assert all(not s.torn for s in by_ring["req"])
        # The worker never answered: no response frame carries an
        # orphaned seq's commit.
        answered = {
            s.seq for s in by_ring["resp"] if s.commit == s.generation > 0
        }
        assert not (answered & set(exc.in_flight_seqs))
        # The message itself names the forensics — a crash report is
        # readable without poking attributes.
        text = str(exc)
        assert "seqs" in text and "req[" in text and "resp[" in text

    def test_torn_response_frame_named_in_report(self):
        # A fabricated SIGKILL-mid-write: the worker opened the response
        # frame but died before committing. The state object must call
        # it torn and the crash error must surface it.
        exc = WorkerCrashError(
            "worker 3 (pid 123) died with 1 batch(es) in flight",
            worker_id=3,
            in_flight_seqs=[41],
            ring_slots=[
                RingSlotState("req", 2, 7, 7, 41, 4096),
                RingSlotState("resp", 2, 7, 6, 41, 4096),
            ],
        )
        assert exc.ring_slots[1].torn
        assert "resp[2] gen=7 commit=6 seq=41 elements=4096 TORN" in str(exc)


# ----------------------------------------------------------------------
# The differential check: pipe overflow == ring == serial engine
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("n_bits", [8, 12, 16])
    def test_pipe_and_ring_bit_identical(self, n_bits):
        reference = BatchEngine.for_bits(n_bits, fast=True)
        fmt = reference.io_fmt
        requests = [
            (mode, FxArray.from_float(x, fmt))
            for mode, x in _mixed_requests(48, fmt, seed=n_bits)
        ]
        outputs = {}
        counters = {}
        # One-element slots: every batch of two or more elements is
        # oversize and crosses the pipe.
        for transport, slot_elements in (("pipe", 1), ("ring", None)):
            collector = Collector()
            with WorkerPool(
                n_bits=n_bits, workers=2, ring_slot_elements=slot_elements,
                collector=collector,
            ) as pool:
                futures = [
                    pool.submit(fx, mode=mode) for mode, fx in requests
                ]
                outputs[transport] = [
                    future.result(timeout=30).raw for future in futures
                ]
            counters[transport] = collector.snapshot()["counters"]
        pipe = counters["pipe"]
        assert pipe["serve.pool.pipe_dispatched"] >= 1
        assert pipe["serve.pool.ring_oversize"] == pipe[
            "serve.pool.pipe_dispatched"
        ]
        assert "serve.pool.pipe_dispatched" not in counters["ring"]
        for (mode, fx), pipe_raw, ring_raw in zip(
            requests, outputs["pipe"], outputs["ring"]
        ):
            assert np.array_equal(pipe_raw, ring_raw), mode
            want = getattr(reference, f"{mode}_fx")(fx).raw
            assert np.array_equal(ring_raw, want), mode


class TestHeaderWords:
    """The header lives in an int64 memoryview; the framing is unchanged."""

    def test_torn_frames_are_refused_across_mappings(self):
        ring = SlotRing.create("resp", slots=2, slot_elements=8)
        reader = SlotRing.attach(ring.name, "resp", 2, 8)
        try:
            ring.write_frame(1, seq=4, payload=np.arange(3, dtype=np.int64))
            assert reader.read_frame(1, seq=4, shape=(3,)).tolist() == [0, 1, 2]
            # Reopened and never committed: every read is refused.
            ring.open_frame(1, seq=5, elements=3)[:] = 7
            for seq in (4, 5):
                with pytest.raises(TornFrameError):
                    reader.read_frame(1, seq=seq, shape=(3,))
            assert reader.slot_state(1).torn
            ring.commit_frame(1)
            assert reader.read_frame(1, seq=5, shape=(3,)).tolist() == [7] * 3
            assert reader.slot_state(1) == RingSlotState(
                ring="resp", slot=1, generation=2, commit=2, seq=5,
                elements=3,
            )
            # The other slot's header never moved.
            assert reader.slot_state(0) == RingSlotState(
                ring="resp", slot=0, generation=0, commit=0, seq=0,
                elements=0,
            )
        finally:
            reader.close()
            ring.unlink()

    def test_read_views_are_read_only_and_writes_land(self):
        ring = SlotRing.create("req", slots=2, slot_elements=6)
        try:
            frame = ring.open_frame(0, seq=1, elements=6)
            frame[:] = np.arange(6)
            ring.commit_frame(0)
            view = ring.read_frame(0, seq=1, shape=(2, 3))
            assert view.tolist() == [[0, 1, 2], [3, 4, 5]]
            with pytest.raises(ValueError):
                view[0, 0] = 9
        finally:
            ring.unlink()

    def test_close_and_unlink_survive_a_live_payload_view(self):
        ring = SlotRing.create("req", slots=1, slot_elements=8)
        attached = SlotRing.attach(ring.name, "req", 1, 8)
        ring.write_frame(0, seq=1, payload=np.arange(4, dtype=np.int64))
        held = attached.read_frame(0, seq=1, shape=(4,))
        writable = ring.open_frame(0, seq=2, elements=2)
        attached.close()
        ring.unlink()
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(os.path.join("/dev/shm", ring.name))
        for closed in (ring, attached):
            with pytest.raises(ServeError):
                closed.read_frame(0, seq=1, shape=(4,))
            with pytest.raises(ServeError):
                closed.open_frame(0, seq=3, elements=1)
            with pytest.raises(ServeError):
                closed.slot_state(0)
        # Not read: a view handed out before close() does not keep the
        # mapping alive.
        del held, writable
