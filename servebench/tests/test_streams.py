import inspect

import numpy as np
import pytest

from servebench import workloads


def _fmt():
    return workloads.config().io_fmt


def _sizes(stream):
    return np.array([x.raw.size for x in stream.inputs])


def _same(a, b) -> bool:
    if a.modes != b.modes or a.raw_io != b.raw_io:
        return False
    raw = (lambda x: x.raw) if a.raw_io else np.asarray
    return all(np.array_equal(raw(x), raw(y))
               for x, y in zip(a.inputs, b.inputs))


@pytest.mark.parametrize("traffic", ["small", "bulk"])
def test_same_seed_same_stream(traffic):
    a = workloads.make_stream(traffic, 7, _fmt())
    b = workloads.make_stream(traffic, 7, _fmt())
    c = workloads.make_stream(traffic, 8, _fmt())
    assert _same(a, b)
    assert not _same(a, c)


def test_bulk_stream_straddles_the_ring_slot():
    from repro.serve import WorkerPool

    # The pool sizes a ring slot at twice its batch ceiling.
    ceiling = inspect.signature(WorkerPool).parameters[
        "max_batch_elements"].default
    sizes = _sizes(workloads.make_stream("bulk", 3, _fmt()))
    assert sizes.min() < 2 * ceiling < sizes.max()
    share = float(np.mean(sizes > 2 * ceiling))
    assert 0.3 < share < 0.7


def test_bulk_sizes_do_not_depend_on_the_seed():
    sizes = [sorted(_sizes(workloads.make_stream("bulk", s, _fmt())))
             for s in range(3)]
    assert sizes[0] == sizes[1] == sizes[2]


def test_oracle_matches_exactly_and_catches_one_flipped_bit():
    engine = workloads.oracle_engine()
    for traffic in ("small", "bulk"):
        stream = workloads.make_stream(traffic, 1, _fmt())
        stream.modes, stream.inputs = stream.modes[:8], stream.inputs[:8]
        stream.compute_expected(engine)
        for i in range(len(stream)):
            want = stream.expected[i]
            result = _as_result(stream, want.copy())
            assert stream.matches(i, result)
            flipped = want.copy()
            flat = flipped.reshape(-1)
            if stream.raw_io:
                flat[0] ^= 1
            else:
                flat[0] += _fmt().resolution
            assert not stream.matches(i, _as_result(stream, flipped))


def _as_result(stream, value):
    from repro.fixedpoint import FxArray

    return FxArray._wrap(value, _fmt()) if stream.raw_io else value
