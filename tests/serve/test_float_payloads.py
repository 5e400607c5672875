"""Float requests on both tiers: domain edges and result aliasing.

A float request is quantised with its whole batch on the dispatcher, so
``submit()`` checks the exp domain with the exact float predicate
``x <= 2**-(fb+1)`` (the largest float that rounds to raw 0), and each
float result is a view into its batch's one de-quantised output.
"""

import numpy as np
import pytest

from repro.engine import BatchEngine
from repro.errors import RangeError
from repro.fixedpoint import FxArray
from repro.serve import InferenceServer, WorkerPool
from repro.telemetry import Collector

BITS = (8, 12, 16)
KINDS = ("server", "pool")
ENGINES = {}


def engine_for(bits):
    if bits not in ENGINES:
        ENGINES[bits] = BatchEngine.for_bits(bits, fast=True)
    return ENGINES[bits]


def make_backend(kind, bits, **kwargs):
    if kind == "server":
        return InferenceServer(n_bits=bits, **kwargs)
    return WorkerPool(n_bits=bits, workers=1, **kwargs)


def assert_same_bytes(got, want):
    if isinstance(want, FxArray):
        assert isinstance(got, FxArray)
        got, want = got.raw, want.raw
    elif isinstance(want, float):
        assert type(got) is float
        got, want = np.float64(got), np.float64(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module", params=[(k, b) for k in KINDS for b in BITS],
                ids=lambda p: f"{p[0]}-{p[1]}bit")
def served(request):
    kind, bits = request.param
    with make_backend(kind, bits) as backend:
        yield backend, engine_for(bits)


def exp_edge(engine):
    return 2.0 ** -(engine.io_fmt.fb + 1)


class TestExpDomainEdge:
    def test_edge_quantises_to_raw_zero_and_is_admitted(self, served):
        backend, engine = served
        edge = exp_edge(engine)
        assert int(FxArray.from_float(edge, engine.io_fmt).raw) == 0
        got = backend.submit(edge, mode="exp").result(timeout=30)
        assert_same_bytes(got, engine.exp(edge))
        assert_same_bytes(got, engine.exp(0.0))
        x = np.array([edge, -edge, 0.0, -1.0])
        got = backend.submit(x, mode="exp").result(timeout=30)
        assert_same_bytes(got, engine.exp(x))

    @pytest.mark.parametrize("label", ["above_edge", "inf", "nan"])
    def test_out_of_domain_is_refused_at_submit(self, served, label):
        backend, engine = served
        value = {
            "above_edge": np.nextafter(exp_edge(engine), np.inf),
            "inf": np.inf,
            "nan": np.nan,
        }[label]
        with pytest.raises(RangeError):
            backend.submit(value, mode="exp")
        with pytest.raises(RangeError):
            backend.submit(np.array([-1.0, value, -0.5]), mode="exp")
        # Refused before batching: the next request is answered as usual.
        got = backend.submit(np.array([-1.0, -0.5]), mode="exp")
        assert_same_bytes(got.result(timeout=30),
                          engine.exp(np.array([-1.0, -0.5])))

    @pytest.mark.parametrize("mode", ["sigmoid", "tanh", "softmax"])
    def test_nan_is_refused_at_submit_in_every_mode(self, served, mode):
        backend, _ = served
        with pytest.raises(RangeError, match="NaN"):
            backend.submit(np.array([0.5, np.nan]), mode=mode)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("kind", KINDS)
def test_float_results_of_one_batch_do_not_alias(kind, bits):
    engine = engine_for(bits)
    rng = np.random.default_rng(bits)
    inputs = [rng.uniform(-4, 4, size=n) for n in (3, 5, 1, 4)]
    inputs.append(float(rng.uniform(-4, 4)))
    inputs.append(FxArray.from_float(rng.uniform(-4, 4, size=2),
                                     engine.io_fmt))
    elements = sum(np.size(x.raw if isinstance(x, FxArray) else x)
                   for x in inputs)
    collector = Collector()
    # Flushed by size only, when the last request fills the group.
    with make_backend(kind, bits, collector=collector,
                      max_batch_elements=elements,
                      max_delay_us=30_000_000) as backend:
        futures = [backend.submit(x, mode="sigmoid") for x in inputs]
        results = [future.result(timeout=30) for future in futures]
        snapshot = (backend.telemetry_snapshot() if kind == "pool"
                    else collector.snapshot())
    assert snapshot["counters"]["serve.batches"] == 1
    wants = [
        engine.sigmoid_fx(x) if isinstance(x, FxArray) else engine.sigmoid(x)
        for x in inputs
    ]
    for got, want in zip(results, wants):
        assert_same_bytes(got, want)
    for index, result in enumerate(results):
        if not isinstance(result, np.ndarray):
            continue
        saved = result.copy()
        result[...] = -7.0
        for other, (got, want) in enumerate(zip(results, wants)):
            if other != index:
                assert_same_bytes(got, want)
        result[...] = saved


@pytest.mark.parametrize("neighbour", [False, True],
                         ids=["alone", "beside_a_row"])
@pytest.mark.parametrize("shape", [(3, 0), (0, 5)], ids=["3x0", "0x5"])
@pytest.mark.parametrize("kind", KINDS)
def test_empty_softmax_is_refused_at_submit(kind, shape, neighbour):
    # The serial engine refuses both shapes; served, the refusal must
    # not depend on whether a valid width-5 row shares the batch.
    engine = engine_for(12)
    message = "non-empty 1-D vector or 2-D batch"
    with pytest.raises(RangeError, match=message):
        engine.softmax(np.zeros(shape))
    row = np.linspace(-1.0, 1.0, 5)
    with make_backend(kind, 12, max_batch_elements=10,
                      max_delay_us=30_000_000) as backend:
        parked = backend.submit(row, mode="softmax") if neighbour else None
        with pytest.raises(RangeError, match=message):
            backend.submit(np.zeros(shape), mode="softmax")
        if parked is not None:
            # The second row fills the group; both answer as usual.
            filler = backend.submit(row, mode="softmax")
            for future in (parked, filler):
                assert_same_bytes(future.result(timeout=30),
                                  engine.softmax(row))
