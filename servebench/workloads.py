"""The three workloads: seeded request streams, their oracle, their backend.

Every workload serves ``NacuConfig.for_bits(16)`` (the paper's Q4.11
default) through a backend left at its default settings; only the
traffic and the backend kind differ. A stream is a fixed seeded list of
requests that the closed loop cycles through, with the expected raw
outputs precomputed by the serial ``BatchEngine`` fast path outside
every timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

MODES = ("sigmoid", "tanh", "exp", "softmax")

#: Requests in a small-traffic stream. Large enough that the seed moves
#: the mode and size mix by well under a percent.
SMALL_STREAM = 16384
#: Tensors in a bulk stream: 16 per mode, one at the middle of each of 16
#: equal-probability strata of the size distribution, so every seed
#: moves the same bytes (only values and order change with the seed).
BULK_STREAM = 64
#: Bulk elementwise sizes are log-uniform over 2**10 .. 2**16 elements.
BULK_LOG2_ELEMENTS = (10, 16)
#: Bulk softmax blocks are 16 .. 512 rows (log-uniform) of this width.
BULK_LOG2_ROWS = (4, 9)
BULK_ROW = 64
BITS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str      # "server" or "pool"
    traffic: str      # "small" or "bulk"
    window: int       # requests outstanding in the loaded phase
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "small_mixed_server", "server", "small", 512,
            "Tiny mixed requests in-process: quantising, offer, scatter, "
            "futures and per-call engine cost dominate, with no IPC; "
            "batcher and serving-core changes show here.",
        ),
        Workload(
            "small_mixed_pool", "pool", "small", 512,
            "The same stream through a 1-worker ring pool: the front end "
            "plus one doorbell and two wake-ups per batch; its gap to "
            "small_mixed_server is the server-vs-pool gap.",
        ),
        Workload(
            "bulk_fx_pool", "pool", "bulk", 2,
            "Large raw FxArray tensors through a 1-worker pool: bytes "
            "moved and per-element engine work dominate, and about half "
            "the batches overflow the ring slot onto the pipe lane.",
        ),
    )
}


def config():
    from repro.nacu.config import NacuConfig

    return NacuConfig.for_bits(BITS)


def build_backend(workload: Workload):
    """The workload's backend with default settings (one pool worker)."""
    from repro.serve import InferenceServer, WorkerPool

    if workload.backend == "server":
        return InferenceServer(config=config())
    return WorkerPool(config=config(), workers=1)


def first_inputs(traffic: str, fmt) -> List[Tuple[str, object]]:
    """One fixed request per servable mode: what set-up must answer."""
    from repro.fixedpoint import FxArray

    x = np.array([-0.5, -0.25])
    if traffic == "bulk":
        x = FxArray.from_float(x, fmt)
    return [(mode, x) for mode in MODES]


class Stream:
    """A seeded request list with its serial-engine expected outputs.

    Small traffic carries floats in and out, so the expected value is
    the float64 image of the oracle's raw words (``raw * 2**-fb``, exact
    and one-to-one); bulk traffic carries ``FxArray`` both ways and is
    compared on the raw words themselves.
    """

    def __init__(self, modes: List[str], inputs: list, raw_io: bool):
        self.modes = modes
        self.inputs = inputs
        self.raw_io = raw_io
        self.expected: List[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.modes)

    def compute_expected(self, engine) -> None:
        """Run every request through ``engine`` serially (the oracle)."""
        if self.raw_io:
            self.expected = [
                getattr(engine, f"{mode}_fx")(x).raw
                for mode, x in zip(self.modes, self.inputs)
            ]
        else:
            self.expected = [
                np.asarray(getattr(engine, mode)(x))
                for mode, x in zip(self.modes, self.inputs)
            ]

    def matches(self, index: int, result) -> bool:
        """Whether ``result`` carries exactly the expected bits."""
        want = self.expected[index]
        got = result.raw if self.raw_io else result
        return (
            isinstance(got, np.ndarray)
            and got.dtype == want.dtype
            and got.shape == want.shape
            and got.tobytes() == want.tobytes()
        )


def make_stream(traffic: str, seed: int, fmt) -> Stream:
    """The seeded stream for ``traffic``; same seed, same stream."""
    if traffic == "small":
        from repro.loadgen import make_requests

        requests = make_requests(SMALL_STREAM, rng=seed)
        return Stream([m for m, _ in requests], [x for _, x in requests],
                      raw_io=False)
    return _bulk_stream(seed, fmt)


def _bulk_stream(seed: int, fmt) -> Stream:
    from repro.fixedpoint import FxArray

    rng = np.random.default_rng(seed)
    per_mode = BULK_STREAM // len(MODES)
    modes: List[str] = []
    inputs: list = []
    for mode in MODES:
        for frac in (np.arange(per_mode) + 0.5) / per_mode:
            if mode == "softmax":
                lo, hi = BULK_LOG2_ROWS
                shape = (int(round(2 ** (lo + (hi - lo) * frac))), BULK_ROW)
                bound = 4 << fmt.fb
                raw = rng.integers(-bound, bound + 1, size=shape)
            else:
                lo, hi = BULK_LOG2_ELEMENTS
                size = int(round(2 ** (lo + (hi - lo) * frac)))
                top = 0 if mode == "exp" else fmt.raw_max
                raw = rng.integers(fmt.raw_min, top + 1, size=size)
            modes.append(mode)
            inputs.append(FxArray(raw, fmt))
    order = rng.permutation(len(modes))
    return Stream([modes[i] for i in order], [inputs[i] for i in order],
                  raw_io=True)


def oracle_engine():
    """The serial fast-path engine over its own freshly compiled tables."""
    from repro.compile.cache import TableCache
    from repro.engine import BatchEngine

    return BatchEngine(config=config(), fast=True, table_cache=TableCache())
