import collections
import types
from concurrent.futures import Future

import numpy as np

from servebench import tracing
from servebench.tracing import NAME, PARENT, REQ, SID, Target


def _build(future, x):
    return ("request", future, x)


stub = types.ModuleType("stub_serving")
stub.build = _build
#: A second module importing the same function by name.
stub_alias = types.ModuleType("stub_alias")
stub_alias.build = _build


class StubBatcher:
    def offer(self, request):
        return True


class StubBackend:
    """Calls its layers through module and class lookups, like the stack."""

    def __init__(self):
        self.batcher = StubBatcher()

    def submit(self, x):
        future = Future()
        self.batcher.offer(stub.build(future, x))
        future.set_result(stub_alias.build(future, x)[2])
        return future

    @classmethod
    def make(cls):
        return cls()


class StubChild(StubBackend):
    """Inherits ``submit``: restoring must leave no copy on the subclass."""


def _stub_targets():
    return [
        Target(StubChild, "submit", "serve.submit"),
        Target(StubChild, "make", "setup.spawn"),
        Target(stub, "build", "serve.batcher.build_request", "build_request",
               (stub_alias,)),
        Target(StubBatcher, "offer", "serve.batcher.offer"),
    ]


def test_wrappers_count_stub_calls_exactly_and_restore():
    rec = tracing.Recorder()
    installed = tracing.install(rec, _stub_targets())
    assert stub.build is not _build and stub_alias.build is stub.build
    backend = StubChild.make()
    for k in range(25):
        rec.set_request(k)
        assert backend.submit(k).result() == k
    installed.restore()
    backend.submit(99)  # after restore: records nothing

    spans = rec.spans()
    names = [rec.names[code] for code in spans[:, NAME]]
    assert collections.Counter(names) == {
        "serve.submit": 25,
        # once through each module's name for the same function
        "serve.batcher.build_request": 50,
        "serve.batcher.offer": 25,
        "setup.spawn": 1,
    }
    by_id = {row[SID]: row for row in spans}
    for row, name in zip(spans, names):
        if name in ("serve.batcher.build_request", "serve.batcher.offer"):
            parent = by_id[row[PARENT]]
            assert rec.names[parent[NAME]] == "serve.submit"
            assert parent[REQ] == row[REQ]
    submits = spans[[n == "serve.submit" for n in names]]
    assert list(submits[:, REQ]) == list(range(25))

    assert "submit" not in StubChild.__dict__
    assert "make" not in StubChild.__dict__
    assert StubBackend.__dict__["make"].__func__.__name__ == "make"
    assert stub.build is _build and stub_alias.build is _build
    assert StubBatcher.__dict__["offer"].__qualname__ == "StubBatcher.offer"


def _attributes(targets):
    out = []
    for target in targets:
        for owner in (target.owner,) + tuple(target.aliases):
            if isinstance(owner, type):
                out.append((owner, target.attr,
                            owner.__dict__.get(target.attr, "missing")))
            else:
                out.append((owner, target.attr, getattr(owner, target.attr)))
    return out


def test_default_targets_restore_every_original():
    targets = tracing.default_targets()
    before = _attributes(targets)
    installed = tracing.install(tracing.Recorder(), targets)
    assert _attributes(targets) != before
    installed.restore()
    after = _attributes(targets)
    assert all(a[2] is b[2] for a, b in zip(before, after))


def test_traced_server_records_one_span_per_request():
    from servebench import workloads

    rec = tracing.Recorder()
    installed = tracing.install(rec, tracing.default_targets())
    try:
        server = workloads.build_backend(
            workloads.WORKLOADS["small_mixed_server"])
        futures = []
        for k in range(20):
            rec.set_request(k)
            futures.append(server.submit(np.array([-0.5, 0.25]),
                                         mode="tanh"))
        for future in futures:
            future.result(timeout=30)
        server.close()
    finally:
        installed.restore()
    names = collections.Counter(rec.names[c] for c in rec.spans()[:, NAME])
    assert names["serve.submit"] == 20
    assert names["serve.batcher.build_request"] == 20
    assert names["fixedpoint.quantize"] == 20
    waits = np.frombuffer(rec.waits, dtype=np.int64).reshape(-1, 2)
    fills = np.frombuffer(rec.fills, dtype=np.int64).reshape(-1, 2)
    assert sorted(waits[:, 0]) == list(range(20))
    assert fills[:, 1].sum() == 20
    assert names["serve.server.dispatch"] == len(fills)
