"""The zero-copy shared table store: one table image, many workers.

A compiled :class:`~repro.compile.table.ResponseTable` is an immutable
int64 array — the perfect shape for sharing. The store publishes each
table's bytes **once** into a ``multiprocessing.shared_memory`` segment;
every worker (thread or process) then *attaches*: its table's ``outputs``
array is a read-only view straight over the shared buffer, so N workers
hold one physical copy instead of N private ones, and attachment costs a
handle open plus a header read — no compile, no ``.npz`` parse, no copy.

Two publication media:

* **shared memory** (:class:`SharedTableStore`) — the serving
  configuration: a parent publishes, workers attach by segment name via
  the picklable :class:`StoreManifest`;
* **memory-mapped ``.npz``** (:func:`mmap_table`) — the cold-start
  configuration: the files :class:`~repro.compile.cache.TableCache`
  persists are uncompressed zip archives, so the ``outputs.npy`` member
  can be mapped in place with ``np.memmap`` — processes then share the
  table through the page cache without any shm hand-off (an
  ``np.load(..., mmap_mode="r")`` equivalent that survives the zip
  framing).

Either way the resulting table is *byte-identical* to a privately
compiled one — attachment changes where the bytes live, never what they
are — and plugs into :class:`~repro.compile.cache.TableCache` through
its ``source`` hook (:class:`AttachedTableSource`), so the engine's fast
path picks shared images up transparently.
"""

from __future__ import annotations

import inspect
import math
import os
import struct
import threading
import zipfile
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.compile.cache import TableCache, default_cache
from repro.compile.table import (
    RECIPROCAL_KIND,
    TABLE_MODES,
    ReciprocalTable,
    ResponseTable,
)
from repro.errors import ServeError, TornFrameError
from repro.fixedpoint import QFormat
from repro.nacu.config import FunctionMode, NacuConfig
from repro.telemetry import collector as _telemetry


def _count(name: str, n: int = 1) -> None:
    tel = _telemetry.resolve(None)
    if tel is not None:
        tel.count(name, n)


@dataclass(frozen=True)
class TableEntry:
    """One published table: everything an attacher needs, no array data.

    ``mode`` is a :class:`FunctionMode` value for response tables or the
    ``"reciprocal"`` kind for the approximate divider's mantissa table;
    ``den_fb`` carries the reciprocal table's denominator fraction width
    (``-1`` for response tables, which have none).
    """

    shm_name: str
    fingerprint: str
    mode: str
    fmt: str
    raw_offset: int
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int
    den_fb: int = -1


@dataclass(frozen=True)
class StoreManifest:
    """The picklable hand-off from publisher to attachers.

    ``publisher_pid`` lets an attacher tell whether it shares the
    publisher's process — segment ownership (and therefore resource-
    tracker bookkeeping) differs between the two cases.
    """

    entries: Tuple[TableEntry, ...] = field(default_factory=tuple)
    publisher_pid: int = 0

    def __len__(self) -> int:
        return len(self.entries)


_ATTACH_LOCK = threading.Lock()
_SHM_HAS_TRACK = "track" in inspect.signature(
    shared_memory.SharedMemory.__init__
).parameters


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without claiming ownership of it.

    On POSIX Pythons before 3.13, *attaching* registers the segment with
    the resource tracker exactly like creating it does — so a spawn-mode
    worker exiting would unlink the publisher's segment out from under
    every other worker, and unregistering after the fact instead corrupts
    the tracker the publisher shares with fork-mode workers. Ownership
    must stay with the publisher alone, so the attach suppresses the
    registration at the source (3.13+ says ``track=False`` for this; the
    shim below says it for older interpreters).
    """
    if _SHM_HAS_TRACK:
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    with _ATTACH_LOCK:
        original = resource_tracker.register

        def _skip_shared_memory(res_name, rtype):
            if rtype != "shared_memory":
                original(res_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedTableStore:
    """Publisher side: owns the shared-memory segments for a config's tables.

    ``publish()`` compiles (or pulls from ``cache``) each requested mode's
    table and copies it into a fresh segment — the one and only copy.
    The returned :class:`StoreManifest` is what crosses process
    boundaries. The publisher must outlive its attachers and call
    :meth:`unlink` (or use the context manager) when serving ends;
    attachers only ever :meth:`AttachedTableSource.close`.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._entries: List[TableEntry] = []
        self._unlinked = False

    def publish(
        self,
        config: NacuConfig,
        modes: Iterable[FunctionMode] = TABLE_MODES,
        cache: Optional[TableCache] = None,
        include_reciprocal: Optional[bool] = None,
    ) -> StoreManifest:
        """Publish every requested mode's table; returns the manifest.

        Tables come from ``cache`` (the process default when ``None``) so
        a publisher that already served locally reuses its compiles. A
        format too wide for the cache's per-table ceiling cannot be
        published — the caller should let such workers fall back to the
        datapath instead.

        ``include_reciprocal`` additionally publishes the approximate
        divider's compiled reciprocal table (the softmax fast divide).
        The default ``None`` publishes it exactly when the config uses
        the approximate divider and the table fits the cache ceiling;
        ``True`` makes its absence an error, ``False`` skips it.
        """
        cache = cache if cache is not None else default_cache()
        for mode in modes:
            table = cache.get(config, mode)
            if table is None:
                raise ServeError(
                    f"cannot publish {mode.value!r} for {config.io_fmt}: "
                    f"the format exceeds the cache's per-table ceiling"
                )
            self._publish_one(
                table, mode=table.mode.value, den_fb=-1
            )
        auto = include_reciprocal is None
        if auto:
            include_reciprocal = config.use_approx_divider
        if include_reciprocal:
            if not config.use_approx_divider:
                raise ServeError(
                    "cannot publish a reciprocal table: the config uses the "
                    "restoring divider (its fast path needs no table)"
                )
            reciprocal = cache.get_reciprocal(config)
            if reciprocal is not None:
                self._publish_one(
                    reciprocal, mode=RECIPROCAL_KIND, den_fb=reciprocal.den_fb
                )
            elif not auto:
                raise ServeError(
                    "cannot publish the reciprocal table: the mantissa range "
                    "exceeds the cache's per-table ceiling"
                )
            # auto + too wide: skip — attached workers fall back to the
            # divider's Newton path, exactly as a local engine would.
        return self.manifest()

    def _publish_one(self, table, mode: str, den_fb: int) -> None:
        """Copy one compiled table into a fresh owned segment."""
        segment = shared_memory.SharedMemory(create=True, size=table.nbytes)
        view = np.ndarray(
            table.outputs.shape, dtype=table.outputs.dtype, buffer=segment.buf
        )
        view[:] = table.outputs
        self._segments.append(segment)
        self._entries.append(
            TableEntry(
                shm_name=segment.name,
                fingerprint=table.fingerprint,
                mode=mode,
                fmt=str(table.fmt),
                raw_offset=table.raw_offset,
                shape=tuple(table.outputs.shape),
                dtype=str(table.outputs.dtype),
                nbytes=table.nbytes,
                den_fb=den_fb,
            )
        )
        _count("serve.store.published")
        _count("serve.store.published_bytes", table.nbytes)

    def manifest(self) -> StoreManifest:
        """The manifest of everything published so far."""
        return StoreManifest(
            entries=tuple(self._entries), publisher_pid=os.getpid()
        )

    @property
    def nbytes(self) -> int:
        """Total bytes of the published (single-copy) table images."""
        return sum(entry.nbytes for entry in self._entries)

    def unlink(self) -> None:
        """Destroy the segments (after every attacher has closed)."""
        if self._unlinked:
            return
        self._unlinked = True
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:
                pass  # already reaped — nothing left to free

    def __enter__(self) -> "SharedTableStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unlink()

    def __repr__(self) -> str:
        return (
            f"<SharedTableStore {len(self._entries)} tables, "
            f"{self.nbytes >> 10} KiB shared>"
        )


class AttachedTableSource:
    """Attacher side: zero-copy read-only tables over a publisher's store.

    Satisfies the ``source`` protocol of
    :class:`~repro.compile.cache.TableCache` — ``lookup(fingerprint,
    mode)`` — so wiring a worker is::

        source = AttachedTableSource(manifest)
        cache = TableCache(source=source)
        engine = BatchEngine.for_bits(16, fast=True, table_cache=cache)

    Every table the store covers is now served from the shared image;
    anything else falls through to the cache's normal build path.
    """

    def __init__(self, manifest: StoreManifest):
        self._segments: List[shared_memory.SharedMemory] = []
        self._tables: Dict[Tuple[str, str], object] = {}
        for entry in manifest.entries:
            segment = _attach_untracked(entry.shm_name)
            outputs = np.ndarray(
                entry.shape, dtype=np.dtype(entry.dtype), buffer=segment.buf
            )
            outputs.flags.writeable = False
            self._segments.append(segment)
            if entry.mode == RECIPROCAL_KIND:
                table = ReciprocalTable(
                    fingerprint=entry.fingerprint,
                    fmt=QFormat.parse(entry.fmt),
                    den_fb=entry.den_fb,
                    raw_offset=entry.raw_offset,
                    outputs=outputs,
                )
            else:
                table = ResponseTable(
                    mode=FunctionMode(entry.mode),
                    fingerprint=entry.fingerprint,
                    fmt=QFormat.parse(entry.fmt),
                    raw_offset=entry.raw_offset,
                    outputs=outputs,
                )
            self._tables[(entry.fingerprint, entry.mode)] = table
            _count("serve.store.attached")

    def lookup(self, fingerprint: str, mode: str):
        """The attached table for ``(fingerprint, mode)``, or ``None``.

        ``mode`` is a function-mode value for response tables or
        ``"reciprocal"`` for the divider's mantissa table — the same key
        space :class:`~repro.compile.cache.TableCache` consults this
        source with.
        """
        return self._tables.get((fingerprint, mode))

    def __len__(self) -> int:
        return len(self._tables)

    def close(self) -> None:
        """Drop the attachment (the publisher's segments live on)."""
        self._tables.clear()
        for segment in self._segments:
            try:
                segment.close()
            except (OSError, BufferError):
                pass  # a live array view still pins the buffer
        self._segments.clear()

    def __enter__(self) -> "AttachedTableSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# The zero-copy batch transport: SPSC payload rings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RingSlotState:
    """One slot's header words, copied out for crash forensics.

    Plain integers, snapshotted at read time — safe to hold in a
    :class:`~repro.errors.WorkerCrashError` long after the ring itself
    is unlinked.
    """

    ring: str
    slot: int
    generation: int
    commit: int
    seq: int
    elements: int

    @property
    def torn(self) -> bool:
        """Whether a writer died between opening and committing the frame."""
        return self.generation != self.commit

    def __str__(self) -> str:
        state = "TORN" if self.torn else "whole"
        return (
            f"{self.ring}[{self.slot}] gen={self.generation} "
            f"commit={self.commit} seq={self.seq} "
            f"elements={self.elements} {state}"
        )


@dataclass(frozen=True)
class RingManifest:
    """The picklable hand-off describing one worker's paired payload rings."""

    request_name: str
    response_name: str
    slots: int
    slot_elements: int


class SlotRing:
    """Fixed-slot SPSC payload frames over one shared-memory segment.

    The batch transport's bulk lane: the pool's parent writes a fused
    request payload straight into a free slot of the *request* ring and
    sends only a tiny doorbell over the pipe; the worker evaluates from
    a zero-copy view and writes the result into the same slot index of
    the paired *response* ring. Slot ownership is the pipe protocol's
    business (the parent's free list); this class owns only the framing.

    Each slot is a row of int64 words: a four-word header
    ``[generation, commit, seq, elements]`` followed by
    ``slot_elements`` payload words. A writer bumps ``generation``,
    stamps ``seq``/``elements``, fills the payload, and only then copies
    ``generation`` into ``commit`` — so a reader that finds
    ``generation != commit`` (or a stale seq/size) is looking at a frame
    the writer never finished, and :meth:`read_frame` refuses it with
    :class:`~repro.errors.TornFrameError` instead of serving torn bytes.

    Single-producer/single-consumer per slot by contract: the parent
    thread that claimed a slot from the free list writes its request
    frame, one worker reads it (and symmetrically for responses), so no
    atomics are needed — the doorbell message *is* the release fence
    (``Connection.send``/``recv`` order the memory operations on one
    host).
    """

    #: Per-slot header words: generation, commit, seq, elements.
    HEADER_WORDS = 4
    _GEN, _COMMIT, _SEQ, _ELEMENTS = range(HEADER_WORDS)

    def __init__(self, segment: shared_memory.SharedMemory, label: str,
                 slots: int, slot_elements: int, owner: bool):
        self._segment = segment
        self.label = label
        self.slots = slots
        self.slot_elements = slot_elements
        self._owner = owner
        self._unlinked = False
        self._stride = self.HEADER_WORDS + slot_elements
        words = np.ndarray(
            (slots, self._stride), dtype=np.int64, buffer=segment.buf
        )
        if owner:
            words[:, :self.HEADER_WORDS] = 0
        readable = words.view()
        readable.flags.writeable = False
        #: ``(header, payloads, readable)``, read once per call so a
        #: concurrent :meth:`close` leaves a caller all or nothing: the
        #: whole ring as flat int64 words (header reads and writes are
        #: plain Python ints, with no NumPy scalar on the way), and each
        #: slot's payload words viewed once, writable for the frame's
        #: writer and read-only for its reader.
        self._views: Optional[
            Tuple[memoryview, List[np.ndarray], List[np.ndarray]]
        ] = (
            segment.buf.cast("q"),
            [row[self.HEADER_WORDS:] for row in words],
            [row[self.HEADER_WORDS:] for row in readable],
        )

    @classmethod
    def create(cls, label: str, slots: int, slot_elements: int) -> "SlotRing":
        """Allocate an owned ring with every slot header zeroed."""
        if slots < 1 or slot_elements < 1:
            raise ServeError("a ring needs at least one slot and one element")
        nbytes = slots * (cls.HEADER_WORDS + slot_elements) * 8
        segment = shared_memory.SharedMemory(create=True, size=nbytes)
        ring = cls(segment, label, slots, slot_elements, owner=True)
        _count("serve.store.ring_created")
        _count("serve.store.ring_bytes", nbytes)
        return ring

    @classmethod
    def attach(cls, name: str, label: str, slots: int,
               slot_elements: int) -> "SlotRing":
        """Attach to a publisher's ring without claiming ownership."""
        segment = _attach_untracked(name)
        _count("serve.store.ring_attached")
        return cls(segment, label, slots, slot_elements, owner=False)

    @property
    def name(self) -> str:
        """The segment name an attacher needs (see :class:`RingManifest`)."""
        return self._segment.name

    @property
    def nbytes(self) -> int:
        return self.slots * (self.HEADER_WORDS + self.slot_elements) * 8

    def _live_views(self):
        views = self._views
        if views is None:
            raise ServeError(f"{self.label} ring is closed")
        return views

    def open_frame(self, slot: int, seq: int, elements: int) -> np.ndarray:
        """Begin a frame: stamp the header, return the writable payload view.

        The caller fills the view and must :meth:`commit_frame` before
        ringing the doorbell — until then the frame reads as torn.
        """
        if elements > self.slot_elements:
            raise ServeError(
                f"frame of {elements} elements exceeds the "
                f"{self.slot_elements}-element {self.label} ring slot"
            )
        header, payloads, _ = self._live_views()
        base = slot * self._stride
        header[base + self._GEN] += 1
        header[base + self._SEQ] = seq
        header[base + self._ELEMENTS] = elements
        return payloads[slot][:elements]

    def commit_frame(self, slot: int) -> None:
        """Seal the open frame: the payload is complete and readable."""
        header = self._live_views()[0]
        base = slot * self._stride
        header[base + self._COMMIT] = header[base + self._GEN]

    def write_frame(self, slot: int, seq: int, payload: np.ndarray) -> None:
        """Open, fill and commit in one call (the pre-fused payload case)."""
        frame = self.open_frame(slot, seq, payload.size)
        frame[:] = payload.ravel()
        self.commit_frame(slot)

    def read_frame(self, slot: int, seq: int, shape) -> np.ndarray:
        """A read-only payload view, after proving the frame is whole."""
        header, _, readable = self._live_views()
        base = slot * self._stride
        gen = header[base + self._GEN]
        commit = header[base + self._COMMIT]
        frame_seq = header[base + self._SEQ]
        elements = header[base + self._ELEMENTS]
        expected = math.prod(shape)
        if gen != commit or frame_seq != seq or elements != expected:
            raise TornFrameError(
                f"{self.label}[{slot}]: gen={gen} commit={commit} "
                f"seq={frame_seq} elements={elements} — wanted seq {seq} "
                f"with {expected} elements"
            )
        view = readable[slot][:elements]
        return view if len(shape) == 1 else view.reshape(tuple(shape))

    def slot_state(self, slot: int) -> RingSlotState:
        """Snapshot one slot's header (crash forensics; copies, no views)."""
        base = slot * self._stride
        gen, commit, seq, elements = self._live_views()[0][
            base:base + self.HEADER_WORDS
        ].tolist()
        return RingSlotState(
            ring=self.label, slot=slot, generation=gen, commit=commit,
            seq=seq, elements=elements,
        )

    def close(self) -> None:
        """Drop this process's mapping (frames become unreadable here).

        The header view is dropped, not released: a thread still inside
        a header read or write keeps the mapping alive until it returns.
        A payload view handed out earlier does not (NumPy holds no
        export on it), so its holder must be done with it first.
        """
        self._views = None
        try:
            self._segment.close()
        except (OSError, BufferError):
            pass  # a thread mid-header-access still pins the buffer

    def unlink(self) -> None:
        """Owner side: destroy the segment (attachers just :meth:`close`)."""
        if self._owner and not self._unlinked:
            self._unlinked = True
            try:
                self._segment.unlink()
            except OSError:
                pass  # already reaped
        self.close()

    def __repr__(self) -> str:
        return (
            f"<SlotRing {self.label!r} {self.slots}x{self.slot_elements} "
            f"({self.nbytes >> 10} KiB)>"
        )


# ----------------------------------------------------------------------
# The memory-mapped .npz path
# ----------------------------------------------------------------------
def _npz_member_span(path: Path, member: str) -> Optional[int]:
    """Byte offset of ``member``'s data inside the zip, or ``None``.

    Only uncompressed (``ZIP_STORED``) members can be mapped in place;
    ``np.savez`` stores uncompressed, so the cache's persisted tables
    always qualify. The offset walks the local file header by hand: the
    central directory's ``header_offset`` plus the 30-byte fixed header
    plus the (local, possibly zip64-padded) name and extra fields.
    """
    with zipfile.ZipFile(path) as archive:
        try:
            info = archive.getinfo(member)
        except KeyError:
            return None
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        header_offset = info.header_offset
    with open(path, "rb") as fh:
        fh.seek(header_offset)
        header = fh.read(30)
        if len(header) != 30 or header[:4] != b"PK\x03\x04":
            return None
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        return header_offset + 30 + name_len + extra_len


def mmap_table(path: Path):
    """Attach to a persisted table ``.npz`` without loading its payload.

    The small metadata members load normally; the ``outputs`` array is
    an ``np.memmap`` over the archive's stored bytes — read-only, demand
    -paged, and shared between every process that maps the same file.
    If the member turns out compressed (a foreign archive), the loader
    falls back to a normal copy-load and counts
    ``serve.store.mmap_fallback``. Returns a :class:`ResponseTable`, or
    a :class:`ReciprocalTable` when the archive's mode is the
    ``"reciprocal"`` kind.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = {
                name: data[name]
                for name in ("version", "fingerprint", "mode", "fmt", "raw_offset")
            }
            if str(meta["mode"]) == RECIPROCAL_KIND:
                meta["den_fb"] = data["den_fb"]
            span = _npz_member_span(path, "outputs.npy")
            if span is None:
                _count("serve.store.mmap_fallback")
                outputs = np.ascontiguousarray(data["outputs"], dtype=np.int64)
                outputs.flags.writeable = False
            else:
                with open(path, "rb") as fh:
                    fh.seek(span)
                    version = np.lib.format.read_magic(fh)
                    if version == (1, 0):
                        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
                    else:
                        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
                    data_offset = fh.tell()
                if fortran:
                    raise ServeError(f"{path}: unexpected Fortran-order table")
                outputs = np.memmap(
                    path, dtype=dtype, mode="r", offset=data_offset, shape=shape
                )
                _count("serve.store.mmap_attached")
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ServeError(f"{path}: not a readable persisted table ({exc})") from exc
    if str(meta["mode"]) == RECIPROCAL_KIND:
        return ReciprocalTable(
            fingerprint=str(meta["fingerprint"]),
            fmt=QFormat.parse(str(meta["fmt"])),
            den_fb=int(meta["den_fb"]),
            raw_offset=int(meta["raw_offset"]),
            outputs=outputs,
        )
    mode = FunctionMode(str(meta["mode"]))
    return ResponseTable(
        mode=mode,
        fingerprint=str(meta["fingerprint"]),
        fmt=QFormat.parse(str(meta["fmt"])),
        raw_offset=int(meta["raw_offset"]),
        outputs=outputs,
    )


class MmapTableSource:
    """A ``TableCache`` source over a directory of persisted ``.npz`` tables.

    Lazily maps ``table-<fingerprint>-<mode>.npz`` files (the exact
    layout :class:`~repro.compile.cache.TableCache` persists) on first
    lookup. Unlike the disk-load path this never copies the payload —
    co-resident workers pointed at the same directory share the bytes
    through the page cache.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self._tables: Dict[Tuple[str, str], object] = {}

    def lookup(self, fingerprint: str, mode: str):
        key = (fingerprint, mode)
        table = self._tables.get(key)
        if table is not None:
            return table
        path = self.root / f"table-{fingerprint}-{mode}.npz"
        if not path.exists():
            return None
        try:
            table = mmap_table(path)
        except ServeError:
            return None  # corrupt file: let the cache recompile
        table_mode = (
            table.kind if isinstance(table, ReciprocalTable) else table.mode.value
        )
        if table.fingerprint != fingerprint or table_mode != mode:
            return None  # stale: embedded identity no longer matches
        self._tables[key] = table
        return table
