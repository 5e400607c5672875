"""The response-table cache: LRU in memory, optional ``.npz`` on disk.

Tables are keyed by ``(config.fingerprint(), mode)``. The in-memory side
is an LRU bounded by a bytes budget (tables for wide formats are the
expensive ones — a 20-bit format's full-range table is 8 MiB); the disk
side persists tables under ``~/.cache/repro-nacu/`` so a new process
skips the enumeration sweep entirely. A persisted file whose embedded
fingerprint no longer matches the requesting config is *stale* — it is
discarded and recompiled, never served.

Telemetry (when a collector is active) gets the compile spans, table
sizes and hit/miss/eviction counters under the ``compile.*`` namespace.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.compile.table import (
    RECIPROCAL_KIND,
    TABLE_MODES,
    ReciprocalTable,
    ResponseTable,
    compile_reciprocal_table,
    compile_table,
)
from repro.errors import ConfigError
from repro.nacu.config import FunctionMode, NacuConfig
from repro.telemetry import collector as _telemetry

#: Default in-memory budget: every table of every mode for formats up to
#: 20 bits fits with room to spare; wider formats fall back (see
#: ``max_table_bytes``) rather than thrash.
DEFAULT_MAX_BYTES = 64 << 20

#: Per-table compile ceiling: formats wider than this produce tables the
#: enumeration sweep (and the budget) should not pay for — the engine
#: falls back to the datapath instead. 8 MiB covers 20-bit formats.
DEFAULT_MAX_TABLE_BYTES = 8 << 20

_PERSIST_VERSION = 1


def default_persist_dir() -> Path:
    """The disk cache root (``$REPRO_NACU_CACHE_DIR`` overrides)."""
    override = os.environ.get("REPRO_NACU_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-nacu"


class TableCache:
    """An LRU of :class:`ResponseTable` bounded by a bytes budget.

    The cache is thread-safe: a single re-entrant lock guards every
    mutation of the LRU dict and the bytes ledger, so the multi-threaded
    micro-batcher (:mod:`repro.serve`) can share one cache across its
    worker pool. The lock is held across a compile, which doubles as
    single-flight: concurrent first requests for the same table build it
    once instead of racing N identical enumeration sweeps.

    ``source`` is the attach-before-build hook: an object with a
    ``lookup(fingerprint, mode) -> Optional[ResponseTable]`` method
    (e.g. :class:`repro.serve.AttachedTableSource`) consulted on every
    in-memory miss *before* disk or the compiler — so a worker attached
    to a published shared-memory store never compiles, never parses an
    ``.npz``, and holds no private copy of the table image.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_table_bytes: int = DEFAULT_MAX_TABLE_BYTES,
        persist_dir: Optional[Path] = None,
        source=None,
    ):
        if max_bytes <= 0:
            raise ConfigError("the table cache needs a positive bytes budget")
        self.max_bytes = max_bytes
        self.max_table_bytes = min(max_table_bytes, max_bytes)
        #: Disk persistence root; ``None`` keeps the cache memory-only.
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        #: Attach-before-build table provider; ``None`` disables it.
        self.source = source
        self._tables: "OrderedDict[Tuple[str, str], ResponseTable]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes currently held by cached tables."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._tables

    # ------------------------------------------------------------------
    # The one entry point
    # ------------------------------------------------------------------
    def get(
        self,
        config: NacuConfig,
        mode: FunctionMode,
        lut=None,
    ) -> Optional[ResponseTable]:
        """The table for ``(config, mode)``, compiling on first use.

        Returns ``None`` when the format is too wide for the per-table
        ceiling — the caller's cue to fall back to the datapath. The
        ``lut`` is forwarded to the compiler so an engine's shared
        coefficient LUT build is reused rather than rebuilt.
        """
        key = (config.fingerprint(), mode.value)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self._count("compile.cache_hit")
                return table
            # Checked on a miss only: a cached table passed it already.
            if self._estimate_bytes(config, mode) > self.max_table_bytes:
                self._count("compile.fallback_too_wide")
                return None
            self._count("compile.cache_miss")
            table = self._attach(key)
            if table is None:
                table = self._load_persisted(key, config, mode)
                if table is None:
                    table = compile_table(config, mode, lut=lut)
                    tel = _telemetry.resolve(None)
                    if tel is not None:
                        tel.count("compile.tables_compiled")
                        tel.count("compile.table_bytes", table.nbytes)
                        tel.observe_span(
                            f"compile.build.{mode.value}", table.compile_ns
                        )
                    self._persist(key, table)
            self._insert(key, table)
            return table

    def get_reciprocal(self, config: NacuConfig) -> Optional[ReciprocalTable]:
        """The reciprocal table for ``config``'s approximate divider.

        Same contract as :meth:`get` — attach source, then disk, then a
        compile, LRU-inserted under the bytes budget — but keyed by
        ``config.divider_fingerprint()`` with the ``"reciprocal"`` kind,
        so configs that differ only outside the divide stage share one
        table. ``None`` when the config uses the restoring divider
        (whose fast path needs no table) or the mantissa range exceeds
        the per-table ceiling.
        """
        if not config.use_approx_divider:
            return None
        n_codes = 1 << (config.acc_fmt.fb - 1)
        if n_codes * np.dtype(np.int64).itemsize > self.max_table_bytes:
            self._count("compile.fallback_too_wide")
            return None
        key = (config.divider_fingerprint(), RECIPROCAL_KIND)
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
                self._count("compile.cache_hit")
                return table
            self._count("compile.cache_miss")
            table = self._attach(key)
            if table is None:
                table = self._load_persisted_reciprocal(key, config)
                if table is None:
                    table = compile_reciprocal_table(config)
                    tel = _telemetry.resolve(None)
                    if tel is not None:
                        tel.count("compile.tables_compiled")
                        tel.count("compile.table_bytes", table.nbytes)
                        tel.observe_span(
                            f"compile.build.{RECIPROCAL_KIND}", table.compile_ns
                        )
                    self._persist_reciprocal(key, table)
            self._insert(key, table)
            return table

    def _attach(self, key: Tuple[str, str]):
        """A zero-copy table from the attach source, when one is wired in.

        Attached tables never re-persist: they came from an image that is
        already published (shared memory or an on-disk ``.npz``), so the
        only cost here is the lookup itself.
        """
        if self.source is None:
            return None
        table = self.source.lookup(*key)
        if table is not None:
            self._count("compile.attach_hits")
        return table

    # ------------------------------------------------------------------
    # LRU bookkeeping
    # ------------------------------------------------------------------
    def _insert(self, key: Tuple[str, str], table: ResponseTable) -> None:
        with self._lock:
            self._tables[key] = table
            self._tables.move_to_end(key)
            self._bytes += table.nbytes
            while self._bytes > self.max_bytes and len(self._tables) > 1:
                _, evicted = self._tables.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._count("compile.evictions")

    @staticmethod
    def _estimate_bytes(config: NacuConfig, mode: FunctionMode) -> int:
        n_codes = config.io_fmt.raw_max - config.io_fmt.raw_min + 1
        if mode is FunctionMode.EXP:
            n_codes = -config.io_fmt.raw_min + 1
        return n_codes * np.dtype(np.int64).itemsize

    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        tel = _telemetry.resolve(None)
        if tel is not None:
            tel.count(name, n)

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    def _path_for(self, key: Tuple[str, str]) -> Path:
        fingerprint, mode = key
        return self.persist_dir / f"table-{fingerprint}-{mode}.npz"

    def _persist(self, key: Tuple[str, str], table: ResponseTable) -> None:
        if self.persist_dir is None:
            return
        path = self._path_for(key)
        try:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            # The tmp name must end in .npz or np.savez appends it and
            # the atomic rename below would miss the written file.
            tmp = path.with_name(path.stem + ".tmp.npz")
            np.savez(
                tmp,
                version=np.int64(_PERSIST_VERSION),
                fingerprint=np.str_(table.fingerprint),
                mode=np.str_(table.mode.value),
                fmt=np.str_(str(table.fmt)),
                raw_offset=np.int64(table.raw_offset),
                outputs=table.outputs,
            )
            os.replace(tmp, path)
            self._count("compile.disk_writes")
        except OSError:
            # A read-only or full cache directory must never fail the
            # evaluation — persistence is strictly best-effort.
            self._count("compile.disk_write_failures")

    def _persist_reciprocal(
        self, key: Tuple[str, str], table: ReciprocalTable
    ) -> None:
        if self.persist_dir is None:
            return
        path = self._path_for(key)
        try:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.stem + ".tmp.npz")
            np.savez(
                tmp,
                version=np.int64(_PERSIST_VERSION),
                fingerprint=np.str_(table.fingerprint),
                mode=np.str_(RECIPROCAL_KIND),
                fmt=np.str_(str(table.fmt)),
                den_fb=np.int64(table.den_fb),
                raw_offset=np.int64(table.raw_offset),
                outputs=table.outputs,
            )
            os.replace(tmp, path)
            self._count("compile.disk_writes")
        except OSError:
            self._count("compile.disk_write_failures")

    def _load_persisted_reciprocal(
        self, key: Tuple[str, str], config: NacuConfig
    ) -> Optional[ReciprocalTable]:
        if self.persist_dir is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        den_fb = config.acc_fmt.fb
        try:
            with np.load(path, allow_pickle=False) as data:
                stale = (
                    int(data["version"]) != _PERSIST_VERSION
                    or str(data["fingerprint"]) != config.divider_fingerprint()
                    or str(data["mode"]) != RECIPROCAL_KIND
                    or str(data["fmt"]) != str(config.divider_fmt)
                    or int(data["den_fb"]) != den_fb
                    or int(data["raw_offset"]) != 1 << (den_fb - 1)
                )
                if stale:
                    self._count("compile.disk_stale")
                    path.unlink(missing_ok=True)
                    return None
                outputs = np.ascontiguousarray(data["outputs"], dtype=np.int64)
        except (OSError, KeyError, ValueError):
            self._count("compile.disk_corrupt")
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        outputs.flags.writeable = False
        self._count("compile.disk_hits")
        return ReciprocalTable(
            fingerprint=config.divider_fingerprint(),
            fmt=config.divider_fmt,
            den_fb=den_fb,
            raw_offset=1 << (den_fb - 1),
            outputs=outputs,
        )

    def _load_persisted(
        self, key: Tuple[str, str], config: NacuConfig, mode: FunctionMode
    ) -> Optional[ResponseTable]:
        if self.persist_dir is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                stale = (
                    int(data["version"]) != _PERSIST_VERSION
                    or str(data["fingerprint"]) != config.fingerprint()
                    or str(data["mode"]) != mode.value
                    or str(data["fmt"]) != str(config.io_fmt)
                    or int(data["raw_offset"]) != config.io_fmt.raw_min
                )
                if stale:
                    self._count("compile.disk_stale")
                    path.unlink(missing_ok=True)
                    return None
                outputs = np.ascontiguousarray(data["outputs"], dtype=np.int64)
        except (OSError, KeyError, ValueError):
            self._count("compile.disk_corrupt")
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        outputs.flags.writeable = False
        self._count("compile.disk_hits")
        return ResponseTable(
            mode=mode,
            fingerprint=config.fingerprint(),
            fmt=config.io_fmt,
            raw_offset=config.io_fmt.raw_min,
            outputs=outputs,
        )

    def clear(self) -> None:
        """Drop every in-memory table (disk entries stay)."""
        with self._lock:
            self._tables.clear()
            self._bytes = 0

    def __repr__(self) -> str:
        return (
            f"<TableCache {len(self._tables)} tables, "
            f"{self._bytes >> 10} KiB of {self.max_bytes >> 10} KiB>"
        )


# ----------------------------------------------------------------------
# The process-wide default cache
# ----------------------------------------------------------------------
_default: Optional[TableCache] = None
_default_lock = threading.Lock()


def default_cache() -> TableCache:
    """The shared memory-only cache every fast-path engine uses.

    Disk persistence is opt-in via :func:`enable_persistence` (or by
    building a private :class:`TableCache` with a ``persist_dir``).
    """
    global _default
    cache = _default
    if cache is not None:
        return cache  # the per-batch case: no lock once it exists
    with _default_lock:
        if _default is None:
            _default = TableCache()
        return _default


def enable_persistence(persist_dir: Optional[Path] = None) -> TableCache:
    """Turn on disk persistence for the default cache; returns it."""
    cache = default_cache()
    cache.persist_dir = (
        Path(persist_dir) if persist_dir is not None else default_persist_dir()
    )
    return cache


def reset_default_cache() -> None:
    """Drop the default cache (tests use this for isolation)."""
    global _default
    _default = None
