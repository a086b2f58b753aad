"""Spillable array storage: RAM-budgeted, memmap-backed columnar arrays.

The batch exploration engine builds
:class:`~repro.petri.batch.ColumnarReachabilityGraph` objects out of a
handful of growable arrays (state words, CSR edges, packed parents, the
hash index).  This module provides the storage layer underneath them:

* :class:`ArrayStore` -- a growable 1-D/2-D NumPy array with geometric
  (power-of-two) resizing.  In RAM it grows by allocating a fresh
  uninitialised buffer and copying only the *used* rows (unlike
  ``np.concatenate([buf, np.zeros_like(buf)])``, which both zeroes and
  copies the full capacity).  Once its pool spills, the backing becomes an
  ``np.memmap`` and growth is an ``ftruncate`` + remap -- no copy at all.
* :class:`SpillPool` -- the shared accountant for one graph's stores.  It
  tracks the RAM bytes held by all registered stores and, the first time a
  growth request would push the total past the configured budget, converts
  *every* store to disk at once (so the RAM working set drops to the
  frontier-sized temporaries of the exploration loop).
* :class:`HashIndex` -- the open-addressing table mapping each state row
  to its index: it stores only the indices and compares rows against the
  state store, so it costs 4 bytes per slot (8 past ``2**31`` states).
* :class:`SpillConfig` -- the spill directory and RAM budget.  They are
  deployment settings, read only from the ``REPRO_SPILL_DIR`` /
  ``REPRO_SPILL_BYTES`` environment variables (:meth:`SpillConfig.resolve`);
  spilling never changes a graph, so no verdict or cache key depends on them.

Spill files are **unlinked immediately after creation** (open ->
``os.unlink`` -> ``ftruncate`` -> ``mmap``): the kernel keeps the inode
alive while the file descriptor / mapping exists and reclaims the space
the moment the process lets go -- on success, on an exception, and even
when a supervised worker is SIGKILLed mid-exploration.  On filesystems
that refuse unlinked mappings the store falls back to named files removed
by :meth:`SpillPool.close` and an interpreter-exit finalizer.

The exception to the unlink rule is **checkpoint mode** (``named_dir=``):
a pool given a named directory keeps every spill file at a deterministic
path (``<dir>/<store>.bin``) and spills from the first row, so that an
exploration killed mid-level leaves its arrays on disk next to a
:class:`Checkpoint` manifest recording, per completed BFS level, the row
counts and chained CRC32 of every store.  Resuming re-opens those files
(:meth:`ArrayStore.restore`), verifies the CRCs, and continues from the
last complete level; a run that finishes discards the named files (the
live mappings survive the unlink, as above).
"""

import json
import mmap
import os
import tempfile
import weakref
import zlib

import numpy as _np

from repro.exceptions import ConfigurationError
from repro.utils import faults as _faults

#: Environment knobs (read by :meth:`SpillConfig.resolve`).
SPILL_DIR_ENV = "REPRO_SPILL_DIR"
SPILL_BYTES_ENV = "REPRO_SPILL_BYTES"


class SpillConfig:
    """Where and when a graph's arrays spill to disk.

    *budget_bytes* is the RAM ceiling for the graph's store backings: the
    first growth that would exceed it moves every store onto disk.  A
    budget of ``0`` spills immediately (every array is disk-backed from
    the first row) -- the mode the ``tests-spill`` CI job runs the whole
    differential suite under.
    """

    def __init__(self, directory=None, budget_bytes=0):
        self.directory = directory if directory is not None else tempfile.gettempdir()
        self.budget_bytes = int(budget_bytes)

    @classmethod
    def resolve(cls):
        """Build a config from ``REPRO_SPILL_DIR`` / ``REPRO_SPILL_BYTES``.

        Returns ``None`` when spilling is disabled (neither variable set).
        A directory alone means "spill from the start" (budget 0); a budget
        alone spills into the system temp directory.  A budget that is not
        a non-negative integer is rejected.
        """
        directory = os.environ.get(SPILL_DIR_ENV) or None
        raw = os.environ.get(SPILL_BYTES_ENV)
        if directory is None and not raw:
            return None
        try:
            budget = int(raw) if raw else 0
        except ValueError:
            budget = None
        if budget is None or budget < 0:
            raise ConfigurationError(
                "{}={!r} is not a byte count".format(SPILL_BYTES_ENV, raw))
        return cls(directory=directory, budget_bytes=budget)

    def to_dict(self):
        return {"directory": self.directory, "budget_bytes": self.budget_bytes}

    def __repr__(self):
        return "SpillConfig(directory={!r}, budget_bytes={})".format(
            self.directory, self.budget_bytes)


def _remove_paths(paths):
    """Interpreter-exit fallback for named (non-unlinkable) spill files."""
    for path in paths:
        try:
            os.remove(path)
        except OSError:
            pass


class SpillPool:
    """Shared RAM accountant and spill-file factory for one graph's stores.

    The pool exists even when spilling is disabled (*config* ``None``):
    the stores always route growth decisions through it, so the in-RAM
    and spilled code paths are the same code path, and
    :meth:`stats` is always available for ``graph.exploration_stats``.
    """

    def __init__(self, config=None, label="graph", named_dir=None):
        self.config = config
        self.label = label
        self.named_dir = str(named_dir) if named_dir is not None else None
        self.spilled = False
        self.write_bytes = 0
        self.read_bytes = 0
        self.file_count = 0
        self.closed = False
        self._stores = []
        self._ram_bytes = 0
        self._serial = 0
        self._named_paths = []
        self._checkpoint_paths = []
        self._finalizer = weakref.finalize(self, _remove_paths, self._named_paths)
        if self.named_dir is not None:
            # Checkpoint mode: every store lives at a stable on-disk path
            # from its first row, so a killed run leaves resumable files.
            os.makedirs(self.named_dir, exist_ok=True)
            if self.config is None:
                self.config = SpillConfig(directory=self.named_dir,
                                          budget_bytes=0)
            self.spilled = True

    # -- accounting ----------------------------------------------------------

    def _register(self, store):
        self._stores.append(store)
        if self.spilled:
            store._to_disk()
        else:
            self._ram_bytes += store._backing_nbytes()
            self._check_budget()

    def _unregister(self, store):
        try:
            self._stores.remove(store)
        except ValueError:
            return
        if store._handle is None:
            self._ram_bytes -= store._backing_nbytes()

    def _approve_growth(self, extra_ram_bytes):
        """Account a RAM growth of *extra_ram_bytes*; maybe spill first.

        Returns ``True`` when the caller should grow in RAM, ``False``
        when the pool spilled (the caller's store is now disk-backed and
        must grow on disk instead).
        """
        if self.spilled:
            return False
        if (self.config is not None
                and self._ram_bytes + extra_ram_bytes > self.config.budget_bytes):
            self._spill_all()
            return False
        self._ram_bytes += extra_ram_bytes
        return True

    def _check_budget(self):
        if (not self.spilled and self.config is not None
                and self._ram_bytes > self.config.budget_bytes):
            self._spill_all()

    def _spill_all(self):
        self.spilled = True
        for store in self._stores:
            store._to_disk()
        self._ram_bytes = 0

    def drop_resident(self):
        """Stream completed work out of memory: drop spilled stores' pages.

        ``madvise(MADV_DONTNEED)`` on a shared file mapping releases the
        process's resident pages without touching the data (dirty pages
        stay in the page cache and are written back normally; later reads
        refault them on demand).  The exploration loops call this at each
        BFS level boundary, so the resident set tracks the current level's
        working set instead of the whole graph.  A no-op until the pool
        has spilled, and on platforms without ``madvise``.
        """
        if not self.spilled:
            return
        for store in self._stores:
            store.drop_resident()

    def note_read(self, nbytes):
        """Attribute *nbytes* of gather traffic to spill reads (if spilled)."""
        if self.spilled:
            self.read_bytes += int(nbytes)

    def note_write(self, nbytes):
        if self.spilled:
            self.write_bytes += int(nbytes)

    # -- spill files ---------------------------------------------------------

    def open_spill_file(self, name):
        """Create (and immediately unlink) a spill file; return its handle.

        In checkpoint mode the file instead lives at the stable path
        ``<named_dir>/<name>.bin``, is re-opened (not truncated) when it
        already exists, and is **not** unlinked: surviving the process is
        the point.  :meth:`discard_checkpoint_files` removes them once an
        exploration completes.
        """
        if self.named_dir is not None:
            path = os.path.join(self.named_dir, "{}.bin".format(name))
            handle = open(path, "r+b" if os.path.exists(path) else "w+b")
            if path not in self._checkpoint_paths:
                self._checkpoint_paths.append(path)
            self.file_count += 1
            return handle
        if self.config is None:
            raise ConfigurationError(
                "BUG: pool {!r} spilled without a spill configuration".format(
                    self.label))
        directory = self.config.directory
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "repro-spill-{}-{}-{}.bin".format(
            os.getpid(), self._serial, name))
        self._serial += 1
        handle = open(path, "w+b")
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - non-POSIX fallback
            self._named_paths.append(path)
        self.file_count += 1
        return handle

    # -- lifecycle -----------------------------------------------------------

    def stats(self):
        """JSON-able spill counters for ``graph.exploration_stats``."""
        return {
            "enabled": self.config is not None,
            "spilled": self.spilled,
            "budget_bytes": (self.config.budget_bytes
                             if self.config is not None else None),
            "directory": (self.config.directory
                          if self.config is not None else None),
            "write_bytes": self.write_bytes,
            "read_bytes": self.read_bytes,
            "files": self.file_count,
            "checkpoint": self.named_dir,
        }

    def discard_checkpoint_files(self):
        """Unlink the named checkpoint files (live mappings stay valid).

        Called when a checkpointed exploration completes: the graph keeps
        its memmap views (the kernel holds the inodes), but nothing is
        left on disk to resume from -- or to leak.
        """
        if self._checkpoint_paths:
            _remove_paths(list(self._checkpoint_paths))
            del self._checkpoint_paths[:]

    def close(self):
        """Release every store's backing and remove named fallback files.

        Safe to call at any time: unlinked mappings survive their file
        descriptor, so arrays still referencing the data stay valid while
        the disk space is reclaimed as soon as they are garbage collected.
        """
        if self.closed:
            return
        self.closed = True
        for store in list(self._stores):
            store.release()
        self._stores = []
        self._ram_bytes = 0
        if self._named_paths:
            _remove_paths(list(self._named_paths))
            del self._named_paths[:]
        self._finalizer.detach()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # Keep the pool alive on success (the graph owns the memmaps);
        # tear it down when the exploration died mid-flight.
        if exc_type is not None:
            self.close()
        return False


class ArrayStore:
    """A growable 1-D or 2-D array, RAM-backed until its pool spills.

    *columns* ``0`` makes a 1-D store of dtype *dtype*; otherwise rows are
    ``(columns,)`` vectors.  :attr:`data` is always a view of exactly the
    rows written so far; :meth:`append` grows geometrically through the
    pool's budget accounting.
    """

    def __init__(self, pool, name, dtype, columns=0, capacity=256):
        self.pool = pool
        self.name = name
        self.dtype = _np.dtype(dtype)
        self.columns = int(columns)
        self._row_nbytes = self.dtype.itemsize * max(1, self.columns)
        self._length = 0
        self._handle = None
        capacity = max(1, int(capacity))
        self._backing = _np.empty(self._shape(capacity), dtype=self.dtype)
        pool._register(self)

    @classmethod
    def restore(cls, pool, name, dtype, columns, rows):
        """Re-open a checkpointed store's named file exposing *rows* rows.

        The pool must be in checkpoint mode.  The file is truncated down
        to the geometric capacity for *rows* (dropping any slack -- and
        any bytes appended after the manifest was written), never read
        into RAM: restoring a 100M-row store maps it, nothing more.
        """
        if pool.named_dir is None:
            raise ConfigurationError(
                "ArrayStore.restore needs a checkpoint-mode pool")
        store = cls.__new__(cls)
        store.pool = pool
        store.name = name
        store.dtype = _np.dtype(dtype)
        store.columns = int(columns)
        store._row_nbytes = store.dtype.itemsize * max(1, store.columns)
        handle = pool.open_spill_file(name)
        rows = int(rows)
        needed = rows * store._row_nbytes
        size = os.fstat(handle.fileno()).st_size
        if size < needed:
            handle.close()
            raise ConfigurationError(
                "checkpoint store {!r} holds {} bytes, manifest claims {}"
                .format(name, size, needed))
        capacity = 1
        while capacity < rows:
            capacity *= 2
        os.ftruncate(handle.fileno(), capacity * store._row_nbytes)
        store._backing = _np.memmap(handle, dtype=store.dtype, mode="r+",
                                    shape=store._shape(capacity))
        store._handle = handle
        store._length = rows
        pool._stores.append(store)
        return store

    # -- geometry ------------------------------------------------------------

    def _shape(self, rows):
        if self.columns:
            return (rows, self.columns)
        return (rows,)

    def _backing_nbytes(self):
        return len(self._backing) * self._row_nbytes

    @property
    def spilled(self):
        return self._handle is not None

    def __len__(self):
        return self._length

    @property
    def data(self):
        """View of the rows written so far (a memmap view once spilled)."""
        return self._backing[:self._length]

    # -- growth --------------------------------------------------------------

    def reserve(self, rows):
        """Ensure capacity for *rows* total rows (geometric growth)."""
        capacity = len(self._backing)
        if rows <= capacity:
            return
        new_capacity = max(capacity, 1)
        while new_capacity < rows:
            new_capacity *= 2
        if self._handle is not None:
            self._grow_disk(new_capacity)
            return
        extra = (new_capacity - capacity) * self._row_nbytes
        if self.pool._approve_growth(extra):
            fresh = _np.empty(self._shape(new_capacity), dtype=self.dtype)
            fresh[:self._length] = self._backing[:self._length]
            self._backing = fresh
        else:
            # The pool spilled (converting this store at its old capacity);
            # finish the growth on disk.
            self._grow_disk(new_capacity)

    def _to_disk(self):
        """Move the backing onto an (unlinked) memmap at current capacity."""
        if self._handle is not None:
            return
        handle = self.pool.open_spill_file(self.name)
        capacity = max(1, len(self._backing))
        os.ftruncate(handle.fileno(), capacity * self._row_nbytes)
        mapped = _np.memmap(handle, dtype=self.dtype, mode="r+",
                            shape=self._shape(capacity))
        if self._length:
            mapped[:self._length] = self._backing[:self._length]
        self._backing = mapped
        self._handle = handle
        self.pool.write_bytes += self._length * self._row_nbytes

    def _grow_disk(self, new_capacity):
        os.ftruncate(self._handle.fileno(), new_capacity * self._row_nbytes)
        # Remapping the same descriptor sees the pages the old mapping
        # wrote (MAP_SHARED); no copy happens on disk growth.
        self._backing = _np.memmap(self._handle, dtype=self.dtype, mode="r+",
                                   shape=self._shape(new_capacity))

    # -- writes --------------------------------------------------------------

    def append(self, values):
        """Append *values* (rows of this store's shape); return nothing."""
        values = _np.asarray(values, dtype=self.dtype)
        count = len(values)
        if not count:
            return
        if _faults.trigger("io_error", "write"):
            raise _faults.FaultError(
                "injected io_error on write to store {!r}".format(self.name))
        self.reserve(self._length + count)
        self._backing[self._length:self._length + count] = values
        self._length += count
        self.pool.note_write(count * self._row_nbytes)

    def set_length(self, rows):
        """Reserve and expose *rows* rows; new rows are uninitialised."""
        self.reserve(rows)
        if rows > self._length:
            self.pool.note_write((rows - self._length) * self._row_nbytes)
        self._length = int(rows)

    # -- finalisation --------------------------------------------------------

    def trim(self):
        """The final exact-length array.

        In RAM this copies down to the exact size (releasing the geometric
        slack); on disk it narrows the view -- the file is never truncated
        downward, so stale larger mappings can never fault.
        """
        if self._handle is None:
            if len(self._backing) != self._length:
                exact = _np.empty(self._shape(self._length), dtype=self.dtype)
                exact[:] = self._backing[:self._length]
                slack = (len(self._backing) - self._length) * self._row_nbytes
                self._backing = exact
                self.pool._ram_bytes -= slack
            return self._backing
        return self._backing[:self._length]

    def drop_resident(self):
        """Release this store's resident pages (see ``SpillPool.drop_resident``)."""
        if self._handle is None:
            return
        mapping = getattr(self._backing, "_mmap", None)
        advice = getattr(mmap, "MADV_DONTNEED", None)
        if mapping is None or advice is None or not hasattr(mapping, "madvise"):
            return  # pragma: no cover - pre-3.8 or exotic mmap backend
        try:
            mapping.madvise(advice)
        except (OSError, ValueError):  # pragma: no cover - platform quirk
            pass

    def release(self):
        """Drop the backing and close the spill handle (if any)."""
        self.pool._unregister(self)
        self._backing = _np.empty(self._shape(0), dtype=self.dtype)
        self._length = 0
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover
                pass
            self._handle = None

    def __repr__(self):
        return "ArrayStore({!r}, rows={}, {})".format(
            self.name, self._length, "disk" if self.spilled else "ram")


#: Fibonacci hashing multiplier (2**64 / golden ratio, made odd): the slot
#: of a row hash is the high bits of their product.
_FIBONACCI = _np.uint64(0x9E3779B97F4A7C15)


def fibonacci_slots(hashes, bits):
    """Home slots of *hashes* in a ``2**bits``-slot open-addressing table."""
    shift = _np.uint64(64 - bits)
    return ((hashes * _FIBONACCI) >> shift).astype(_np.intp)


def rows_equal(left, left_at, right, right_at):
    """Word-by-word equality of rows ``left[left_at]`` and ``right[right_at]``."""
    equal = left[left_at, 0] == right[right_at, 0]
    for w in range(1, left.shape[1]):
        equal &= left[left_at, w] == right[right_at, w]
    return equal


def probe_slots(slots, states, rows, hashes):
    """Indices in *states* of each of *rows* (``-1`` if absent).

    *slots* is a :class:`HashIndex` table: linear probing from each row's
    home slot, with every occupied slot checked by an exact row compare,
    so the answer is exact whatever the hash quality.
    """
    # Plain views: indexing an np.memmap pays a Python-level __getitem__.
    slots, states = _np.asarray(slots), _np.asarray(states)
    found = _np.full(len(rows), -1, dtype=_np.int64)
    mask = len(slots) - 1
    slot = fibonacci_slots(hashes, mask.bit_length())
    pending = _np.arange(len(rows), dtype=_np.intp)
    while len(pending):
        candidate = slots[slot]
        occupied = candidate >= 0
        pending, slot, candidate = (pending[occupied], slot[occupied],
                                    candidate[occupied])
        match = rows_equal(states, candidate, rows, pending)
        found[pending[match]] = candidate[match]
        miss = ~match
        pending = pending[miss]
        slot = (slot[miss] + 1) & mask
    return found


class HashIndex:
    """Open-addressing index from state rows to their state indices.

    The table holds only indices (``-1`` marks a free slot): the rows
    themselves stay in the *states* store, and every probe compares them
    exactly.  Slots are int32, or int64 when *wide*.  The load factor stays
    at most one half: an :meth:`extend` that would pass it doubles the
    table and re-inserts every state from its row hash.  The table is an
    :class:`ArrayStore` of *pool*, so it spills with the rest of the graph.
    """

    #: log2 of the first table's slots: 64 KiB of int32 slots keep the
    #: load of small graphs low, so their probes end in a round or two.
    _MIN_BITS = 14

    def __init__(self, pool, name, states, hash_rows, wide=False):
        self._states = states
        self._hash_rows = hash_rows
        self._store = ArrayStore(pool, name, _np.int64 if wide else _np.int32,
                                 capacity=1 << self._MIN_BITS)
        self._store.set_length(1 << self._MIN_BITS)
        self._store.data.fill(-1)
        self.count = 0

    @property
    def slots(self):
        """The slot table, for lookups with :func:`probe_slots`."""
        return _np.asarray(self._store.data)

    def lookup(self, rows, hashes):
        """Indices of *rows* among the indexed states (``-1`` if absent)."""
        return probe_slots(self.slots, self._states.data, rows, hashes)

    def extend(self, hashes):
        """Index states ``count, count + 1, ...``, given their row *hashes*.

        Their rows must already be in the states store, and be distinct
        from each other and from every indexed state.
        """
        start, total = self.count, self.count + len(hashes)
        if 2 * total > len(self.slots):
            capacity = len(self.slots)
            while 2 * total > capacity:
                capacity *= 2
            self._store.set_length(capacity)
            self.slots.fill(-1)
            if start:
                self._place(self._hash_rows(self._states.data[:start]), 0)
        self._place(hashes, start)
        self.count = total

    def _place(self, hashes, start):
        """Put indices ``start, start + 1, ...`` into free slots."""
        slots = self.slots
        mask = len(slots) - 1
        slot = fibonacci_slots(hashes, mask.bit_length())
        pending = _np.arange(start, start + len(hashes), dtype=slots.dtype)
        while len(pending):
            free = slots[slot] < 0
            slots[slot[free]] = pending[free]
            # Rows sharing a free slot race for it; the losers probe on.
            lost = slots[slot] != pending
            pending = pending[lost]
            slot = (slot[lost] + 1) & mask


#: File name of the per-level checkpoint manifest inside a checkpoint dir.
MANIFEST_NAME = "checkpoint.json"
MANIFEST_VERSION = 1


def store_crc(store, rows=None, base=0):
    """Chunked CRC32 of the first *rows* rows of *store* (chained on *base*)."""
    rows = len(store) if rows is None else int(rows)
    data = store._backing[:rows]
    crc = base
    chunk = max(1, (1 << 24) // store._row_nbytes)
    for start in range(0, rows, chunk):
        part = _np.ascontiguousarray(data[start:start + chunk])
        crc = zlib.crc32(part.tobytes(), crc) & 0xFFFFFFFF
    return crc


class Checkpoint:
    """The per-level manifest of a checkpointed exploration.

    Tracks a fixed set of append-only stores; :meth:`record_level` flushes
    their dirty pages, extends each store's *chained* CRC32 by exactly the
    rows appended since the previous level (so checkpoint cost is
    proportional to the level, not the graph), and atomically replaces the
    manifest JSON.  After a crash, :meth:`load` + :meth:`resume` re-attach
    to the named files and verify the full chained CRC once; any mismatch
    raises :class:`~repro.exceptions.ConfigurationError`, which callers
    treat like a cache miss -- recompute from scratch.
    """

    def __init__(self, directory, stores, identity):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, MANIFEST_NAME)
        self._stores = dict(stores)
        self.identity = identity
        self._rows = {name: 0 for name in self._stores}
        self._crcs = {name: 0 for name in self._stores}

    @staticmethod
    def load(directory):
        """The manifest payload under *directory*, or ``None``.

        Missing, unreadable, corrupt, or wrong-version manifests all
        return ``None``: a damaged checkpoint degrades to a fresh run.
        """
        try:
            with open(os.path.join(str(directory), MANIFEST_NAME), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != MANIFEST_VERSION:
            return None
        if not isinstance(payload.get("stores"), dict):
            return None
        return payload

    @classmethod
    def resume(cls, directory, pool, specs, identity, manifest):
        """Re-open the manifest's stores and verify their chained CRCs.

        *specs* maps store name to ``(dtype, columns)``.  Returns
        ``(checkpoint, stores)`` with every store restored to the manifest
        row counts; raises :class:`ConfigurationError` when the identity
        does not match this exploration or any store fails verification.
        """
        if manifest.get("identity") != identity:
            raise ConfigurationError(
                "checkpoint in {!r} belongs to a different exploration"
                .format(str(directory)))
        stores = {}
        try:
            for name, (dtype, columns) in specs.items():
                entry = manifest["stores"].get(name)
                if not isinstance(entry, dict):
                    raise ConfigurationError(
                        "checkpoint manifest misses store {!r}".format(name))
                store = ArrayStore.restore(pool, name, dtype, columns,
                                           entry["rows"])
                stores[name] = store
                if store_crc(store, entry["rows"]) != entry["crc"]:
                    raise ConfigurationError(
                        "checkpoint store {!r} failed CRC verification"
                        .format(name))
        except ConfigurationError:
            for store in stores.values():
                store.release()
            raise
        checkpoint = cls(directory, stores, identity)
        for name, entry in manifest["stores"].items():
            if name in checkpoint._rows:
                checkpoint._rows[name] = int(entry["rows"])
                checkpoint._crcs[name] = int(entry["crc"])
        return checkpoint, stores

    def record_level(self, progress):
        """Durably record one completed BFS level (*progress* is JSON-able).

        Ordering is the WAL rule in miniature: store pages are flushed
        *before* the manifest names their new lengths, so a manifest that
        survives a crash only ever describes bytes that also survived.
        """
        entries = {}
        for name, store in self._stores.items():
            rows = len(store)
            previous = self._rows[name]
            if rows < previous:
                raise ConfigurationError(
                    "BUG: checkpointed store {!r} shrank ({} -> {})"
                    .format(name, previous, rows))
            if rows > previous:
                self._crcs[name] = _chain_crc(store, previous, rows,
                                              self._crcs[name])
                _flush_rows(store, previous, rows)
            self._rows[name] = rows
            entries[name] = {"rows": rows, "crc": self._crcs[name]}
        payload = {
            "version": MANIFEST_VERSION,
            "identity": self.identity,
            "stores": entries,
            "progress": dict(progress),
        }
        temp_path = self.path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.path)
        _fsync_directory(self.directory)

    def discard(self):
        """Remove the manifest (the run completed or was superseded)."""
        for path in (self.path, self.path + ".tmp"):
            try:
                os.remove(path)
            except OSError:
                pass


def _flush_rows(store, start, end):
    """Sync the pages holding rows ``[start, end)`` of *store* to disk.

    The tracked stores are append-only between level boundaries (the full
    prefix CRC is re-verified on resume, so a mutated earlier row would be
    caught), which makes the appended range exactly the dirty range -- a
    whole-mapping ``msync`` would re-walk the entire file's pages every
    level, turning per-level cost into per-graph cost.
    """
    mapping = getattr(store._backing, "_mmap", None)
    if mapping is None:
        return  # RAM-backed: nothing on disk to sync yet
    page = mmap.ALLOCATIONGRANULARITY
    first = (start * store._row_nbytes) // page * page
    last = min(len(mapping),
               -(-(end * store._row_nbytes) // page) * page)
    if last > first:
        mapping.flush(first, last - first)


def _chain_crc(store, start, end, base):
    """Extend *base* by the CRC32 of rows ``[start, end)`` of *store*."""
    part = _np.ascontiguousarray(store._backing[start:end])
    # crc32 reads the buffer directly; .tobytes() would copy every level.
    return zlib.crc32(part.data, base) & 0xFFFFFFFF


def _fsync_directory(directory):
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(descriptor)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(descriptor)
