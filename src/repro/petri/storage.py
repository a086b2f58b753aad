"""Columnar array storage: growable arrays in RAM or in a checkpoint file.

The batch exploration engine builds
:class:`~repro.petri.batch.ColumnarReachabilityGraph` objects out of a
handful of growable arrays (state words, fired transitions, deadlock
indices, the frontier, the hash index).  This module provides the storage
underneath them:

* :class:`ArrayStore` -- a growable 1-D/2-D NumPy array with geometric
  (power-of-two) resizing.  It has one of two homes, chosen when it is
  created and never changed.  In RAM it grows by allocating a fresh
  uninitialised buffer and copying only the *used* rows (unlike
  ``np.concatenate([buf, np.zeros_like(buf)])``, which both zeroes and
  copies the full capacity).  In a file it is an ``np.memmap``, and growth
  is an ``ftruncate`` + remap -- no copy at all.
* :class:`HashIndex` -- the open-addressing table mapping each state row
  to its index: it stores only the indices and compares rows against the
  state store, so it costs 4 bytes per slot (8 past ``2**31`` states).  It
  always lives in RAM: it is derived state, rebuilt from the rows.
* :class:`Checkpoint` -- the per-level manifest of a checkpointed
  exploration.  Its stores live in files at deterministic paths
  (``<dir>/<store>.bin``) from their first row, so that an exploration
  killed mid-level leaves its arrays on disk next to a manifest recording,
  per completed BFS level, the row counts and chained CRC32 of every
  store.  Resuming re-opens those files, verifies the CRCs, and continues
  from the last complete level; a run that finishes removes the files
  (the live mappings survive the unlink).

A plain run keeps every store in RAM.
"""

import json
import mmap
import os
import zlib

import numpy as _np

from repro.exceptions import ConfigurationError
from repro.utils import faults as _faults


def _capacity(rows):
    """The least power of two that holds *rows* rows."""
    capacity = 1
    while capacity < rows:
        capacity *= 2
    return capacity


class ArrayStore:
    """A growable 1-D or 2-D array, in RAM or in an open file.

    *columns* ``0`` makes a 1-D store of dtype *dtype*; otherwise rows are
    ``(columns,)`` vectors.  Without a *handle* the store lives in RAM and
    starts empty.  With one (a binary file open for update) it lives in
    that file as an ``np.memmap`` and exposes the file's first *rows* rows,
    which the file must hold: the file is sized to the geometric capacity
    for *capacity* or *rows* rows, dropping any slack past it.
    :attr:`data` is always a view of exactly the rows written so far;
    :meth:`append` grows geometrically.
    """

    def __init__(self, name, dtype, columns=0, capacity=256, handle=None,
                 rows=0):
        self.name = name
        self.dtype = _np.dtype(dtype)
        self.columns = int(columns)
        self._row_nbytes = self.dtype.itemsize * max(1, self.columns)
        self._handle = handle
        capacity = _capacity(max(capacity, rows))
        if handle is None:
            self._backing = _np.empty(self._shape(capacity), dtype=self.dtype)
        else:
            self._map(capacity)
        self._length = int(rows)

    # -- geometry ------------------------------------------------------------

    def _shape(self, rows):
        if self.columns:
            return (rows, self.columns)
        return (rows,)

    def __len__(self):
        return self._length

    @property
    def data(self):
        """View of the rows written so far (a memmap view in a file)."""
        return self._backing[:self._length]

    # -- growth --------------------------------------------------------------

    def reserve(self, rows):
        """Ensure capacity for *rows* total rows (geometric growth)."""
        if rows <= len(self._backing):
            return
        capacity = _capacity(rows)
        if self._handle is not None:
            self._map(capacity)
            return
        fresh = _np.empty(self._shape(capacity), dtype=self.dtype)
        fresh[:self._length] = self._backing[:self._length]
        self._backing = fresh

    def _map(self, capacity):
        """Size the file to *capacity* rows and map all of them."""
        os.ftruncate(self._handle.fileno(), capacity * self._row_nbytes)
        # Remapping the same descriptor sees the pages the old mapping
        # wrote (MAP_SHARED); no copy happens on growth.
        self._backing = _np.memmap(self._handle, dtype=self.dtype, mode="r+",
                                   shape=self._shape(capacity))

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

    def refill(self, rows, value):
        """Drop every row, then expose *rows* rows that all hold *value*.

        In RAM the old backing is released before the new one is
        allocated, so the two never coexist and no old row is copied only
        to be overwritten.  In a file the file only grows, as in
        :meth:`reserve`.
        """
        self._length = 0
        if self._handle is None:
            self._backing = _np.empty(self._shape(0), dtype=self.dtype)
        self.reserve(rows)
        self._backing[:rows] = value
        self._length = int(rows)

    # -- finalisation --------------------------------------------------------

    def trim(self):
        """The final exact-length array: a view of the backing, not a copy.

        A copy would hold the old and new buffers at once, at the peak of
        the run.  The geometric slack stays allocated, but slack pages
        never written are never resident.  A file is never truncated
        downward, so stale larger mappings can never fault.
        """
        return self._backing[:self._length]

    def release(self):
        """Drop the backing and close the file handle (if any)."""
        self._backing = _np.empty(self._shape(0), dtype=self.dtype)
        self._length = 0
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self):
        return "ArrayStore({!r}, rows={}, {})".format(
            self.name, self._length, "ram" if self._handle is None else "file")


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
    return probe_ends(slots, states, rows, hashes)[0]


def probe_ends(slots, states, rows, hashes):
    """:func:`probe_slots`, and the free slot each absent row's probe ended at.

    Returns ``(found, ends)``; ``ends[i]`` is meaningful only where
    ``found[i]`` is ``-1``.  Every slot from that row's home slot up to
    its end was occupied, and slots are never freed, so an insertion may
    start its probe there instead of at home (:meth:`HashIndex.extend`).
    """
    # Plain views: indexing an np.memmap pays a Python-level __getitem__.
    slots, states = _np.asarray(slots), _np.asarray(states)
    found = _np.full(len(rows), -1, dtype=_np.int64)
    mask = len(slots) - 1
    slot = fibonacci_slots(hashes, mask.bit_length())
    # Each row's probe position: only the rows that probe on move it.
    ends = slot.copy()
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
        ends[pending] = slot
    return found, ends


class HashIndex:
    """Open-addressing index from state rows to their state indices.

    The table holds only indices (``-1`` marks a free slot): the rows
    themselves stay in the *states* store, and every probe compares them
    exactly.  Slots are int32, or int64 when *wide*.  The load factor stays
    at most one half: an :meth:`extend` that would pass it drops the table
    for one twice (or more times) as large and re-inserts every state from
    its row hash, one block of states at a time.  The table is an
    :class:`ArrayStore` in RAM.
    """

    #: log2 of the first table's slots: 64 KiB of int32 slots keep the
    #: load of small graphs low, so their probes end in a round or two.
    _MIN_BITS = 14

    #: States re-inserted per block after a doubling: the temporaries of a
    #: block (hashes, slots, indices) stay a few MB whatever the graph.
    _PLACE_BLOCK = 1 << 16

    def __init__(self, states, hash_rows, wide=False):
        self._states = states
        self._hash_rows = hash_rows
        self._store = ArrayStore("hash", _np.int64 if wide else _np.int32,
                                 capacity=1)
        self._store.refill(1 << self._MIN_BITS, -1)
        self.count = 0

    @property
    def slots(self):
        """The slot table, for lookups with :func:`probe_slots`."""
        return self._store.data

    def lookup(self, rows, hashes):
        """Indices of *rows* among the indexed states (``-1`` if absent)."""
        return self.probe(rows, hashes)[0]

    def probe(self, rows, hashes):
        """:meth:`lookup`, and where each absent row's probe ended.

        Returns ``(found, ends)`` (:func:`probe_ends`); hand the ends of
        the rows that :meth:`extend` then indexes to it, in order.
        """
        return probe_ends(self.slots, self._states.data, rows, hashes)

    def extend(self, hashes, ends=None):
        """Index states ``count, count + 1, ...``, given their row *hashes*.

        Their rows must already be in the states store, and be distinct
        from each other and from every indexed state.  *ends*, their probe
        ends from :meth:`probe` with no insertion in between, lets each
        insertion start where its probe stopped instead of at its home
        slot; a doubling of the table makes them stale, and is ignored.
        """
        start, total = self.count, self.count + len(hashes)
        bits = len(self._store).bit_length() - 1
        if 2 * total > 1 << bits:
            while 2 * total > 1 << bits:
                bits += 1
            self._store.refill(1 << bits, -1)
            for low in range(0, start, self._PLACE_BLOCK):
                block = self._states.data[low:min(start,
                                                  low + self._PLACE_BLOCK)]
                self._place(fibonacci_slots(self._hash_rows(block), bits),
                            low)
            ends = None
        self._place(fibonacci_slots(hashes, bits) if ends is None else ends,
                    start)
        self.count = total

    def _place(self, slot, start):
        """Put indices ``start, start + 1, ...`` into the free slots found
        by linear probing from *slot*."""
        slots = self.slots
        mask = len(slots) - 1
        pending = _np.arange(start, start + len(slot), dtype=slots.dtype)
        while len(pending):
            free = slots[slot] < 0
            slots[slot[free]] = pending[free]
            # Rows sharing a free slot race for it; the losers probe on.
            lost = slots[slot] != pending
            pending = pending[lost]
            slot = (slot[lost] + 1) & mask


#: File name of the per-level checkpoint manifest inside a checkpoint dir.
MANIFEST_NAME = "checkpoint.json"
MANIFEST_VERSION = 4


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


def fresh_stores(specs):
    """One new, empty RAM store per ``name: (dtype, columns)`` spec."""
    return {name: ArrayStore(name, dtype, columns=columns)
            for name, (dtype, columns) in specs.items()}


class Checkpoint:
    """The per-level manifest of a checkpointed exploration.

    Tracks a fixed set of append-only stores, each in its own file at
    ``<directory>/<store>.bin``; :meth:`record_level` flushes their dirty
    pages, extends each store's *chained* CRC32 by exactly the rows
    appended since the previous level (so checkpoint cost is proportional
    to the level, not the graph), and atomically replaces the manifest
    JSON.  :meth:`open` owns the resume-or-start-fresh rule.
    """

    def __init__(self, directory, identity):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, MANIFEST_NAME)
        self.identity = identity
        self._stores = {}
        self._rows = {}
        self._crcs = {}

    def _track(self, name, store, rows=0, crc=0):
        self._stores[name] = store
        self._rows[name] = int(rows)
        self._crcs[name] = int(crc)

    def _store_path(self, name):
        return os.path.join(self.directory, "{}.bin".format(name))

    def _load(self):
        """This exploration's manifest payload, or ``None`` if there is none."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("version") != MANIFEST_VERSION
                or payload.get("identity") != self.identity
                or not isinstance(payload.get("stores"), dict)
                or not isinstance(payload.get("progress"), dict)):
            return None
        return payload

    def _restore(self, name, dtype, columns, rows):
        """Re-open store *name*'s file, exposing its first *rows* rows.

        The file is mapped, never read into RAM: restoring a 100M-row
        store maps it, nothing more.
        """
        rows = int(rows)
        handle = open(self._store_path(name), "r+b")
        needed = rows * _np.dtype(dtype).itemsize * max(1, int(columns))
        size = os.fstat(handle.fileno()).st_size
        if size < needed:
            handle.close()
            raise ConfigurationError(
                "checkpoint store {!r} holds {} bytes, manifest claims {}"
                .format(name, size, needed))
        return ArrayStore(name, dtype, columns, capacity=1, handle=handle,
                          rows=rows)

    def _create(self, name, dtype, columns):
        """A new, empty store *name* in a new file."""
        path = self._store_path(name)
        try:
            os.makedirs(self.directory, exist_ok=True)
            handle = open(path, "w+b")
        except OSError as error:
            raise ConfigurationError(
                "cannot create checkpoint store file {}: {}".format(
                    path, error.strerror or error))
        return ArrayStore(name, dtype, columns, handle=handle)

    @classmethod
    def open(cls, directory, specs, identity):
        """Resume the exploration checkpointed under *directory*, or start fresh.

        *specs* maps store name to ``(dtype, columns)``; its ``words``
        store is the state table.  Returns ``(checkpoint, stores,
        progress)``.  A manifest of this *identity* whose stores all open
        and pass their chained-CRC check, and whose progress record of its
        last completed level is well formed (:func:`_check_progress`),
        resumes: the stores re-open at the manifest's row counts.  Anything
        else -- no manifest, or a corrupt, wrong-version, foreign or
        damaged one -- starts fresh: the stale manifest is removed, the
        stores are new and empty, and *progress* is ``None``.  A damaged
        checkpoint is a cache miss, never an error; a manifest that cannot
        be removed or a store file that cannot be created raises
        :class:`ConfigurationError`.
        """
        checkpoint = cls(directory, identity)
        manifest = checkpoint._load()
        if manifest is not None:
            try:
                for name, (dtype, columns) in specs.items():
                    entry = manifest["stores"].get(name)
                    if not isinstance(entry, dict):
                        raise ConfigurationError(
                            "checkpoint manifest misses store {!r}".format(name))
                    store = checkpoint._restore(name, dtype, columns,
                                                entry["rows"])
                    checkpoint._track(name, store, entry["rows"], entry["crc"])
                    if store_crc(store) != entry["crc"]:
                        raise ConfigurationError(
                            "checkpoint store {!r} failed CRC verification"
                            .format(name))
                progress = manifest["progress"]
                _check_progress(progress, checkpoint._rows["words"])
                return checkpoint, dict(checkpoint._stores), progress
            except (OSError, ConfigurationError, KeyError, TypeError,
                    ValueError):
                # A store file that does not open, a store entry that is
                # missing, malformed or fails its CRC, or a malformed
                # progress record: the checkpoint is damaged.
                pass
        checkpoint.discard()
        if os.path.lexists(checkpoint.path):
            raise ConfigurationError(
                "cannot replace checkpoint manifest {}".format(checkpoint.path))
        checkpoint = cls(directory, identity)
        for name, (dtype, columns) in specs.items():
            checkpoint._track(name, checkpoint._create(name, dtype, columns))
        return checkpoint, dict(checkpoint._stores), None

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
        """Remove the manifest and the tracked stores' files; close them.

        Called when the run completes, and when the checkpoint is damaged
        or superseded.  Views of the stores stay valid: a mapping outlives
        its file handle, and the kernel keeps an unlinked file's inode
        until its last mapping goes.
        """
        for store in self._stores.values():
            store.release()
        paths = [self.path, self.path + ".tmp"]
        paths += [self._store_path(name) for name in self._stores]
        for path in paths:
            try:
                os.remove(path)
            except OSError:
                pass


def _check_progress(progress, states):
    """Raise :class:`ConfigurationError` unless *progress* is well formed.

    A level record counts ``levels >= 0`` completed levels over a state
    table of ``total`` rows -- the *states* the manifest restored -- whose
    next level starts at ``0 <= level_start <= total``, counts the
    ``edges >= 0`` kept so far, and says whether the state budget cut it
    (``truncated``, a bool).
    """
    def whole(name):
        value = progress.get(name)
        return type(value) is int and value >= 0

    if not (whole("levels") and whole("total") and whole("level_start")
            and whole("edges") and progress["total"] == states
            and progress["level_start"] <= states
            and type(progress.get("truncated")) is bool):
        raise ConfigurationError(
            "checkpoint progress record is malformed: {!r}".format(progress))


def _flush_rows(store, start, end):
    """Sync the pages holding rows ``[start, end)`` of *store* to disk.

    The tracked stores are append-only between level boundaries (the full
    prefix CRC is re-verified on resume, so a mutated earlier row would be
    caught), which makes the appended range exactly the dirty range -- a
    whole-mapping ``msync`` would re-walk the entire file's pages every
    level, turning per-level cost into per-graph cost.
    """
    mapping = store._backing._mmap
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
