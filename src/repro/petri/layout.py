"""Row layouts: where each place of a compiled net lives in a state row.

The batch engine stores a state as a row of ``uint64`` words.  The plain
way is one bit per place.  The DFS translations waste most of those bits:
every Boolean variable is a complementary pair (``x_0 + x_1 = 1``), and a
dynamic register also satisfies ``M_0 + Mt_1 + Mf_1 = 1``.  A place
invariant (semiflow) with 0/1 weights and value 1 says that exactly one
place of its support is marked in every reachable marking, so the index of
that place is all a row needs to hold: ``ceil(log2(k))`` bits for a
support of ``k`` places.  This is the invariant-compressed state vector of
K. Schmidt, "Using Petri net invariants in state space construction"
(TACAS 2003), and of E. Pastor and J. Cortadella, "Efficient encoding
schemes for symbolic analysis of Petri nets" (DATE 1998).

:meth:`RowLayout.of` derives the layout from the semiflows of the net:

* *fields* -- disjoint value-1, 0/1-weight semiflows (value 1 at the start
  marking of the run), largest support first, ties broken by the sorted
  support.  A field holds the index of its marked place, and never crosses
  a byte, so the byte tables of enabledness see whole fields.  A semiflow
  some transition touches other than "one support place out, one in" (or
  not at all) does not become a field;
* *derived* places -- a value-1 semiflow whose places are all determined by
  one field except one determines that one too: it is marked exactly when
  the field holds none of the others' values;
* *plain* bits -- every place left keeps one bit, and the overflow check.

Every place ``p`` is then one test on the row: the field (or bit) at
``offset[p]``, ``width[p]`` bits wide, holds a value of ``member[p]``.
The tests are exact on every marking the run can reach, since the
semiflows hold there; a marking that breaks one of them has no row
(:meth:`RowLayout.encode` answers ``None``).  The identity layout -- one
plain bit per place, at the place's index -- is what a net without such
semiflows gets, and what the walk swarm uses.
"""

import numpy as _np

from repro.petri.compiled import iter_bits

_WORD_MASK = (1 << 64) - 1


def int_to_words(value, words):
    """Split an int bitmask into *words* little-endian 64-bit words."""
    return [(value >> (64 * w)) & _WORD_MASK for w in range(words)]


def words_to_int(row):
    """Inverse of :func:`int_to_words` for one row of word values."""
    state = 0
    for w, word in enumerate(row):
        state |= int(word) << (64 * w)
    return state


def mask_matrix(masks, words):
    """Int bitmasks as a ``(len(masks), words)`` uint64 matrix."""
    octets = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return _np.frombuffer(octets, dtype="<u8").reshape(
        len(masks), words).astype(_np.uint64)


def mask_flags(masks, count):
    """Int bitmasks over *count* places as a ``(len(masks), count)`` bool matrix."""
    words = max(1, (count + 63) // 64)
    return _np.unpackbits(mask_matrix(masks, words).view(_np.uint8), axis=1,
                          count=count, bitorder="little").view(bool)


class RowLayout:
    """Where each place of a net lives in a state row (see module docs).

    Per place ``p``: ``offset[p]`` and ``width[p]`` locate its field or
    plain bit, ``member[p, v]`` says whether ``p`` is marked when that
    field holds ``v``, and ``code[p]`` is the value a marked ``p`` writes
    into its field (``-1`` for a derived place, which firing never writes).
    """

    __slots__ = ("place_count", "place_words", "offset", "width", "member",
                 "code", "bits", "words", "identity", "_contribution",
                 "_decode")

    def __init__(self, offset, width, member, code):
        self.place_count = len(offset)
        self.place_words = max(1, (self.place_count + 63) // 64)
        self.offset = _np.asarray(offset, dtype=_np.int64)
        self.width = _np.asarray(width, dtype=_np.int64)
        self.member = member
        self.code = _np.asarray(code, dtype=_np.int64)
        self.bits = int((self.offset + self.width).max(initial=0))
        self.words = max(1, (self.bits + 63) // 64)
        self.identity = bool(
            (self.width == 1).all() and (self.code == 1).all()
            and (self.offset == _np.arange(self.place_count)).all())
        #: Per place, the row bits a marked place sets (0 when derived).
        self._contribution = [
            int(code) << int(offset) if code >= 0 else 0
            for offset, code in zip(self.offset.tolist(), self.code.tolist())]
        self._decode = None

    @classmethod
    def identity_of(cls, place_count):
        """One plain bit per place, at the place's index."""
        member = _np.zeros((place_count, 256), dtype=bool)
        member[:, 1] = True
        return cls(_np.arange(place_count), _np.ones(place_count),
                   member, _np.ones(place_count))

    @classmethod
    def of(cls, compiled, initial_state):
        """The dense layout of *compiled* for runs from *initial_state*.

        Falls back to the identity layout when the semiflow computation
        exceeds its budget or no semiflow qualifies as a field.
        """
        from repro.petri.invariants import (
            InvariantBudgetExceeded,
            compute_semiflows,
        )

        count = len(compiled.place_names)
        try:
            semiflows = compute_semiflows(compiled.net)
        except InvariantBudgetExceeded:
            return cls.identity_of(count)
        index = {name: i for i, name in enumerate(compiled.place_names)}
        # The value-1, 0/1-weight semiflows at this run's start marking.
        units = []
        for semiflow in semiflows:
            if any(weight != 1 for weight in semiflow.weights.values()):
                continue
            support = tuple(sorted(index[place] for place in semiflow.weights))
            if sum((initial_state >> i) & 1 for i in support) == 1:
                units.append(support)
        if not units:
            return cls.identity_of(count)
        # Per (transition, semiflow): support places consumed and produced.
        flat = _np.concatenate(units)
        starts = _np.cumsum([0] + [len(support) for support in units[:-1]])
        taken, given = (
            _np.add.reduceat(mask_flags(masks, count)[:, flat].astype(
                _np.int64), starts, axis=1)
            for masks in (compiled.consume, compiled.produce))
        regular = ((taken == given) & (taken <= 1)).all(axis=0)
        candidates = sorted(
            (support for support, ok in zip(units, regular.tolist())
             if ok and 2 <= len(support) <= 256),
            key=lambda support: (-len(support), support))
        owner = [-1] * count
        member = _np.zeros((count, 256), dtype=bool)
        code = _np.full(count, -1, dtype=_np.int64)
        fields = []
        for support in candidates:
            if any(owner[p] >= 0 for p in support):
                continue
            for p in support:
                owner[p] = len(fields)
            member[list(support), _np.arange(len(support))] = True
            code[list(support)] = _np.arange(len(support))
            fields.append(support)
        if not fields:
            return cls.identity_of(count)
        # Propagate: a semiflow determined by one field except one place
        # determines that place, as the field values none of the others
        # takes.
        changed = True
        while changed:
            changed = False
            for support in units:
                free = [p for p in support if owner[p] < 0]
                owners = {owner[p] for p in support if owner[p] >= 0}
                if len(free) != 1 or len(owners) != 1:
                    continue
                field = owners.pop()
                others = [p for p in support if p != free[0]]
                values = ~member[others].any(axis=0)
                values[len(fields[field]):] = False
                member[free[0]] = values
                owner[free[0]] = field
                changed = True
        owner = _np.array(owner)
        # First fit, widest first, into bytes; plain bits fill the holes.
        width = _np.ones(count, dtype=_np.int64)
        offset = _np.zeros(count, dtype=_np.int64)
        room = []

        def allot(bits):
            for byte, free in enumerate(room):
                if free >= bits:
                    room[byte] -= bits
                    return 8 * byte + 8 - free
            room.append(8 - bits)
            return 8 * (len(room) - 1)

        for field, support in enumerate(fields):
            bits = (len(support) - 1).bit_length()
            start = allot(bits)
            determined = _np.flatnonzero(owner == field)
            width[determined] = bits
            offset[determined] = start
        for place in _np.flatnonzero(owner < 0).tolist():
            offset[place] = allot(1)
            member[place, 1] = True
            code[place] = 1
        return cls(offset, width, member, code)

    # -- tests and tables ------------------------------------------------------

    def marked_at(self):
        """``(places, 256)`` bool: is ``p`` marked when its byte holds ``v``."""
        shift = (self.offset % 8)[:, None]
        mask = ((1 << self.width) - 1)[:, None]
        values = (_np.arange(256)[None, :] >> shift) & mask
        return self.member[_np.arange(self.place_count)[:, None], values]

    def row_test(self, place):
        """Vectorised test "place index *place* is marked" on a row table."""
        word, shift = divmod(int(self.offset[place]), 64)
        width = int(self.width[place])
        lookup = self.member[place, :1 << width]
        values = _np.flatnonzero(lookup)
        field = _np.uint64(((1 << width) - 1) << shift)
        if len(values) == 1:
            target = _np.uint64(int(values[0]) << shift)
            return lambda words: (words[:, word] & field) == target
        return lambda words: lookup[
            ((words[:, word] & field) >> _np.uint64(shift)).astype(_np.intp)]

    def describe(self):
        """A JSON-able description, for checkpoint identities."""
        return {"offset": self.offset.tolist(), "width": self.width.tolist(),
                "code": self.code.tolist(),
                "member": [_np.flatnonzero(row).tolist()
                           for row in self.member]}

    # -- encoding and decoding -------------------------------------------------

    def encode(self, state):
        """The row int of the place-level int *state*, or ``None``.

        ``None`` when *state* breaks a field's invariant (no place or two
        places of a field marked, or a derived place that disagrees with
        its field): such a marking is no reachable state, and its row would
        alias another's.  A row is valid exactly when it decodes back.
        """
        if self.identity:
            return state
        row = 0
        for place in iter_bits(state):
            row |= self._contribution[place]
        return row if self.decode(row) == state else None

    def decode(self, row):
        """The place-level int state of the row int *row*."""
        if self.identity:
            return row
        rows = _np.array([int_to_words(row, self.words)], dtype=_np.uint64)
        return words_to_int(self.decode_rows(rows)[0])

    def decode_rows(self, rows):
        """Place-level ``(n, place_words)`` rows of layout rows *rows*.

        One gather per row byte: each byte's table maps its 256 values to
        the packed set of places marked there.
        """
        if self.identity:
            return rows
        if self._decode is None:
            marked = self.marked_at()
            byte_of = self.offset // 8
            positions = _np.flatnonzero(_np.bincount(byte_of))
            tables = _np.empty((len(positions), 256, self.place_words),
                               dtype=_np.uint64)
            flags = _np.zeros((256, 64 * self.place_words), dtype=bool)
            for k, position in enumerate(positions.tolist()):
                flags[:, :self.place_count] = (
                    marked & (byte_of == position)[:, None]).T
                tables[k] = _np.packbits(flags, axis=1,
                                         bitorder="little").view("<u8")
            self._decode = (positions, tables)
        positions, tables = self._decode
        octets = _np.ascontiguousarray(rows).view(_np.uint8)
        places = _np.zeros((len(rows), self.place_words), dtype=_np.uint64)
        for position, table in zip(positions.tolist(), tables):
            places |= table[octets[:, position]]
        return places
