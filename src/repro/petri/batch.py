"""Array-native exploration core: whole-frontier batch expansion on NumPy.

The tables of :mod:`repro.petri.compiled` reduce firing to integer bit
operations; a loop over them would still fire one transition of one state
per Python bytecode iteration.  This module escapes the interpreter the way
bulk engines do: the *entire BFS frontier* is expanded per step.

* Markings are rows of a ``uint64`` matrix in a **row layout**
  (:class:`~repro.petri.layout.RowLayout`), derived from the net's place
  invariants: each value-1, 0/1-weight semiflow chosen as a field holds
  the index of its one marked place in ``ceil(log2(k))`` bits, places
  the fields determine take no bits, and every other place keeps a plain
  bit.  The paper's OPE nets fit one word where one bit per place takes
  three.  Rows wider than 64 bits span multiple words.
* The compiled net's per-transition bitmasks become ``(transitions,
  words)`` firing arrays in that layout (:class:`WordTables`); sleep sets
  and persistence keep the place-level footprints.
* One level of BFS is: a bulk mask-and-or firing of every enabled pair,
  an open-addressing table for intra-level dedup, a probe of the global
  open-addressing index of known states, and one enabledness pass over the
  admitted rows.  No step loops over transitions in Python.
* Enabledness is a byte-table lookup: no field crosses a byte, so for
  each byte of a row that holds some needed place, a 256-entry table maps
  the byte's value to the packed set of transitions it blocks, and a
  row's enabled set is the full set minus the OR of its byte entries
  (:meth:`WordTables.enabled_bits`).
* The row hash is additive (a sum of per-word products modulo ``2**64``),
  and firing an enabled transition without overflow swaps fixed bits
  without a carry, so a successor's hash is its parent's plus a
  per-transition delta (Zobrist-style incremental hashing) -- no
  successor row is rehashed.  A one-word row is its own hash.
  The hash only pre-filters exact row compares.
* Each state of the level carries a **sleep set** (Godefroid and Wolper),
  and only ``enabled & ~sleep`` is fired.  Two transitions whose
  footprints miss each other (neither consumes or produces a place the
  other needs, consumes or produces) commute on every reachable state,
  overflow included (:attr:`WordTables.indep`).  A state first reached over
  ``(p, u)`` sleeps on ``(sleep[p] & indep[u]) | (enabled[p] &
  lower_indep[u])``: firing a slept ``t`` gives the state that firing
  ``u`` gives from an earlier state of the level (or a state already
  known), so a slept pair is never a minimum provenance and never the
  first overflow.  States, order, parents and overflow errors stay
  exact, and while no level is cut every enabled pair is an edge; a
  level the budget cuts is re-run with no sleep sets, and pruning stops.
* New states are admitted in **provenance order** (``parent << 16 |
  transition``, minimised over all discoverers) up to ``max_states`` --
  exactly the order the sequential BFS first reaches each state, which makes
  the resulting graph **bit-identical** to a one-firing-at-a-time BFS: same
  states in the same discovery order, same parents (hence traces), same
  frontier and truncation, and the same edges when they are regenerated.

A run (:func:`explore_batch`) is a start, a level loop and a finish.  The
start yields the stores and a ``progress`` record, fresh or resumed from a
checkpoint; the level step (:func:`_expand_level`) fires, dedups, probes and
admits one BFS level, appending each admitted state's row and the
transition that first reached it, and the indices of admitted states that
enable nothing; the finish builds the graph once, from the finished arrays.

The result is a :class:`ColumnarReachabilityGraph`: the state table, the
fired-transition column, the deadlock indices and the frontier all stay
NumPy arrays, and with the hash index's slots they are all a graph keeps
(under 20 bytes per state on the paper's 4-stage OPE).  A state's parent
is found again by firing its transition backwards (firing is reversible in
a 1-safe net) and looking the row up in the hash index; its edges are its
enabled transitions, recomputed from its row, fired and looked up the same
way.  The graph's own property scans (Reach ``scan``,
``persistence_scan``, ``deadlocks``) are vectorised passes over blocks of
the state table instead of per-state Python loops; persistence needs only
the enabled sets, since in a 1-safe net whether one transition's firing
disables another does not depend on the state.  Marking-level APIs decode
rows to one bit per place on demand, and a marking that breaks a field's
invariant is no state.

This is the engine ``build_reachability_graph`` runs for every net that
compiles and stays 1-safe.
Its oracle is the pure-int sequential BFS of ``tests/oracles/compiled.py``;
this engine must match it bit for bit (see ``tests/test_petri_batch.py``).
"""

import os
from itertools import islice
from time import perf_counter

import numpy as _np

from repro.exceptions import CompilationError, SafenessOverflowError
from repro.petri.compiled import CompiledNet, iter_bits
from repro.petri.layout import (
    RowLayout,
    int_to_words,
    mask_matrix,
    words_to_int,
)
from repro.petri.reachability import ReachabilityGraph
from repro.petri.storage import (
    Checkpoint,
    HashIndex,
    fibonacci_slots,
    fresh_stores,
    probe_slots,
    rows_equal,
)
from repro.utils import faults as _faults

#: States per block of the graph's scans: a block's enabled flags, one
#: byte per (state, transition), stay small enough to transpose in cache,
#: and no scan builds a temporary the size of the state table.
_SCAN_BLOCK = 1 << 14

#: Odd 64-bit mixing constants of the row hash (splitmix64 / murmur3
#: finalisation family).  The hash only pre-filters the exact row compare,
#: so its quality affects speed, never correctness.
_HASH_MULTIPLIERS = (
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0xD6E8FEB86659FD93,
)


class WordTables:
    """Per-transition tables of a compiled net, in a row layout.

    *layout* is a :class:`~repro.petri.layout.RowLayout`; ``None`` means
    the identity layout (one bit per place).  Two kinds of table:

    * place-level footprints, ``(transitions, place words)``: ``need``,
      ``consume`` and ``produce``.  Sleep sets (:attr:`indep`), the
      persistence table and :meth:`enabled_matrix` read these;
    * row-level firing, ``(transitions, words)``: a transition clears the
      fields and bits of ``~keep``, which hold ``take`` when it is enabled,
      and ORs in ``give``.  Enabledness is :meth:`enabled_bits`, from one
      byte table per row byte that holds a needed place.
    """

    __slots__ = ("compiled", "layout", "words", "need", "consume", "produce",
                 "keep", "give", "take", "fire_tab", "delta_hash",
                 "byte_positions", "byte_tables", "all_enabled", "indep",
                 "lower_indep")

    def __init__(self, compiled, layout=None):
        self.compiled = compiled
        count = len(compiled.place_names)
        self.layout = layout = layout or RowLayout.identity_of(count)
        self.words = layout.words
        self.need = mask_matrix(compiled.need, layout.place_words)
        self.consume = mask_matrix(compiled.consume, layout.place_words)
        self.produce = mask_matrix(compiled.produce, layout.place_words)
        transition_count = len(compiled.need)
        need_flags = _unpack_bits(self.need, count)
        # Firing writes only the fields and bits a place stores; a derived
        # place follows its field.  A transition takes at most one place
        # of a field and gives one back, so the per-place row bits it
        # clears, takes and gives are disjoint and sum to their OR.
        stored = layout.code >= 0
        width = _np.where(stored, layout.width, 0)
        spans = _np.zeros((count, self.words), dtype=_np.uint64)
        values = _np.zeros((count, self.words), dtype=_np.uint64)
        word, shift = _np.divmod(layout.offset, 64)
        spans[_np.arange(count), word] = (
            ((_np.uint64(1) << width.astype(_np.uint64)) - _np.uint64(1))
            << shift.astype(_np.uint64))
        values[_np.arange(count), word] = (
            _np.where(stored, layout.code, 0).astype(_np.uint64)
            << shift.astype(_np.uint64))
        consume_flags = _unpack_bits(self.consume, count).astype(_np.uint64)
        produce_flags = _unpack_bits(self.produce, count).astype(_np.uint64)
        self.keep = ~(consume_flags @ spans)
        self.take = consume_flags @ values
        self.give = produce_flags @ values
        # keep and give side by side, so the firing loop pays one fancy
        # gather per edge batch instead of two.
        self.fire_tab = _np.concatenate([self.keep, self.give], axis=1)
        # Firing an enabled transition without overflow swaps the row bits
        # take for give, and no word carries, so the additive row hash
        # moves by a fixed delta.
        self.delta_hash = self.hash_rows(self.give) - self.hash_rows(self.take)
        # One byte table per row byte that holds some needed place: entry
        # ``v`` is the packed set of transitions that a row byte of value
        # ``v`` blocks (it fails the test of a place they need).  Built
        # from the (transition, needed place) pairs, grouped by byte.
        needing, needed = _np.nonzero(need_flags)
        byte_of = layout.offset[needed] // 8
        present = _np.bincount(byte_of, minlength=1) > 0
        self.byte_positions = _np.flatnonzero(present)
        slot = (_np.cumsum(present) - 1)[byte_of]
        key = slot * transition_count + needing
        order = _np.argsort(key, kind="stable")
        key = key[order]
        starts = _np.flatnonzero(_np.diff(key, prepend=-1))
        blocked = _np.zeros(
            (len(self.byte_positions), transition_count, 256), dtype=bool)
        if len(key):
            blocked.reshape(-1, 256)[key[starts]] = _np.logical_or.reduceat(
                ~layout.marked_at()[needed[order]], starts, axis=0)
        self.all_enabled = _pack_bits(
            _np.ones((1, transition_count), dtype=bool))[0]
        self.byte_tables = _np.ascontiguousarray(_pack_bits(
            blocked.transpose(0, 2, 1).reshape(-1, transition_count))
            .reshape(len(blocked), 256, len(self.all_enabled))
            .transpose(0, 2, 1))
        # Row u of indep: the transitions t != u whose place footprint
        # misses u's (neither touches a place the other needs or touches),
        # so t and u commute on every reachable state; lower_indep keeps
        # the members t < u.
        touch = self.consume | self.produce
        reach = self.need | touch
        clash = _np.eye(transition_count, dtype=bool)
        for w in range(layout.place_words):
            clash |= (touch[:, w, None] & reach[None, :, w]) != 0
        independent = ~(clash | clash.T)
        self.indep = _pack_bits(independent)
        self.lower_indep = _pack_bits(
            independent & _np.tri(transition_count, k=-1, dtype=bool))

    def encode_rows(self, states):
        """Pack an iterable of place-level int states into ``(n, words)`` rows.

        Each state must have a row in the layout (:meth:`RowLayout.encode`).
        """
        rows = _np.empty((len(states), self.words), dtype=_np.uint64)
        for position, state in enumerate(states):
            row = self.layout.encode(state)
            if row is None:
                raise CompilationError(
                    "state {:#x} breaks a place invariant of the row "
                    "layout".format(state))
            rows[position] = int_to_words(row, self.words)
        return rows

    def hash_rows(self, rows):
        """A 64-bit hash of every state row; a pre-filter, not an identity.

        Single-word states are their own (collision-free) key.  Wider rows
        sum per-word products by distinct odd constants, modulo ``2**64``:
        the hash is additive, so a successor's hash is its parent's plus
        the fired transition's ``delta_hash``.  Collisions are handled
        exactly by the callers (probes and dedup compare rows), so hash
        quality only affects speed.
        """
        if self.words == 1:
            return rows[:, 0]
        mixed = rows[:, 0] * _np.uint64(_HASH_MULTIPLIERS[0])
        for w in range(1, self.words):
            multiplier = _HASH_MULTIPLIERS[w % len(_HASH_MULTIPLIERS)]
            mixed = mixed + rows[:, w] * _np.uint64(multiplier)
        return mixed

    def enabled_matrix(self, rows):
        """Full-scan enabledness of *rows*: a ``(n, transitions)`` matrix.

        The rows decode to places, and each transition's need is one mask
        compare: the fast form for a few rows (the walk swarm's batches),
        and the reference for :meth:`enabled_bits`.
        """
        places = self.layout.decode_rows(rows)
        enabled = _np.ones((len(rows), len(self.need)), dtype=bool)
        for w in range(self.layout.place_words):
            need_w = self.need[:, w]
            enabled &= (places[:, w:w + 1] & need_w) == need_w
        return enabled

    def enabled_bits(self, rows):
        """Enabledness of *rows*, packed: ``(n, ceil(T/64))`` uint64 bitsets.

        Bit-for-bit ``_pack_bits(enabled_matrix(rows))``, from one 1-D
        gather per (byte position, enabled word): a transition is enabled
        unless some byte of the row blocks it (:attr:`byte_tables`).
        """
        octets = _np.ascontiguousarray(rows).view(_np.uint8)
        # Index columns as intp once, not once per enabled word.
        columns = octets.T[self.byte_positions].astype(_np.intp)
        blocked = _np.zeros((len(self.all_enabled), len(rows)),
                            dtype=_np.uint64)
        for tables, column in zip(self.byte_tables, columns):
            for table, word in zip(tables, blocked):
                word |= table[column]
        return _np.ascontiguousarray((self.all_enabled[:, None] & ~blocked).T)

    def unfire(self, rows, transitions):
        """The rows from which firing *transitions* leads to *rows*.

        Firing is reversible in a 1-safe net: the only row from which an
        enabled ``t`` leads to ``row`` is ``(row & keep[t] & ~give[t]) |
        take[t]``.  Whether that row enables ``t`` and is a state is the
        caller's question.
        """
        return ((rows & self.keep[transitions] & ~self.give[transitions])
                | self.take[transitions])

    def row_test(self, place):
        """The layout's vectorised "*place* is marked" test, or ``None``."""
        mask = self.compiled.mask_of(place)
        return self.layout.row_test(mask.bit_length() - 1) if mask else None


def _pack_bits(flags):
    """Pack a ``(n, T)`` bool matrix into ``(n, ceil(T/64))`` uint64 bitsets.

    Column ``t`` becomes bit ``t % 64`` of word ``t // 64``.
    """
    rows, width = flags.shape
    padded = _np.zeros((rows, max(1, (width + 63) // 64) * 64), dtype=bool)
    padded[:, :width] = flags
    return _np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _unpack_bits(bits, width):
    """Inverse of :func:`_pack_bits`: the ``(n, width)`` bool matrix."""
    return _np.unpackbits(_np.ascontiguousarray(bits).view(_np.uint8), axis=1,
                          count=width, bitorder="little").view(bool)


def fire_enabled_flags(tables, rows, flat):
    """Fire every enabled (state, transition) pair of *rows*; flag overflows.

    *flat* is the flat index vector of the rows' enabled matrix (as from
    ``np.flatnonzero``).  Returns ``(source_local, transition, successor,
    overflowed)`` where *overflowed* is a bool vector marking the pairs
    whose firing would put a second token into a place (their *successor*
    rows hold the over-merged words and must not be used as states).
    Exploration raises on the first flagged pair in expansion order; the
    walk swarm consumes the flags directly -- an overflow retires one walk,
    or answers the safeness query, instead of aborting the whole batch.
    """
    word_count = tables.words
    transition_count = len(tables.need)
    source_local = flat // transition_count
    transition = flat - source_local * transition_count
    gathered = tables.fire_tab[transition]
    remainder = rows[source_local] & gathered[:, :word_count]
    produced = gathered[:, word_count:]
    overflowed = remainder[:, 0] & produced[:, 0]
    for w in range(1, word_count):
        overflowed = overflowed | (remainder[:, w] & produced[:, w])
    return source_local, transition, remainder | produced, overflowed != 0


def overflow_place(tables, rows, source_local, transition, position):
    """The place index spilled by overflowing pair *position* (re-derived).

    Only plain bits overflow (a field is cleared before it is written),
    and each holds one place.
    """
    gathered = tables.fire_tab[int(transition[position])]
    remainder = rows[int(source_local[position])] & gathered[:tables.words]
    produced = gathered[tables.words:]
    offset = tables.layout.offset
    return min(int(_np.flatnonzero(offset == bit)[0])
               for bit in iter_bits(words_to_int(remainder & produced)))


def distinct_sorted(values):
    """The distinct values of the non-decreasing array *values*, in order.

    Keeps the first of each run of equal values; unlike ``np.unique``,
    whose first call imports ``numpy.ma``, it needs no sort either.
    """
    first = _np.ones(len(values), dtype=bool)
    _np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def dedup_first(successor, hashes):
    """Group equal successor rows by their first occurrence.

    Returns ``(firsts, group_of)``: *firsts* holds the position of each
    distinct row's first occurrence, ascending, and ``group_of[i]`` is the
    group (an index into *firsts*) of row ``i``.  Successor positions rise
    with provenance, so the groups come out in the order the sequential
    BFS first discovers them.

    The rows go into a per-call open-addressing table of positions.  Each
    round, the rows still pending claim their free slot with
    ``np.minimum.at``; equal rows share one probe sequence, so a group
    moves together and its first occurrence wins the slot.  A row whose
    slot holds a different row (compared exactly) probes on.
    """
    count = len(successor)
    # Load at most one half, and at least 4096 slots: a small level then
    # resolves in one or two rounds.
    bits = max(12, (2 * count - 1).bit_length())
    mask = (1 << bits) - 1
    table = _np.full(1 << bits, count, dtype=_np.int32)
    slot = fibonacci_slots(hashes, bits)
    owner_of = _np.empty(count, dtype=_np.int32)
    pending = _np.arange(count, dtype=_np.int32)
    while len(pending):
        free = table[slot] == count
        _np.minimum.at(table, slot[free], pending[free])
        owner = table[slot]
        match = rows_equal(successor, owner, successor, pending)
        owner_of[pending[match]] = owner[match]
        miss = ~match
        pending = pending[miss]
        slot = (slot[miss] + 1) & mask
    firsts = _np.flatnonzero(owner_of == _np.arange(count))
    group = _np.empty(count, dtype=_np.int64)
    group[firsts] = _np.arange(len(firsts))
    return firsts, group[owner_of]


class ColumnarReachabilityGraph(ReachabilityGraph):
    """Reachability graph stored columnar: NumPy arrays, not Python lists.

    * ``_words`` -- the ``(states, words)`` uint64 state table, in the row
      layout of ``tables.layout``;
    * ``_fired_arr`` -- the transition over which the BFS first reached
      each state (uint8 up to 256 transitions, else uint16; ``0`` for the
      initial state, which has no parent);
    * ``_dead_arr`` -- ascending indices of the states that enable no
      transition;
    * ``_frontier_arr`` -- sorted indices of partially-expanded states;
    * ``_slots`` -- the open-addressing table of state indices
      (:class:`~repro.petri.storage.HashIndex`) used for O(1) marking
      lookup without materialising Python ints.

    The graph keeps no edges, only their count, and no parents or enabled
    sets: a state's BFS parent is the reverse firing of its fired
    transition (:meth:`WordTables.unfire`), looked up in the hash index,
    and its edges are its enabled transitions, recomputed from its row
    (:meth:`WordTables.enabled_bits`), fired and looked up the same way
    (:meth:`_out_edges`).  The full marking-level
    :class:`~repro.petri.reachability.ReachabilityGraph` API is answered
    from these arrays -- markings decode on demand, successors are
    regenerated and predecessors and traces found by reverse firing -- so
    the base class's dict-based structures stay empty.  The property scans
    (:meth:`scan`, :meth:`persistence_scan`, :meth:`deadlocks`) override
    the base class's marking loops with vector operations over blocks of
    the state table.
    """

    #: Columnar graphs exist only while every marking stayed 1-safe.
    one_safe = True

    def __init__(self, compiled, tables, initial_state, words, fired, dead,
                 frontier, slots, edges):
        ReachabilityGraph.__init__(self, compiled.net,
                                   compiled.decode(initial_state))
        self.compiled = compiled
        self.tables = tables
        self._decoded = {}
        self._all_decoded = None
        self._words = words
        self._fired_arr = fired
        self._dead_arr = dead
        self._frontier_arr = frontier
        self._slots = slots         # hash index slots: state index or -1
        self._edges = edges         # edges exploration kept
        # Only a cut admission leaves partially-expanded states behind.
        self.truncated = len(frontier) > 0

    # -- decoding -------------------------------------------------------------

    def _state_int(self, index):
        """The place-level int state of state *index*."""
        return self.tables.layout.decode(words_to_int(self._words[index]))

    def _marking_at(self, index):
        marking = self._decoded.get(index)
        if marking is None:
            marking = self.compiled.decode(self._state_int(index))
            self._decoded[index] = marking
        return marking

    def _lookup(self, rows):
        """Indices of the state *rows* in this graph (``-1`` if absent)."""
        return probe_slots(self._slots, self._words, rows,
                           self.tables.hash_rows(rows))

    def _index_of(self, marking):
        try:
            state = self.compiled.encode(marking)
        except CompilationError:
            return None
        row = self.tables.layout.encode(state)
        if row is None:
            return None
        index = int(self._lookup(_np.array(
            [int_to_words(row, self.tables.words)], dtype=_np.uint64))[0])
        return index if index >= 0 else None

    def _out_edges(self, states):
        """The edges of *states*: ``(sources, transitions, targets)`` arrays.

        Each transition a state's row enables is fired and its successor
        looked up in the hash index.  A successor the state budget turned
        away is not a state, so a frontier state keeps only the edges
        exploration kept.
        Sources follow *states*; transitions ascend within each source.
        """
        states = _np.asarray(states, dtype=_np.int64)
        rows = self._words[states]
        enabled = _unpack_bits(self.tables.enabled_bits(rows),
                               len(self.tables.need))
        local, transitions, successors, _ = fire_enabled_flags(
            self.tables, rows, _np.flatnonzero(enabled))
        targets = self._lookup(successors)
        kept = targets >= 0
        return states[local[kept]], transitions[kept], targets[kept]

    # -- ReachabilityGraph API ------------------------------------------------

    def __len__(self):
        return int(self._words.shape[0])

    def __contains__(self, marking):
        return self._index_of(marking) is not None

    def _known_index(self, marking):
        index = self._index_of(marking)
        if index is None:
            raise KeyError(marking)
        return index

    def _labelled(self, transitions, states):
        names = self.compiled.transition_names
        return [(names[t], self._marking_at(i))
                for t, i in zip(transitions.tolist(), states.tolist())]

    def successors(self, marking):
        _, transitions, targets = self._out_edges([self._known_index(marking)])
        return self._labelled(transitions, targets)

    def predecessors(self, marking):
        """Incoming edges, sources in discovery order then edge order.

        The only row from which ``t`` can lead to *marking*'s is its
        reverse firing (:meth:`WordTables.unfire`).  It is a predecessor
        when it is a known state, enables ``t`` and fires back to
        *marking*.
        """
        tables = self.tables
        row = self._words[self._known_index(marking)]
        sources = tables.unfire(row, slice(None))
        fired = (sources & tables.keep) | tables.give
        enables = _unpack_bits(tables.enabled_bits(sources),
                               len(tables.need)).diagonal()
        transitions = _np.flatnonzero(enables & (fired == row).all(axis=1))
        sources = self._lookup(sources[transitions])
        known = sources >= 0
        transitions, sources = transitions[known], sources[known]
        order = _np.lexsort((transitions, sources))
        return self._labelled(transitions[order], sources[order])

    @property
    def states(self):
        if self._all_decoded is None:
            decode = self.compiled.decode
            self._all_decoded = [
                decode(words_to_int(row))
                for row in self.tables.layout.decode_rows(self._words)]
        return list(self._all_decoded)

    @property
    def frontier(self):
        return {self._marking_at(int(i)) for i in self._frontier_arr}

    def is_expanded(self, marking):
        index = self._index_of(marking)
        if index is None:
            return False
        position = int(_np.searchsorted(self._frontier_arr, index))
        return not (position < len(self._frontier_arr)
                    and int(self._frontier_arr[position]) == index)

    def deadlocks(self):
        # Exploration noted every admitted state that enables nothing; a
        # frontier state enables the transition whose edge was dropped.
        return [self._marking_at(index) for index in self._dead_arr.tolist()]

    def edge_count(self):
        return self._edges

    def trace_to(self, target):
        from repro.exceptions import VerificationError

        index = self._index_of(target)
        if index is None:
            raise VerificationError(
                "marking is not reachable: {!r}".format(target))
        # Walk the BFS tree back to the initial state, index 0: a state's
        # parent is the reverse firing of the transition that reached it.
        trace = []
        names = self.compiled.transition_names
        row = self._words[index:index + 1]
        while index:
            fired = int(self._fired_arr[index])
            trace.append(names[fired])
            row = self.tables.unfire(row, fired)
            index = int(self._lookup(row)[0])
            if index < 0:
                raise VerificationError(
                    "BUG: the parent of a state is not a state")
        trace.reverse()
        return trace

    # -- vectorised scans -----------------------------------------------------

    def scan(self, expression, limit=None):
        """Yield matching markings, discovery order, one block at a time.

        The expression compiles once to a vectorised predicate over
        ``(states, words)`` row tables (:func:`compile_row_predicate`),
        applied to one ``_SCAN_BLOCK`` of the state table at a time; only
        the first *limit* matches are decoded, and no block past the
        *limit*-th match is read.
        """
        predicate = compile_row_predicate(expression, self.tables.row_test)
        matches = (index for low in range(0, len(self), _SCAN_BLOCK)
                   for index in (_np.flatnonzero(predicate(
                       self._words[low:low + _SCAN_BLOCK])) + low).tolist())
        for index in islice(matches, limit):
            yield self._marking_at(index)

    def persistence_scan(self, allow_conflicts=True, max_witnesses=5):
        """The persistence scan, in one pass over the state table.

        The contract and witness order of the exact pair loop (kept as the
        ``persistence_scan`` of the test oracle, ``tests/oracles/compiled.py``):
        states in discovery order, the fired/disabled pair loops in edge
        order, frontier states skipped.
        In a 1-safe net, whether firing ``t1`` disables a co-enabled ``t2``
        does not depend on the state (:meth:`_disabling`), so the count is,
        over every pair ``(t1, t2)`` of that table, the number of states
        enabling both.  The enabled sets of each block of the state table
        are recomputed (:meth:`WordTables.enabled_bits`) and transposed
        into one packed bitset over states per transition, so a pair costs
        one AND and a popcount.  Only the first hit states re-run the exact
        pair loop for witnesses.
        """
        disabling = self._disabling(allow_conflicts)
        firing = _np.flatnonzero(disabling.any(axis=1)).tolist()
        skipped = _np.zeros(len(self), dtype=bool)
        skipped[self._frontier_arr] = True
        violations = 0
        hit_states = []
        for low in range(0, len(self), _SCAN_BLOCK):
            flags = _unpack_bits(
                self.tables.enabled_bits(self._words[low:low + _SCAN_BLOCK]),
                len(disabling))
            flags[skipped[low:low + _SCAN_BLOCK]] = False
            # Row t: bit i set when state low + i enables t.  Packing a
            # contiguous copy is several times faster than a strided view.
            enabling = _np.packbits(_np.ascontiguousarray(flags.T), axis=1,
                                    bitorder="little")
            hits = _np.zeros(enabling.shape[1], dtype=_np.uint8)
            for t1 in firing:
                both = enabling[disabling[t1]] & enabling[t1]
                violations += int(_np.bitwise_count(both).sum())
                hits |= _np.bitwise_or.reduce(both, axis=0)
            if len(hit_states) < max_witnesses:
                found = _np.flatnonzero(_np.unpackbits(hits, bitorder="little"))
                hit_states.extend(
                    (found[:max_witnesses - len(hit_states)] + low).tolist())
        witnesses = []
        for index in hit_states:
            self._state_witnesses(index, allow_conflicts, witnesses,
                                  max_witnesses)
        return violations, witnesses

    def _disabling(self, allow_conflicts):
        """The ``(T, T)`` bool table of the pairs persistence counts.

        ``[t1, t2]`` is set when firing ``t1`` takes a token ``t2`` needs
        and does not put it back: ``need(t2) & consume(t1) & ~produce(t1)``
        is not empty.  Left out are ``t1`` itself and, with
        *allow_conflicts*, every ``t2`` sharing a consumed place with it
        (an intended choice).
        """
        tables = self.tables
        taken = tables.consume & ~tables.produce
        disabling = _np.zeros((len(taken), len(taken)), dtype=bool)
        conflicts = _np.eye(len(taken), dtype=bool)
        for w in range(tables.layout.place_words):
            disabling |= (taken[:, w, None] & tables.need[None, :, w]) != 0
            if allow_conflicts:
                column = tables.consume[:, w]
                conflicts |= (column[:, None] & column[None, :]) != 0
        return disabling & ~conflicts

    def _state_witnesses(self, index, allow_conflicts, witnesses, limit):
        """The exact pair loop of one state, appending up to *limit* hits."""
        compiled = self.compiled
        consume = compiled.consume
        need = compiled.need
        names = compiled.transition_names
        state = self._state_int(index)
        enabled = _np.flatnonzero(_unpack_bits(self.tables.enabled_bits(
            self._words[index:index + 1]), len(need))).tolist()
        for t1 in enabled:
            after = compiled.fire(t1, state)
            for t2 in enabled:
                if t1 == t2 or (allow_conflicts and consume[t1] & consume[t2]):
                    continue
                if (after & need[t2]) != need[t2]:
                    if len(witnesses) >= limit:
                        return
                    witnesses.append({
                        "marking": self._marking_at(index),
                        "fired": names[t1],
                        "disabled": names[t2],
                    })


def compile_row_predicate(expression, row_test):
    """Compile a Reach AST into a vectorised predicate over state tables.

    The columnar counterpart of ``ReachExpression.evaluate``: the returned
    callable receives the whole ``(states, words)`` uint64 table and
    returns a boolean vector.  *row_test* maps a place name to its
    vectorised "is marked" test on such a table
    (:meth:`WordTables.row_test`), or to ``None`` for unknown places (which
    hold zero tokens, matching marking semantics on 1-safe states).  Every
    node kind of :mod:`repro.reach.ast` compiles; an unknown one raises
    :class:`TypeError`.
    """
    from repro.reach import ast as _ast

    if isinstance(expression, _ast.Constant):
        value = bool(expression.value)
        return lambda words: _np.full(len(words), value, dtype=bool)
    if isinstance(expression, _ast.Marked):
        marked = row_test(expression.place)
        if marked is None:
            return lambda words: _np.zeros(len(words), dtype=bool)
        return marked
    if isinstance(expression, _ast.Compare):
        marked = row_test(expression.place)
        operator = _ast.Compare._OPERATORS[expression.operator]
        value = expression.value
        if marked is None:
            outcome = bool(operator(0, value))
            return lambda words: _np.full(len(words), outcome, dtype=bool)
        return lambda words: operator(marked(words).astype(_np.int64), value)
    if isinstance(expression, _ast.Not):
        operand = compile_row_predicate(expression.operand, row_test)
        return lambda words: ~operand(words)
    if isinstance(expression, (_ast.And, _ast.Or, _ast.Implies)):
        left = compile_row_predicate(expression.left, row_test)
        right = compile_row_predicate(expression.right, row_test)
        if isinstance(expression, _ast.And):
            return lambda words: left(words) & right(words)
        if isinstance(expression, _ast.Or):
            return lambda words: left(words) | right(words)
        return lambda words: ~left(words) | right(words)
    raise TypeError("no row predicate for Reach node {!r}".format(
        type(expression).__name__))


def checkpoint_identity(compiled, initial_state, max_states, layout):
    """The identity digest a checkpoint must match to be resumable."""
    from repro.utils.diskcache import digest

    return digest({
        "places": list(compiled.place_names),
        "transitions": list(compiled.transition_names),
        "initial": str(initial_state),
        "max_states": int(max_states),
        "layout": layout.describe(),
    })


#: ``(dtype string, columns)`` of every checkpointed store; the manifest
#: and :meth:`Checkpoint.open` agree on this layout.  ``words`` is the
#: state table, which the manifest's ``progress["total"]`` counts;
#: ``parents`` holds each state's fired transition, ``dead`` the indices
#: of states that enable nothing.
def _checkpoint_specs(tables):
    return {
        "words": ("<u8", tables.words),
        "parents": ("<u1" if len(tables.need) <= 256 else "<u2", 0),
        "dead": ("<i8", 0),
        "frontier": ("<i8", 0),
    }


def explore_batch(compiled, marking=None, max_states=200000,
                  checkpoint=None):
    """Whole-frontier breadth-first exploration on NumPy arrays.

    Returns a :class:`ColumnarReachabilityGraph` bit-identical to the
    one-firing-at-a-time BFS of the same net, marking and bound -- same
    discovery order, parents, frontier, truncation and (regenerated)
    edges -- built one BFS level per step instead of one transition per
    step.  Its rows use the layout :meth:`RowLayout.of` derives for the
    start marking.

    A run has three parts.  :func:`_start` yields the stores and the
    ``progress`` record to start from: the initial row at level 0, or the
    last complete level of a resumed checkpoint.  The level loop calls
    :func:`_expand_level` once per BFS level and, between levels, only
    passes the ``kill_worker@level`` fault point and records the
    checkpoint manifest.  :func:`_finish` builds the graph from the
    finished arrays.

    The arrays live in :class:`~repro.petri.storage.ArrayStore` objects
    in RAM.  With *checkpoint* set to a directory, the checkpointed ones
    live instead in ``np.memmap`` files at ``<checkpoint>/<store>.bin``,
    and a :class:`~repro.petri.storage.Checkpoint` manifest is replaced
    after every level: a later call resumes from the last complete level
    to the same graph, and a run that finishes removes the files.  The
    hash index always stays in RAM; a resumed run rebuilds it from the
    state rows.
    """
    if not isinstance(compiled, CompiledNet):
        compiled = CompiledNet.compile(compiled)
    initial = marking if marking is not None else compiled.net.initial_marking()
    initial_state = compiled.encode(initial)
    tables = WordTables(compiled, RowLayout.of(compiled, initial_state))
    # Seconds per phase of _expand_level, reported as
    # ``exploration_stats["phases"]``.
    timing = dict.fromkeys(("fire", "dedup", "probe", "admit", "edges"), 0.0)
    stores, progress, checkpointer = _start(tables, initial_state, max_states,
                                            checkpoint)
    words = stores["words"]
    index = HashIndex(words, tables.hash_rows, wide=max_states >= 2 ** 31)
    hashes = tables.hash_rows(words.data)
    index.extend(hashes)
    level = _first_level(tables, stores, progress, hashes)
    levels, edges, fired = progress["levels"], progress["edges"], 0
    while len(level[0]):
        levels += 1
        step = _expand_level(tables, stores, index, level, max_states, timing)
        if step is None:
            break
        level, kept, count = step
        edges += kept
        fired += count
        # Fault point of the crash-recovery tier: firing here leaves the
        # level's rows appended but unmanifested, exactly the torn state
        # a mid-level SIGKILL produces.
        if _faults.trigger("kill_worker", "level"):
            import signal
            os.kill(os.getpid(), signal.SIGKILL)
        if checkpointer is not None:
            checkpointer.record_level({
                "levels": levels,
                "total": len(words),
                "truncated": len(stores["frontier"]) > 0,
                "level_start": len(words) - len(level[0]),
                "edges": edges,
            })
    graph = _finish(compiled, tables, initial_state, stores, index.slots,
                    edges, checkpointer)
    graph.exploration_stats = {
        "engine": "batch",
        "levels": levels,
        "states": len(graph),
        "edges": graph.edge_count(),
        "fired": fired,
        "phases": timing,
        # A manifest is written only after a level, so a fresh run's
        # level 0 never reads as a resume.
        "checkpoint": {"directory": str(checkpoint) if checkpoint else None,
                       "resumed_from_level": progress["levels"] or None},
    }
    return graph


def _start(tables, initial_state, max_states, checkpoint):
    """The ``(stores, progress, checkpointer)`` a run starts from.

    With *checkpoint* set, :meth:`~repro.petri.storage.Checkpoint.open`
    resumes a valid manifest there at its last complete level.  Any other
    run starts fresh from the initial row, at the progress record
    ``{levels 0, total 1, not truncated, level_start 0, edges 0}``.  Either
    way the next level to expand is ``words[level_start:total]``, and
    ``edges`` counts the edges kept so far.
    """
    specs = _checkpoint_specs(tables)
    checkpointer, progress = None, None
    if checkpoint:
        checkpointer, stores, progress = Checkpoint.open(
            checkpoint, specs,
            checkpoint_identity(tables.compiled, initial_state, max_states,
                                tables.layout))
    else:
        stores = fresh_stores(specs)
    if progress is None:
        row = tables.encode_rows([initial_state])
        stores["words"].append(row)
        # The initial state has no parent; its fired transition is unread.
        stores["parents"].append(_np.zeros(1, dtype=_np.int64))
        stores["dead"].append(_dead_rows(tables.enabled_bits(row), 0))
        progress = {"levels": 0, "total": 1, "truncated": False,
                    "level_start": 0, "edges": 0}
    return stores, progress, checkpointer


def _first_level(tables, stores, progress, hashes):
    """The level a run expands first: ``(rows, enabled, hashes, sleep)``.

    It is the tail of the state table and of the row *hashes* from
    ``progress["level_start"]`` on, with its enabled sets recomputed.  Its
    sleep sets start empty, which is always valid, or are ``None`` once a
    level was cut.
    """
    tail = slice(progress["level_start"], progress["total"])
    rows = _np.ascontiguousarray(stores["words"].data[tail])
    enabled = tables.enabled_bits(rows)
    sleep = (None if progress["truncated"]
             else _np.zeros(enabled.shape, dtype=_np.uint64))
    return rows, enabled, hashes[tail], sleep


def _dead_rows(enabled, start):
    """Indices, counted from *start*, of the all-zero *enabled* rows."""
    return start + _np.flatnonzero(~enabled.any(axis=1))


def _lap(timing, phase, started):
    """Add the seconds since *started* to *phase*; return the time now."""
    now = perf_counter()
    timing[phase] += now - started
    return now


def _expand_level(tables, stores, index, level, max_states, timing):
    """Expand one BFS level: fire, dedup, probe, admit, edges.

    *level* is ``(rows, enabled, hashes, sleep)``: the last ``len(rows)``
    rows of the state table, their packed enabled sets, their row hashes
    and their packed sleep sets (``None`` once pruning is off).  Only the
    pairs ``enabled & ~sleep`` are fired; the level is re-run without
    sleep sets when its fresh successors overflow the state budget.
    Successor hashes are the parent's plus the fired transition's
    ``delta_hash``.  Appends the admitted rows to ``words``, the
    transitions that first reached them to ``parents``, those that enable
    nothing to ``dead`` and the sources whose edges the state budget cut
    to ``frontier``, and indexes the admitted rows from the free slots
    their probes ended at; adds each phase's seconds to *timing*.  Returns
    the next level (its enabled sets from one :meth:`WordTables.enabled_bits`
    pass), the number of edges the level kept and the number of pairs it
    fired, or ``None`` when no transition of the level is enabled.
    """
    rows, enabled, hashes, sleep = level
    words = stores["words"]
    level_start = len(words) - len(rows)
    started = perf_counter()
    edges = int(_np.bitwise_count(enabled).sum())
    if not edges:
        return None
    firing = enabled if sleep is None else enabled & ~sleep
    flat = _np.flatnonzero(_unpack_bits(firing, len(tables.need)))
    source_local, transition, successor, overflowed = fire_enabled_flags(
        tables, rows, flat)
    if overflowed.any():
        # The first offender in expansion order, named exactly as the
        # sequential engine reports it: a slept pair never overflows.
        position = int(_np.argmax(overflowed))
        raise SafenessOverflowError(
            tables.compiled.transition_names[int(transition[position])],
            tables.compiled.place_names[overflow_place(
                tables, rows, source_local, transition, position)])
    # Only now, with no overflow, is every firing carry-free.
    hashes = hashes[source_local] + tables.delta_hash[transition]
    started = _lap(timing, "fire", started)

    # Intra-level dedup of *all* successors first, so the (more expensive)
    # probe against the global index only runs once per distinct
    # successor.  A group's first occurrence carries its minimum
    # provenance, ``source << 16 | transition`` -- the edge over which the
    # sequential BFS first discovers that state -- and the groups come out
    # in provenance order.
    firsts, group_of = dedup_first(successor, hashes)
    group_rows = successor[firsts]
    group_hashes = hashes[firsts]
    started = _lap(timing, "dedup", started)

    # Resolve the distinct successors against the globally known states
    # (exact, hash-accelerated), then admit the unknown ones in provenance
    # order up to the state budget.
    group_target, ends = index.probe(group_rows, group_hashes)
    fresh = _np.flatnonzero(group_target < 0)
    started = _lap(timing, "probe", started)
    total = len(words)
    if len(fresh) > max_states - total:
        if len(flat) < edges:
            # A cut level must see every edge to tell which sources lose
            # one: re-run it unpruned.
            step = _expand_level(tables, stores, index, level[:3] + (None,),
                                 max_states, timing)
            return step[0], step[1], step[2] + len(flat)
        sleep = None
    admitted = fresh[:max(0, max_states - total)]
    group_target[admitted] = total + _np.arange(len(admitted))
    admitted_first = firsts[admitted]
    stores["parents"].append(transition[admitted_first])
    next_rows = group_rows[admitted]
    words.append(next_rows)
    next_enabled = tables.enabled_bits(next_rows)
    stores["dead"].append(_dead_rows(next_enabled, total))
    next_hashes = group_hashes[admitted]
    index.extend(next_hashes, ends[admitted])
    next_sleep = None
    if sleep is not None:
        # The sleep set of a state first reached over (p, u): what p slept
        # and u commutes with, plus p's enabled t < u that commute with u.
        parent = source_local[admitted_first]
        fired_last = transition[admitted_first]
        next_sleep = ((sleep[parent] & tables.indep[fired_last])
                      | (enabled[parent] & tables.lower_indep[fired_last]))
    started = _lap(timing, "admit", started)

    # Resolve every edge through its dedup group; an edge to a state the
    # budget turned away is dropped, and its source stays partially
    # expanded.  Until a level is cut no edge is dropped, and every
    # enabled pair, slept or fired, is an edge.
    if sleep is None:
        dropped = group_target[group_of] < 0
        # Sources follow flatnonzero order: non-decreasing.
        stores["frontier"].append(
            distinct_sorted(source_local[dropped] + level_start))
        edges = int(_np.count_nonzero(~dropped))
    _lap(timing, "edges", started)
    return (next_rows, next_enabled, next_hashes, next_sleep), edges, len(flat)


def _finish(compiled, tables, initial_state, stores, slots, edges,
            checkpointer):
    """The graph of the finished stores.

    A checkpointed run that completes has nothing left to resume from, so
    its manifest and store files go.  The graph's memmap views survive the
    unlink (the kernel keeps the inodes until the mappings go), so it
    stays fully usable.
    """
    graph = ColumnarReachabilityGraph(
        compiled, tables, initial_state,
        words=stores["words"].trim(), fired=stores["parents"].trim(),
        dead=stores["dead"].trim(), frontier=stores["frontier"].trim(),
        slots=slots, edges=edges)
    if checkpointer is not None:
        checkpointer.discard()
    return graph
