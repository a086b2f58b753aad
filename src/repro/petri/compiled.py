"""Compiled bitmask reachability engine for 1-safe Petri nets.

The DFS translations of :mod:`repro.dfs.translation` are 1-safe by
construction (every state variable is a complementary place pair), so an
entire marking fits into a single Python ``int`` with one bit per place.
This module compiles a :class:`~repro.petri.net.PetriNet` into
integer-indexed tables:

* per-transition **consume**, **produce** and **need** (consume | read)
  bitmasks -- enabledness is one mask compare, firing is two bit operations;
* per-transition **affected** masks derived from place->transition watch
  lists -- after firing ``t`` only the transitions whose preset intersects
  the places ``t`` touches need re-checking, so the enabled set is
  maintained incrementally along the BFS instead of being recomputed per
  state.

The tables feed :mod:`repro.petri.batch`, the engine
``build_reachability_graph`` runs.  :func:`explore_compiled` stays as its
reference implementation: a pure-int BFS returning an
:class:`ExplorationRecord` of plain lists, which the differential tests and
the batch-exploration bench compare against bit for bit.  Both explorers
visit states in the order of the explicit explorer (transitions are indexed
in sorted name order, matching ``PetriNet.enabled_transitions``) and
implement the same truncation semantics.

Nets the bitmask representation cannot express -- arc weights above one, or
markings with more than one token in a place -- raise
:class:`~repro.exceptions.CompilationError`; a firing that would produce a
second token raises :class:`~repro.exceptions.SafenessOverflowError`.
Callers (see ``build_reachability_graph``) catch both and fall back to the
explicit explorer, which keeps exact multiset semantics.
"""

from collections import deque

from repro.exceptions import CompilationError, SafenessOverflowError
from repro.petri.marking import Marking


def iter_bits(mask):
    """Yield the indices of the set bits of *mask*, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def transition_watch_lists(affected):
    """Per transition: the tuple of transition indices to re-check after it.

    This is the single source of the watch-list structure shared by every
    engine: the sequential explorer consumes it through
    :meth:`CompiledNet.affected_pairs`, and the batch (NumPy) engine through
    :class:`repro.petri.batch.WordTables` -- so the incremental
    enabled-set update logic cannot diverge between them.
    """
    return [tuple(iter_bits(mask)) for mask in affected]


class CompiledNet:
    """A Petri net compiled to integer-indexed tables and bitmasks."""

    __slots__ = (
        "net",
        "place_names",      # index -> place name (sorted)
        "place_bit",        # place name -> single-bit mask
        "transition_names", # index -> transition name (sorted)
        "transition_index", # transition name -> index
        "consume",          # per transition: mask of consumed places
        "produce",          # per transition: mask of produced places
        "read",             # per transition: mask of read places
        "need",             # per transition: consume | read
        "affected",         # per transition: mask over *transitions* to re-check
        "_affected_pairs",  # lazily built: per transition, ((bit, need), ...)
    )

    def __init__(self, net):
        weighted = [
            (t, p, w)
            for t in net.transitions
            for side in (net.consumed_places(t), net.produced_places(t))
            for p, w in side.items()
            if w != 1
        ]
        if weighted:
            t, p, w = weighted[0]
            raise CompilationError(
                "cannot compile net {!r}: arc between {!r} and {!r} has "
                "weight {}".format(net.name, p, t, w)
            )
        # Edges and BFS parents are packed as ``transition`` in the low 16
        # bits.  Nets beyond that fall back to the explicit explorer, loudly.
        if len(net.transitions) >= 0xFFFF:
            raise CompilationError(
                "cannot compile net {!r}: {} transitions exceed the packed "
                "16-bit transition index".format(net.name, len(net.transitions))
            )
        self.net = net
        self.place_names = sorted(net.places)
        self.place_bit = {name: 1 << i for i, name in enumerate(self.place_names)}
        self.transition_names = sorted(net.transitions)
        self.transition_index = {name: i for i, name in enumerate(self.transition_names)}
        self.consume = []
        self.produce = []
        self.read = []
        self.need = []
        for name in self.transition_names:
            consume = self._mask(net.consumed_places(name))
            produce = self._mask(net.produced_places(name))
            read = self._mask(net.read_places(name))
            self.consume.append(consume)
            self.produce.append(produce)
            self.read.append(read)
            self.need.append(consume | read)
        # Watch lists: place index -> mask of transitions needing that place.
        watch = {}
        for index, need in enumerate(self.need):
            for place in iter_bits(need):
                watch[place] = watch.get(place, 0) | (1 << index)
        self.affected = []
        for index in range(len(self.transition_names)):
            touched = self.consume[index] | self.produce[index]
            mask = 0
            for place in iter_bits(touched):
                mask |= watch.get(place, 0)
            self.affected.append(mask)
        self._affected_pairs = None

    @classmethod
    def compile(cls, net):
        """Compile *net*; raise :class:`CompilationError` when impossible."""
        return cls(net)

    @classmethod
    def try_compile(cls, net):
        """Compile *net*, or return ``None`` when it does not fit the engine."""
        try:
            return cls(net)
        except CompilationError:
            return None

    def _mask(self, places):
        mask = 0
        for place in places:
            mask |= self.place_bit[place]
        return mask

    # -- marking conversion -------------------------------------------------

    def encode(self, marking):
        """Pack a :class:`Marking` into an ``int``; raise when it does not fit."""
        state = 0
        for place, count in marking.items():
            if count > 1:
                raise CompilationError(
                    "marking holds {} tokens in place {!r}; the compiled "
                    "engine represents 1-safe markings only".format(count, place)
                )
            bit = self.place_bit.get(place)
            if bit is None:
                raise CompilationError("unknown place in marking: {!r}".format(place))
            state |= bit
        return state

    def decode(self, state):
        """Unpack an ``int`` state back into a :class:`Marking`."""
        return Marking({self.place_names[i]: 1 for i in iter_bits(state)})

    def mask_of(self, place):
        """Single-bit mask of *place* (``0`` for unknown places)."""
        return self.place_bit.get(place, 0)

    # -- semantics ----------------------------------------------------------

    def is_enabled(self, transition_index, state):
        need = self.need[transition_index]
        return (state & need) == need

    def enabled_mask(self, state):
        """Mask over transitions enabled at *state* (full scan)."""
        mask = 0
        bit = 1
        for transition_need in self.need:
            if (state & transition_need) == transition_need:
                mask |= bit
            bit <<= 1
        return mask

    def fire(self, transition_index, state):
        """Fire an enabled transition; detect loss of 1-safeness."""
        remainder = state & ~self.consume[transition_index]
        produced = self.produce[transition_index]
        overflow = remainder & produced
        if overflow:
            place = self.place_names[next(iter_bits(overflow))]
            raise SafenessOverflowError(self.transition_names[transition_index], place)
        return remainder | produced

    def affected_pairs(self):
        """Per transition: ``(((bit, need), ...), touched_mask)`` watch pairs.

        The incremental enabled-set update after firing ``t`` re-checks
        only the transitions in ``affected[t]``; pre-expanding that mask
        into ``(single-bit, need)`` pairs takes the bit-scan (``& -``,
        ``^``, ``bit_length``) out of the exploration inner loop.  Built on
        first use.
        """
        if self._affected_pairs is None:
            self._affected_pairs = [
                (tuple((1 << i, self.need[i]) for i in watched), mask)
                for watched, mask in zip(
                    transition_watch_lists(self.affected), self.affected)
            ]
        return self._affected_pairs

    def __repr__(self):
        return "CompiledNet({!r}, places={}, transitions={})".format(
            self.net.name, len(self.place_names), len(self.transition_names)
        )


class ExplorationRecord:
    """The plain-list graph :func:`explore_compiled` returns.

    * ``states`` -- int markings in discovery order;
    * ``edges`` -- per state, the packed ``transition | target << 16``
      edges in transition-index order;
    * ``parents`` -- per state, the packed ``parent << 16 | transition`` BFS
      parent (``None`` for the initial state);
    * ``frontier`` -- indices of partially-expanded states, ascending;
    * ``truncated`` -- whether the state bound was hit.
    """

    __slots__ = ("compiled", "states", "edges", "parents", "frontier",
                 "truncated")

    def __init__(self, compiled):
        self.compiled = compiled
        self.states = []
        self.edges = []
        self.parents = []
        self.frontier = []
        self.truncated = False

    def columns(self):
        """``(words, edge_data, edge_offsets, parents, frontier)`` arrays.

        The layout of :class:`~repro.petri.batch.ColumnarReachabilityGraph`:
        a ``(states, words)`` uint64 state table, the flat packed edges with
        CSR offsets, parents with ``-1`` for the initial state, and the
        sorted frontier.
        """
        import numpy as np
        from repro.petri.batch import WordTables

        words = WordTables(self.compiled).encode_rows(self.states)
        edge_data = np.asarray([packed for edges in self.edges
                                for packed in edges], dtype=np.int64)
        edge_offsets = np.zeros(len(self.edges) + 1, dtype=np.int64)
        np.cumsum([len(edges) for edges in self.edges], out=edge_offsets[1:])
        parents = np.asarray([-1 if parent is None else parent
                              for parent in self.parents], dtype=np.int64)
        frontier = np.asarray(sorted(self.frontier), dtype=np.int64)
        return words, edge_data, edge_offsets, parents, frontier

    def persistence_scan(self, allow_conflicts=True, max_witnesses=5):
        """The reference persistence scan: the exact per-state pair loop.

        Returns ``(violations, witnesses)`` where each witness is a dict with
        ``marking``/``fired``/``disabled`` keys, in state, then edge order.
        Frontier states are skipped: their edge lists are incomplete.
        """
        compiled = self.compiled
        consume = compiled.consume
        need = compiled.need
        names = compiled.transition_names
        states = self.states
        frontier = set(self.frontier)
        violations = 0
        witnesses = []
        for index, edges in enumerate(self.edges):
            if index in frontier or len(edges) < 2:
                continue
            for packed in edges:
                t1 = packed & 0xFFFF
                after = states[packed >> 16]
                for other in edges:
                    t2 = other & 0xFFFF
                    if t1 == t2:
                        continue
                    if allow_conflicts and consume[t1] & consume[t2]:
                        continue
                    if (after & need[t2]) != need[t2]:
                        violations += 1
                        if len(witnesses) < max_witnesses:
                            witnesses.append({
                                "marking": compiled.decode(states[index]),
                                "fired": names[t1],
                                "disabled": names[t2],
                            })
        return violations, witnesses


def explore_compiled(compiled, marking=None, max_states=200000):
    """Breadth-first exploration of a compiled net, one firing at a time.

    The reference implementation of :func:`repro.petri.batch.explore_batch`:
    it mirrors :func:`repro.petri.reachability.explore` exactly -- same
    discovery order, same truncation semantics (edges between known states
    are still recorded after the bound is hit; partially-expanded states form
    the frontier) -- but runs on integer states with incrementally maintained
    enabled masks, and returns an :class:`ExplorationRecord`.

    The loop body is deliberately flat: firing is inlined (a call per edge
    costs more than the firing itself), every table and bound method is
    hoisted into a local, and the incremental enabled-set update walks the
    pre-expanded ``affected_pairs`` watch lists instead of bit-scanning the
    affected mask per new state.
    """
    if not isinstance(compiled, CompiledNet):
        compiled = CompiledNet.compile(compiled)
    initial = marking if marking is not None else compiled.net.initial_marking()
    state = compiled.encode(initial)
    record = ExplorationRecord(compiled)
    record.states.append(state)
    record.edges.append([])
    record.parents.append(None)
    mask_index = {state: 0}
    enabled = [compiled.enabled_mask(state)]
    consume = compiled.consume
    produce = compiled.produce
    affected_pairs = compiled.affected_pairs()
    index_get = mask_index.get
    states = record.states
    states_append = states.append
    edges = record.edges
    edges_append = edges.append
    parents_append = record.parents.append
    enabled_append = enabled.append
    frontier_append = record.frontier.append
    queue = deque((0,))
    queue_append = queue.append
    queue_popleft = queue.popleft
    while queue:
        current = queue_popleft()
        source = states[current]
        complete = True
        current_edges_append = edges[current].append
        current_enabled = enabled[current]
        remaining = current_enabled
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            transition = low.bit_length() - 1
            remainder = source & ~consume[transition]
            produced = produce[transition]
            overflow = remainder & produced
            if overflow:
                raise SafenessOverflowError(
                    compiled.transition_names[transition],
                    compiled.place_names[next(iter_bits(overflow))])
            successor = remainder | produced
            target = index_get(successor)
            if target is None:
                if len(states) >= max_states:
                    record.truncated = True
                    complete = False
                    continue
                # Incremental enabled-set update: only transitions watching a
                # place touched by `transition` can change status.
                pairs, touched = affected_pairs[transition]
                mask = current_enabled & ~touched
                for bit, other_need in pairs:
                    if (successor & other_need) == other_need:
                        mask |= bit
                target = len(states)
                states_append(successor)
                mask_index[successor] = target
                edges_append([])
                parents_append(current << 16 | transition)
                enabled_append(mask)
                queue_append(target)
            current_edges_append(transition | (target << 16))
        if not complete:
            frontier_append(current)
    return record
