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

The result of exploration is a :class:`CompiledReachabilityGraph`, a thin
adapter with the full :class:`~repro.petri.reachability.ReachabilityGraph`
API (markings are decoded on demand) plus mask-level fast paths used by
:mod:`repro.petri.properties` and :mod:`repro.reach.evaluator`.  Both
engines visit states in the same order (transitions are indexed in sorted
name order, matching ``PetriNet.enabled_transitions``) and implement the
same truncation semantics, so their graphs are bit-identical on states,
edges, frontier and property verdicts.

Nets the bitmask representation cannot express -- arc weights above one, or
markings with more than one token in a place -- raise
:class:`~repro.exceptions.CompilationError`; a firing that would produce a
second token raises :class:`~repro.exceptions.SafenessOverflowError`.
Callers (see ``build_reachability_graph``) catch both and fall back to the
explicit explorer, which keeps exact multiset semantics.
"""

from collections import deque

from repro.exceptions import (
    CompilationError,
    SafenessOverflowError,
    VerificationError,
)
from repro.petri.marking import Marking
from repro.petri.reachability import ReachabilityGraph


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


class CompiledReachabilityGraph(ReachabilityGraph):
    """Reachability graph backed by integer states.

    Exposes the full :class:`ReachabilityGraph` API -- markings are decoded
    lazily, and the dict-based successor/predecessor structures are
    materialised only when asked for -- plus mask-level fast paths
    (:meth:`scan_masks`, :meth:`persistence_scan`, :attr:`one_safe`) that the
    property checks and the Reach evaluator use to stay in integer land.
    """

    #: Compiled graphs exist only while every marking stayed 1-safe.
    one_safe = True

    #: Edges are stored packed -- ``transition | target_index << 16`` -- one
    #: small int per edge instead of a tuple.  Packing keeps multi-million
    #: -edge graphs ~3x smaller and (ints being invisible to the cyclic GC)
    #: far cheaper to hold.  (``CompiledNet`` refuses nets whose transition
    #: count overflows the 16-bit field.)

    def __init__(self, compiled, initial_state):
        super().__init__(compiled.net, compiled.decode(initial_state))
        self.compiled = compiled
        self._mask_states = []      # int states in discovery order
        self._mask_index = None     # int state -> index (built lazily)
        self._mask_edges = []       # per state: list of packed edges
        self._parents = []          # per state: parent idx << 16 | transition
                                    # (None for the initial state)
        self._frontier_indices = set()
        self._decoded = {}          # state index -> Marking (memoised)
        self._all_decoded = None    # list of all markings, discovery order
        self._materialized = False

    # -- construction (used by explore_compiled) -----------------------------

    def _add_mask_state(self, state, parent=None):
        index = len(self._mask_states)
        self._mask_states.append(state)
        if self._mask_index is None:
            self._mask_index = {}
        self._mask_index[state] = index
        self._mask_edges.append([])
        self._parents.append(parent)
        return index

    # -- decoding ------------------------------------------------------------

    def _state_index(self):
        """The ``int state -> index`` map, built on first use.

        The sequential explorer fills it as its dedup structure; graphs
        built without it only pay for it when a caller actually asks a
        marking-level question.
        """
        if self._mask_index is None:
            self._mask_index = {
                state: index for index, state in enumerate(self._mask_states)
            }
        return self._mask_index

    def _marking_at(self, index):
        marking = self._decoded.get(index)
        if marking is None:
            marking = self.compiled.decode(self._mask_states[index])
            self._decoded[index] = marking
        return marking

    def _index_of(self, marking):
        """Index of a marking-level state, or ``None`` when unreachable."""
        try:
            state = self.compiled.encode(marking)
        except CompilationError:
            return None
        return self._state_index().get(state)

    def _ensure_materialized(self):
        """Populate the dict-based structures of the parent class."""
        if self._materialized:
            return
        names = self.compiled.transition_names
        for index in range(len(self._mask_states)):
            self._add_state(self._marking_at(index))
        for index, edges in enumerate(self._mask_edges):
            source = self._marking_at(index)
            for packed in edges:
                self._add_edge(source, names[packed & 0xFFFF],
                               self._marking_at(packed >> 16))
        self._frontier = {self._marking_at(i) for i in self._frontier_indices}
        self._materialized = True

    # -- ReachabilityGraph API -----------------------------------------------

    def __len__(self):
        return len(self._mask_states)

    def __contains__(self, marking):
        return self._index_of(marking) is not None

    @property
    def states(self):
        if self._all_decoded is None:
            self._all_decoded = [
                self._marking_at(i) for i in range(len(self._mask_states))
            ]
        return list(self._all_decoded)

    def successors(self, marking):
        self._ensure_materialized()
        return super().successors(marking)

    def predecessors(self, marking):
        self._ensure_materialized()
        return super().predecessors(marking)

    def enabled(self, marking):
        index = self._index_of(marking)
        if index is None:
            raise KeyError(marking)
        names = self.compiled.transition_names
        return sorted({names[packed & 0xFFFF]
                       for packed in self._mask_edges[index]})

    @property
    def frontier(self):
        return {self._marking_at(i) for i in self._frontier_indices}

    def is_expanded(self, marking):
        index = self._index_of(marking)
        return index is not None and index not in self._frontier_indices

    def deadlocks(self):
        return [
            self._marking_at(i)
            for i, edges in enumerate(self._mask_edges)
            if not edges and i not in self._frontier_indices
        ]

    def edge_count(self):
        return sum(len(edges) for edges in self._mask_edges)

    def trace_to(self, target):
        index = self._index_of(target)
        if index is None:
            raise VerificationError("marking is not reachable: {!r}".format(target))
        # The BFS discovery tree stores a shortest path from the initial
        # marking to every state; walk it backwards.
        trace = []
        names = self.compiled.transition_names
        while self._parents[index] is not None:
            packed = self._parents[index]
            trace.append(names[packed & 0xFFFF])
            index = packed >> 16
        trace.reverse()
        return trace

    # -- mask-level fast paths -----------------------------------------------

    def mask_of(self, place):
        """Single-bit mask of *place* (``0`` for unknown places)."""
        return self.compiled.mask_of(place)

    def scan_masks(self, predicate, limit=None):
        """Yield markings whose bitmask satisfies *predicate*, discovery order.

        *predicate* receives the raw ``int`` state; only matching states are
        decoded.  Stops after *limit* matches when given.
        """
        found = 0
        for index, state in enumerate(self._mask_states):
            if predicate(state):
                yield self._marking_at(index)
                found += 1
                if limit is not None and found >= limit:
                    return

    def count_and_collect(self, predicate, max_witnesses):
        """Return ``(count, markings)`` of states satisfying *predicate*.

        Counts every match but decodes at most *max_witnesses* of them.
        """
        count = 0
        witnesses = []
        for index, state in enumerate(self._mask_states):
            if predicate(state):
                count += 1
                if len(witnesses) < max_witnesses:
                    witnesses.append(self._marking_at(index))
        return count, witnesses

    def persistence_scan(self, allow_conflicts=True, max_witnesses=5):
        """Scan for persistence violations entirely on bitmasks.

        Returns ``(violations, witnesses)`` where each witness is a dict with
        ``marking``/``fired``/``disabled`` keys (no traces -- the caller adds
        them).  Frontier states are skipped: their edge lists are incomplete.
        """
        compiled = self.compiled
        consume = compiled.consume
        need = compiled.need
        names = compiled.transition_names
        states = self._mask_states
        violations = 0
        witnesses = []
        for index, edges in enumerate(self._mask_edges):
            if index in self._frontier_indices or len(edges) < 2:
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
                                "marking": self._marking_at(index),
                                "fired": names[t1],
                                "disabled": names[t2],
                            })
        return violations, witnesses


def explore_compiled(compiled, marking=None, max_states=200000):
    """Breadth-first exploration of a compiled net.

    Mirrors :func:`repro.petri.reachability.explore` exactly -- same
    discovery order, same truncation semantics (edges between known states
    are still recorded after the bound is hit; partially-expanded states form
    the frontier) -- but runs on integer states with incrementally maintained
    enabled masks.

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
    graph = CompiledReachabilityGraph(compiled, state)
    graph._add_mask_state(state)
    enabled = [compiled.enabled_mask(state)]
    consume = compiled.consume
    produce = compiled.produce
    affected_pairs = compiled.affected_pairs()
    index_get = graph._mask_index.get
    mask_index = graph._mask_index
    states = graph._mask_states
    states_append = states.append
    edges = graph._mask_edges
    edges_append = edges.append
    parents_append = graph._parents.append
    enabled_append = enabled.append
    frontier_add = graph._frontier_indices.add
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
                    graph.truncated = True
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
            frontier_add(current)
    return graph
