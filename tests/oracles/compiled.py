"""The pure-int sequential BFS: the oracle of the batch exploration engine.

:func:`explore_compiled` explores a :class:`~repro.petri.compiled.CompiledNet`
one firing at a time on Python ints, with incrementally maintained enabled
masks, and returns an :class:`ExplorationRecord` of plain lists.  It mirrors
the explicit oracle :func:`oracles.reachability.explore` exactly -- same
discovery order
(transitions are indexed in sorted name order, matching
``PetriNet.enabled_transitions``), same truncation semantics -- and
:func:`repro.petri.batch.explore_batch` must match it bit for bit
(``tests/test_petri_batch.py``, ``tests/test_storage.py`` and the
300k-state check of ``benchmarks/bench_parallel.py``).
"""

from collections import deque

from repro.exceptions import SafenessOverflowError
from repro.petri.compiled import CompiledNet, iter_bits


def is_enabled(compiled, transition_index, state):
    """Whether transition *transition_index* is enabled at int *state*."""
    need = compiled.need[transition_index]
    return (state & need) == need


def enabled_mask(compiled, state):
    """Mask over the transitions enabled at *state* (full scan)."""
    mask = 0
    bit = 1
    for transition_need in compiled.need:
        if (state & transition_need) == transition_need:
            mask |= bit
        bit <<= 1
    return mask


def watch_pairs(compiled):
    """Per transition: ``(((bit, need), ...), touched_mask)`` watch pairs.

    After firing ``t`` only the transitions whose preset (``need``) meets a
    place ``t`` consumes or produces can change status: those are its
    watched transitions, and *touched_mask* is their mask over transitions.
    The masks come straight from ``need`` / ``consume`` / ``produce``, so
    this incremental update is an algorithm separate from the batch
    engine's byte-table enabledness.  Pre-expanding each mask into
    ``(single-bit, need)`` pairs takes the bit-scan (``& -``, ``^``,
    ``bit_length``) out of the exploration inner loop.
    """
    need = compiled.need
    pairs = []
    for consume, produce in zip(compiled.consume, compiled.produce):
        touched = consume | produce
        watched = [t for t, needed in enumerate(need) if needed & touched]
        pairs.append((tuple((1 << t, need[t]) for t in watched),
                      sum(1 << t for t in watched)))
    return pairs


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

    def trace(self, index):
        """The firing sequence of the BFS tree from the root to *index*."""
        names = self.compiled.transition_names
        trace = []
        while self.parents[index] is not None:
            packed = self.parents[index]
            trace.append(names[packed & 0xFFFF])
            index = packed >> 16
        return trace[::-1]

    def columns(self):
        """``(words, edge_data, edge_offsets, parents, frontier)`` arrays.

        A ``(states, words)`` uint64 state table, the flat packed edges with
        CSR offsets, parents with ``-1`` for the initial state, and the
        sorted frontier: what :func:`graph_columns` reads off a
        :class:`~repro.petri.batch.ColumnarReachabilityGraph`.
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


def graph_columns(graph):
    """The :meth:`ExplorationRecord.columns` arrays of a columnar graph.

    A :class:`~repro.petri.batch.ColumnarReachabilityGraph` keeps neither
    edges nor parents, so its packed ``t | target << 16`` edges and their
    CSR offsets are regenerated here, through the graph's own edge
    regeneration (``_out_edges``), and its packed ``parent << 16 | t``
    parents are rebuilt from its fired transitions: each state's row is
    fired backwards (``WordTables.unfire``) and looked up in the graph.
    Its state rows are in its row layout; they are decoded to one bit per
    place.
    """
    import numpy as np

    states = len(graph)
    sources, transitions, targets = graph._out_edges(np.arange(states))
    offsets = np.zeros(states + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=states), out=offsets[1:])
    fired = graph._fired_arr[1:].astype(np.int64)
    parents = np.full(states, -1, dtype=np.int64)
    parents[1:] = graph._lookup(graph.tables.unfire(
        graph._words[1:], fired)) << 16 | fired
    return (graph.tables.layout.decode_rows(graph._words),
            transitions | targets << 16, offsets,
            parents, graph._frontier_arr)


def explore_compiled(compiled, marking=None, max_states=200000):
    """Breadth-first exploration of a compiled net, one firing at a time.

    The oracle of :func:`repro.petri.batch.explore_batch`:
    it mirrors :func:`oracles.reachability.explore` exactly -- same
    discovery order, same truncation semantics (edges between known states
    are still recorded after the bound is hit; partially-expanded states form
    the frontier) -- but runs on integer states with incrementally maintained
    enabled masks, and returns an :class:`ExplorationRecord`.

    The loop body is deliberately flat: firing is inlined (a call per edge
    costs more than the firing itself), every table and bound method is
    hoisted into a local, and the incremental enabled-set update walks the
    pre-expanded :func:`watch_pairs` instead of bit-scanning a watch mask
    per new state.

    The first firing that overflows a place raises
    :class:`~repro.exceptions.SafenessOverflowError` carrying the BFS-tree
    trace of its source and the transition.
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
    enabled = [enabled_mask(compiled, state)]
    consume = compiled.consume
    produce = compiled.produce
    affected_pairs = watch_pairs(compiled)
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
                name = compiled.transition_names[transition]
                raise SafenessOverflowError(
                    name, compiled.place_names[next(iter_bits(overflow))],
                    trace=record.trace(current) + [name])
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
