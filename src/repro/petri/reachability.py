"""Reachability analysis: the explicit engine and the engine choice.

In the paper the computationally heavy verification is delegated to the
MPSAT unfolding tool.  The DFS models considered here translate into Petri
nets whose reachable state spaces are modest (the OPE pipeline stages are
analysed per-stage or with a bounded number of stages), so a breadth-first
exploration is sufficient and keeps the library self-contained.

There are two engines, and :func:`build_reachability_graph` -- the one
place that picks between them -- lets the net decide: a net that compiles
and stays 1-safe runs on the array-native batch engine of
:mod:`repro.petri.batch`; any other net runs on :func:`explore`, the
explicit hash-dict engine here (also the batch engine's test reference).
Each graph class answers the property scans itself
(:meth:`ReachabilityGraph.scan`, :meth:`ReachabilityGraph.persistence_scan`),
so callers never ask which one they hold.
"""

from collections import deque
from itertools import islice

from repro.exceptions import VerificationError


class ReachabilityGraph:
    """The reachability graph (state graph) of a Petri net.

    States are :class:`~repro.petri.marking.Marking` objects; edges are
    labelled by transition names.
    """

    #: ``True`` only for graphs whose every marking is known to be 1-safe
    #: (the batch engine's), which answers boundedness without a scan.
    one_safe = False
    #: Structured per-phase counters of the exploration (the batch engine
    #: fills them in; the explicit engine keeps none).
    exploration_stats = None

    def __init__(self, net, initial_marking):
        self.net = net
        self.initial_marking = initial_marking
        self._states = {}           # marking -> state index
        self._successors = {}       # marking -> list of (transition, marking)
        self._predecessors = {}     # marking -> list of (transition, marking)
        self._frontier = set()      # markings whose successor lists are incomplete
        self.truncated = False

    # -- construction (used by explore) ---------------------------------------

    def _add_state(self, marking):
        if marking not in self._states:
            self._states[marking] = len(self._states)
            self._successors[marking] = []
            self._predecessors[marking] = []
        return self._states[marking]

    def _add_edge(self, source, transition, target):
        self._successors[source].append((transition, target))
        self._predecessors[target].append((transition, source))

    # -- queries ---------------------------------------------------------------

    def __len__(self):
        return len(self._states)

    def __contains__(self, marking):
        return marking in self._states

    @property
    def states(self):
        """All reachable markings, in discovery order."""
        return sorted(self._states, key=self._states.get)

    def successors(self, marking):
        """List of ``(transition, marking)`` successors of *marking*."""
        return list(self._successors[marking])

    def predecessors(self, marking):
        """List of ``(transition, marking)`` predecessors of *marking*."""
        return list(self._predecessors[marking])

    def enabled(self, marking):
        """Transitions enabled at *marking* (from the stored edges).

        For a frontier state of a truncated graph the stored edges are
        incomplete; use :meth:`is_expanded` to tell the two cases apart.
        """
        return sorted({transition for transition, _ in self.successors(marking)})

    @property
    def frontier(self):
        """Markings whose successor lists are incomplete (truncation only).

        When exploration hits its state bound, states whose enabled
        transitions could not all be recorded form the frontier.  Property
        checks must not draw conclusions from the (partial) edges of these
        states.  Empty whenever ``truncated`` is false.
        """
        return set(self._frontier)

    def is_expanded(self, marking):
        """``True`` when every enabled transition of *marking* was recorded."""
        return marking not in self._frontier

    def deadlocks(self):
        """Return the list of reachable deadlocked markings.

        Frontier states of a truncated graph are excluded: they have
        unrecorded enabled transitions, so an empty successor list there says
        nothing about deadlock.
        """
        return [
            m for m in self.states
            if not self._successors[m] and m not in self._frontier
        ]

    def edge_count(self):
        return sum(len(edges) for edges in self._successors.values())

    def find(self, predicate):
        """Return the first reachable marking satisfying *predicate*, or ``None``."""
        for marking in self.states:
            if predicate(marking):
                return marking
        return None

    def filter(self, predicate):
        """Return all reachable markings satisfying *predicate*."""
        return [marking for marking in self.states if predicate(marking)]

    def scan(self, expression, limit=None):
        """Yield reachable markings satisfying the Reach AST *expression*.

        Markings come in discovery order, at most *limit* of them (all when
        *limit* is ``None``).
        """
        return islice((marking for marking in self.states
                       if expression.evaluate(marking)), limit)

    def persistence_scan(self, allow_conflicts=True, max_witnesses=5):
        """Count persistence violations; ``(violations, witnesses)``.

        States in discovery order, the fired/disabled pair loops in
        sorted transition order, frontier states skipped (their successor
        lists are incomplete).  Witnesses carry ``marking``, ``fired`` and
        ``disabled``; at most *max_witnesses* are kept.
        """
        net = self.net
        witnesses = []
        violations = 0
        for marking in self.states:
            if not self.is_expanded(marking):
                continue
            successors = dict(self.successors(marking))
            enabled = sorted(successors)
            for t1 in enabled:
                after = successors[t1]
                for t2 in enabled:
                    if t1 == t2:
                        continue
                    if allow_conflicts and (set(net.consumed_places(t1))
                                            & set(net.consumed_places(t2))):
                        continue
                    if not net.is_enabled(t2, after):
                        violations += 1
                        if len(witnesses) < max_witnesses:
                            witnesses.append({"marking": marking, "fired": t1,
                                              "disabled": t2})
        return violations, witnesses

    def trace_to(self, target):
        """Return a firing sequence from the initial marking to *target*.

        Uses a breadth-first search over the stored predecessor edges, so the
        returned trace is one of the shortest.  Raises
        :class:`~repro.exceptions.VerificationError` if *target* is not a
        reachable state of this graph.
        """
        if target not in self._states:
            raise VerificationError("marking is not reachable: {!r}".format(target))
        if target == self.initial_marking:
            return []
        # BFS backwards from target to the initial marking.
        queue = deque([target])
        parent = {target: None}
        while queue:
            current = queue.popleft()
            if current == self.initial_marking:
                break
            for transition, predecessor in self._predecessors[current]:
                if predecessor not in parent:
                    parent[predecessor] = (transition, current)
                    queue.append(predecessor)
        if self.initial_marking not in parent:
            raise VerificationError(
                "no path from the initial marking to {!r}".format(target)
            )
        trace = []
        cursor = self.initial_marking
        while cursor != target:
            transition, successor = parent[cursor]
            trace.append(transition)
            cursor = successor
        return trace


def explore(net, marking=None, max_states=200000):
    """Build the reachability graph of *net* starting from *marking*.

    Parameters
    ----------
    net:
        The :class:`~repro.petri.net.PetriNet` to explore.
    marking:
        Starting marking; defaults to the net's initial marking.
    max_states:
        Safety bound on the number of stored states.  When the bound is hit
        the returned graph has ``truncated`` set to ``True``; property checks
        treat a truncated graph as inconclusive.
    """
    initial = marking if marking is not None else net.initial_marking()
    graph = ReachabilityGraph(net, initial)
    graph._add_state(initial)
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        complete = True
        for transition in net.enabled_transitions(current):
            successor = net.fire(transition, current)
            if successor not in graph:
                if len(graph) >= max_states:
                    # Cannot store the new state, but keep scanning: edges to
                    # already-discovered successors must still be recorded so
                    # the truncated graph is exact on the states it holds.
                    graph.truncated = True
                    complete = False
                    continue
                graph._add_state(successor)
                queue.append(successor)
            graph._add_edge(current, transition, successor)
        if not complete:
            graph._frontier.add(current)
    return graph


def build_reachability_graph(net, marking=None, max_states=200000,
                             resume=None):
    """Build the reachability graph of *net* with the engine the net allows.

    A net that compiles to bitmask form (:mod:`repro.petri.compiled`)
    runs on the array-native batch explorer of :mod:`repro.petri.batch`;
    a net it cannot represent (arc weights above one, multi-token
    markings, non-safe behaviour discovered mid-exploration) falls back
    to the explicit explorer, :func:`explore`.

    Parameters
    ----------
    net, marking, max_states:
        As for :func:`explore`.
    resume:
        A checkpoint directory making the batch exploration
        **crash-safe**: the engine keeps its arrays at named paths under
        the directory and atomically records a manifest after every
        completed BFS level (see :class:`~repro.petri.storage.Checkpoint`).
        When the directory already holds a valid manifest -- the leftover
        of a killed run -- exploration restarts from the last complete
        level instead of from scratch, and the resumed graph is
        bit-identical to an uninterrupted run.  A run that completes
        removes the directory's files.  Ignored by the explicit engine.

    The batch engine spills its arrays to disk as the ``REPRO_SPILL_DIR``
    / ``REPRO_SPILL_BYTES`` environment says (see
    :mod:`repro.petri.storage`); spilling never changes the graph, only
    where it lives, and the explicit engine ignores it.

    Both engines explore states in the same order and implement the same
    truncation semantics, so the resulting graphs are interchangeable.
    """
    # Imported lazily: batch.py subclasses ReachabilityGraph.
    from repro.exceptions import CompilationError
    from repro.petri.batch import explore_batch
    from repro.petri.compiled import CompiledNet

    try:
        return explore_batch(CompiledNet.compile(net), marking,
                             max_states=max_states,
                             checkpoint=str(resume) if resume else None)
    except CompilationError:
        return explore(net, marking, max_states=max_states)
