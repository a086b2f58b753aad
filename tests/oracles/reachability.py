"""The explicit reachability engine: the batch engine's reference.

:func:`explore` is a breadth-first search over
:class:`~repro.petri.marking.Marking` dicts with exact multiset semantics,
one firing at a time, and :class:`ReachabilityGraph` keeps its states,
edges and frontier in Python dicts.  It visits states in the order of
:func:`repro.petri.batch.explore_batch` and implements the same
truncation semantics, so the differential suites decide every query on
both graphs and compare.  The graph answers the same scans as
:class:`~repro.petri.batch.ColumnarReachabilityGraph` (``deadlocks``,
``scan``, ``persistence_scan``, ``trace_to``) with plain marking loops.

:func:`explore_one_safe` holds it to the contract of
:func:`repro.petri.reachability.build_reachability_graph`: it refuses
what :class:`~repro.petri.compiled.CompiledNet` cannot compile and stops
at the first firing that puts a second token into a place.  The
``explicit_engine`` fixture of ``tests/conftest.py`` swaps it in behind
the checkers.
"""

from collections import deque
from itertools import islice

from repro.exceptions import SafenessOverflowError, VerificationError
from repro.petri.compiled import CompiledNet


class ReachabilityGraph:
    """The reachability graph (state graph) of a Petri net.

    States are :class:`~repro.petri.marking.Marking` objects; edges are
    labelled by transition names.
    """

    #: The explicit engine keeps no per-phase counters.
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


def explore(net, marking=None, max_states=200000, one_safe=False):
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
    one_safe:
        Raise :class:`~repro.exceptions.SafenessOverflowError` at the first
        firing, in expansion order, that puts a second token into a place,
        naming the lowest such place and carrying the trace that ends
        with the firing.  Otherwise markings keep every token.
    """
    initial = marking if marking is not None else net.initial_marking()
    graph = ReachabilityGraph(net, initial)
    graph._add_state(initial)
    queue = deque([initial])
    while queue:
        current = queue.popleft()
        complete = True
        for transition in net.enabled_transitions(current):
            if one_safe:
                _check_overflow(net, graph, current, transition)
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


def _check_overflow(net, graph, marking, transition):
    """Raise when firing *transition* at *marking* overflows a place."""
    consumed = net.consumed_places(transition)
    produced = net.produced_places(transition)
    overflowing = sorted(
        place for place, weight in produced.items()
        if marking[place] - consumed.get(place, 0) + weight > 1)
    if overflowing:
        raise SafenessOverflowError(
            transition, overflowing[0],
            trace=graph.trace_to(marking) + [transition])


def explore_one_safe(net, max_states=200000):
    """:func:`explore` under the batch engine's contract.

    A net :class:`~repro.petri.compiled.CompiledNet` cannot compile (a
    weighted arc, a multi-token initial marking) raises its
    :class:`~repro.exceptions.CompilationError`, and a firing that
    overflows a place raises :class:`~repro.exceptions.SafenessOverflowError`.
    """
    CompiledNet.compile(net).encode(net.initial_marking())
    return explore(net, max_states=max_states, one_safe=True)
