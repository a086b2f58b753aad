"""Tests for the explicit reachability and token-game simulation oracles."""

import pytest

from repro.exceptions import SimulationError, VerificationError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet

from oracles.reachability import explore
from oracles.simulation import PetriSimulator, random_trace


def ring_net(places=3, tokens=1):
    """A ring of places and transitions (a free-choice marked graph)."""
    net = PetriNet("ring")
    for index in range(places):
        net.add_place("p{}".format(index), tokens=1 if index < tokens else 0)
        net.add_transition("t{}".format(index))
    for index in range(places):
        net.add_arc("p{}".format(index), "t{}".format(index))
        net.add_arc("t{}".format(index), "p{}".format((index + 1) % places))
    return net


def dead_end_net():
    """p -> t -> q and then nothing: q is a deadlock."""
    net = PetriNet("dead")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    return net


class TestExplore:
    def test_ring_state_count(self):
        graph = explore(ring_net())
        # The single token can sit in any of the three places.
        assert len(graph) == 3
        assert not graph.truncated

    def test_deadlock_detection(self):
        graph = explore(dead_end_net())
        deadlocks = graph.deadlocks()
        assert deadlocks == [Marking({"q": 1})]

    def test_ring_has_no_deadlock(self):
        assert explore(ring_net()).deadlocks() == []

    def test_trace_to_reaches_target(self):
        net = dead_end_net()
        graph = explore(net)
        trace = graph.trace_to(Marking({"q": 1}))
        assert trace == ["t"]

    def test_trace_to_initial_is_empty(self):
        graph = explore(ring_net())
        assert graph.trace_to(graph.initial_marking) == []

    def test_trace_to_unreachable_raises(self):
        graph = explore(ring_net())
        with pytest.raises(VerificationError):
            graph.trace_to(Marking({"p0": 5}))

    def test_truncation_flag(self):
        graph = explore(ring_net(places=6), max_states=2)
        assert graph.truncated
        assert len(graph) <= 3

    def test_successors_and_predecessors(self):
        graph = explore(ring_net())
        initial = graph.initial_marking
        successors = graph.successors(initial)
        assert len(successors) == 1
        transition, target = successors[0]
        assert transition == "t0"
        assert (transition, initial) in graph.predecessors(target)

    def test_find_and_filter(self):
        graph = explore(ring_net())
        found = graph.find(lambda m: m["p2"] > 0)
        assert found is not None
        assert len(graph.filter(lambda m: True)) == len(graph)


class TestTruncationSemantics:
    """Regression tests: truncation must not fabricate graph structure.

    Before the fix, hitting ``max_states`` returned mid-expansion: the
    remaining enabled transitions of the current state were dropped (even
    edges to already-known states), and every never-expanded state sat in
    the graph with an empty successor list -- i.e. as a phantom deadlock.
    """

    def test_truncated_graph_has_no_phantom_deadlocks(self):
        # A deadlock-free ring truncated at any bound must report none.
        for max_states in (1, 2, 3, 4, 5):
            graph = explore(ring_net(places=6), max_states=max_states)
            assert graph.truncated
            assert graph.deadlocks() == []

    def test_frontier_states_are_flagged(self):
        graph = explore(ring_net(places=6), max_states=2)
        assert graph.frontier
        for marking in graph.frontier:
            assert not graph.is_expanded(marking)
            assert marking in graph

    def test_non_truncated_graph_has_empty_frontier(self):
        graph = explore(ring_net())
        assert graph.frontier == set()
        assert all(graph.is_expanded(m) for m in graph.states)

    def test_edges_between_known_states_are_recorded(self):
        # Two tokens in a 3-ring: states interleave, so a state hit after
        # truncation still has edges back into the discovered set.  Every
        # recorded state must carry every edge to another recorded state.
        net = ring_net(places=3, tokens=2)
        full = explore(net)
        truncated = explore(net, max_states=2)
        known = set(truncated.states)
        for marking in truncated.states:
            expected = [
                (t, m) for t, m in full.successors(marking) if m in known
            ]
            assert truncated.successors(marking) == expected

    def test_truncated_expanded_states_have_complete_edges(self):
        net = ring_net(places=6)
        graph = explore(net, max_states=3)
        for marking in graph.states:
            if graph.is_expanded(marking):
                assert graph.enabled(marking) == net.enabled_transitions(marking)


class TestSimulator:
    def test_fire_and_undo(self):
        simulator = PetriSimulator(dead_end_net())
        simulator.fire("t")
        assert simulator.marking == Marking({"q": 1})
        assert simulator.undo() == "t"
        assert simulator.marking == Marking({"p": 1})

    def test_fire_disabled_raises(self):
        simulator = PetriSimulator(dead_end_net())
        simulator.fire("t")
        with pytest.raises(SimulationError):
            simulator.fire("t")

    def test_undo_without_history_raises(self):
        with pytest.raises(SimulationError):
            PetriSimulator(ring_net()).undo()

    def test_random_run_stops_on_deadlock(self):
        simulator = PetriSimulator(dead_end_net())
        fired = simulator.run_random(10, seed=0)
        assert fired == ["t"]
        assert simulator.is_deadlocked()

    def test_random_run_is_reproducible(self):
        first, _ = random_trace(ring_net(places=5, tokens=2), steps=20, seed=42)
        second, _ = random_trace(ring_net(places=5, tokens=2), steps=20, seed=42)
        assert first == second

    def test_reset_restores_initial_marking(self):
        simulator = PetriSimulator(ring_net())
        simulator.run_random(5, seed=1)
        simulator.reset()
        assert simulator.marking == ring_net().initial_marking()
        assert simulator.trace == []

    def test_fire_sequence(self):
        simulator = PetriSimulator(ring_net())
        simulator.fire_sequence(["t0", "t1", "t2"])
        assert simulator.marking == ring_net().initial_marking()
