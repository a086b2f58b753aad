"""Tests for repro.petri.properties."""

from repro.petri.net import PetriNet
from repro.petri.properties import (
    check_boundedness,
    check_deadlock,
    check_persistence,
)
from repro.petri.reachability import explore
from repro.reach.evaluator import find_witnesses


def choice_net():
    """One token, two competing transitions (a structural conflict / choice)."""
    net = PetriNet("choice")
    net.add_place("p", tokens=1)
    net.add_place("a")
    net.add_place("b")
    net.add_transition("ta")
    net.add_transition("tb")
    net.add_arc("p", "ta")
    net.add_arc("p", "tb")
    net.add_arc("ta", "a")
    net.add_arc("tb", "b")
    return net


def hazard_net():
    """A transition disabled through a read arc by another one (a hazard)."""
    net = PetriNet("hazard")
    net.add_place("g", tokens=1)
    net.add_place("g_done")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("kill")      # consumes g
    net.add_transition("observe")   # consumes p, reads g
    net.add_arc("g", "kill")
    net.add_arc("kill", "g_done")
    net.add_arc("p", "observe")
    net.add_arc("observe", "q")
    net.add_read_arc("g", "observe")
    return net


def unbounded_like_net():
    """A net where a place accumulates two tokens (not 1-safe)."""
    net = PetriNet("unsafe")
    net.add_place("src", tokens=2)
    net.add_place("sink")
    net.add_transition("move")
    net.add_arc("src", "move")
    net.add_arc("move", "sink")
    return net


def ring_net(places=6, tokens=1):
    net = PetriNet("ring")
    for index in range(places):
        net.add_place("p{}".format(index), tokens=1 if index < tokens else 0)
        net.add_transition("t{}".format(index))
    for index in range(places):
        net.add_arc("p{}".format(index), "t{}".format(index))
        net.add_arc("t{}".format(index), "p{}".format((index + 1) % places))
    return net


class TestTruncatedGraphChecks:
    """Truncated graphs must never blame a frontier state."""

    def test_no_phantom_deadlock_on_truncated_ring(self):
        report = check_deadlock(explore(ring_net(), max_states=2))
        assert report.holds is None  # inconclusive, never "violated"

    def test_real_deadlock_survives_truncation(self):
        # One branch of the choice fits under the bound and ends in a true
        # deadlock; the other is cut off.  The found deadlock is definitive.
        graph = explore(choice_net(), max_states=2)
        assert graph.truncated
        report = check_deadlock(graph)
        assert report.holds is False

    def test_persistence_skips_frontier_states(self):
        # The interleaved two-token ring is persistent; a truncated scan
        # that inspected the partial successors of frontier states would
        # report spurious disablings.
        graph = explore(ring_net(places=4, tokens=2), max_states=3)
        assert graph.truncated and graph.frontier
        report = check_persistence(graph)
        assert report.holds is None

    def test_boundedness_inconclusive_when_truncated(self):
        report = check_boundedness(explore(ring_net(), max_states=2), bound=1)
        assert report.holds is None


class TestDeadlock:
    def test_choice_net_deadlocks(self):
        report = check_deadlock(explore(choice_net()))
        assert report.holds is False
        assert report.witnesses
        assert "trace" in report.witnesses[0]

    def test_cycle_free_of_deadlock(self):
        net = PetriNet("loop")
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        report = check_deadlock(explore(net))
        assert report.holds is True


class TestPersistence:
    def test_structural_conflict_is_not_a_hazard(self):
        report = check_persistence(explore(choice_net()))
        assert report.holds is True

    def test_read_arc_disabling_is_a_hazard(self):
        report = check_persistence(explore(hazard_net()))
        assert report.holds is False
        witness = report.witnesses[0]
        assert witness["fired"] == "kill"
        assert witness["disabled"] == "observe"

    def test_conflicts_can_be_counted_when_not_allowed(self):
        report = check_persistence(explore(choice_net()), allow_conflicts=False)
        assert report.holds is False


class TestBoundedness:
    def test_safe_net_passes(self):
        report = check_boundedness(explore(choice_net()), bound=1)
        assert report.holds is True

    def test_two_token_place_fails_safeness(self):
        report = check_boundedness(explore(unbounded_like_net()), bound=1)
        assert report.holds is False

    def test_higher_bound_passes(self):
        report = check_boundedness(explore(unbounded_like_net()), bound=2)
        assert report.holds is True


class TestMutualExclusion:
    """Mutual exclusion of two places is the Reach query ``$a & $b``."""

    def test_exclusive_places(self):
        assert find_witnesses('$"a" & $"b"', explore(choice_net())) == []

    def test_non_exclusive_places(self):
        net = PetriNet("both")
        net.add_place("p", tokens=1)
        net.add_place("a")
        net.add_place("b")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "a")
        net.add_arc("t", "b")
        witnesses = find_witnesses('$"a" & $"b"', explore(net))
        assert [w["trace"] for w in witnesses] == [["t"]]
