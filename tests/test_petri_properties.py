"""Exhaustive verdicts on hand-built nets: deadlock, persistence, safeness, Reach.

Each query goes through
:class:`~repro.verification.checkers.exhaustive.ExhaustiveChecker`, which
decides it from the scans of an explicit reachability graph (the
``explicit_engine`` fixture), truncated graphs included.  Nets the batch
engine refuses are refused here too, and a token overflow is the
1-safeness verdict.
"""

import pytest

from repro.exceptions import CompilationError
from repro.petri.net import PetriNet
from repro.verification.checkers import (
    CheckerContext,
    DeadlockQuery,
    ExhaustiveChecker,
    PersistenceQuery,
    ReachQuery,
    SafenessQuery,
)
from repro.verification.checkers.walk_core import replay_witness

from oracles.reachability import ReachabilityGraph

pytestmark = pytest.mark.usefixtures("explicit_engine")


def check(net, query, max_states=200000):
    """The exhaustive checker's outcome of *query* on *net*, and its graph."""
    context = CheckerContext(net, max_states=max_states)
    outcome = ExhaustiveChecker(context).check(query)
    assert type(context.graph) is ReachabilityGraph
    return outcome, context.graph


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
    """A net whose initial marking holds two tokens in a place."""
    net = PetriNet("unsafe")
    net.add_place("src", tokens=2)
    net.add_place("sink")
    net.add_transition("move")
    net.add_arc("src", "move")
    net.add_arc("move", "sink")
    return net


def overflow_net():
    """Two transitions both produce into ``c``: the second firing overflows."""
    net = PetriNet("overflow")
    net.add_place("a", tokens=1)
    net.add_place("b", tokens=1)
    net.add_place("c")
    for source in ("a", "b"):
        net.add_transition("t" + source)
        net.add_arc(source, "t" + source)
        net.add_arc("t" + source, "c")
    return net


def ring_net(places=6):
    net = PetriNet("ring")
    for index in range(places):
        net.add_place("p{}".format(index), tokens=1 if index == 0 else 0)
        net.add_transition("t{}".format(index))
    for index in range(places):
        net.add_arc("p{}".format(index), "t{}".format(index))
        net.add_arc("t{}".format(index), "p{}".format((index + 1) % places))
    return net


def ring_pair_net():
    """Two one-token rings of two places each: 1-safe and concurrent."""
    net = PetriNet("ring-pair")
    for place in ("a0", "a1", "b0", "b1"):
        net.add_place(place, tokens=int(place.endswith("0")))
        net.add_transition("t" + place)
    for place, successor in (("a0", "a1"), ("a1", "a0"), ("b0", "b1"),
                             ("b1", "b0")):
        net.add_arc(place, "t" + place)
        net.add_arc("t" + place, successor)
    return net


class TestTruncatedGraphChecks:
    """Truncated graphs must never blame a frontier state."""

    def test_no_phantom_deadlock_on_truncated_ring(self):
        outcome, _ = check(ring_net(), DeadlockQuery(), max_states=2)
        assert outcome.holds is None  # inconclusive, never "violated"

    def test_real_deadlock_survives_truncation(self):
        # One branch of the choice fits under the bound and ends in a true
        # deadlock; the other is cut off.  The found deadlock is definitive.
        outcome, graph = check(choice_net(), DeadlockQuery(), max_states=2)
        assert graph.truncated
        assert outcome.holds is False

    def test_persistence_skips_frontier_states(self):
        # Two interleaved one-token rings are persistent; a truncated scan
        # that inspected the partial successors of frontier states would
        # report spurious disablings.
        outcome, graph = check(ring_pair_net(), PersistenceQuery(),
                               max_states=3)
        assert graph.truncated and graph.frontier
        assert outcome.holds is None

    def test_boundedness_inconclusive_when_truncated(self):
        outcome, _ = check(ring_net(), SafenessQuery(), max_states=2)
        assert outcome.holds is None


class TestDeadlock:
    def test_choice_net_deadlocks(self):
        outcome, _ = check(choice_net(), DeadlockQuery())
        assert outcome.holds is False
        assert outcome.witnesses
        assert "trace" in outcome.witnesses[0]

    def test_cycle_free_of_deadlock(self):
        net = PetriNet("loop")
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        outcome, _ = check(net, DeadlockQuery())
        assert outcome.holds is True


class TestPersistence:
    def test_structural_conflict_is_not_a_hazard(self):
        outcome, _ = check(choice_net(), PersistenceQuery())
        assert outcome.holds is True

    def test_read_arc_disabling_is_a_hazard(self):
        outcome, _ = check(hazard_net(), PersistenceQuery())
        assert outcome.holds is False
        witness = outcome.witnesses[0]
        assert witness["fired"] == "kill"
        assert witness["disabled"] == "observe"

    def test_conflicts_can_be_counted_when_not_allowed(self):
        outcome, _ = check(choice_net(),
                           PersistenceQuery(allow_conflicts=False))
        assert outcome.holds is False


class TestBoundedness:
    def test_safe_net_passes(self):
        outcome, _ = check(choice_net(), SafenessQuery())
        assert outcome.holds is True

    def test_two_token_marking_is_refused(self):
        context = CheckerContext(unbounded_like_net())
        with pytest.raises(CompilationError, match="2 tokens in place 'src'"):
            ExhaustiveChecker(context).check(SafenessQuery())

    def test_overflow_fails_safeness_with_a_replayed_trace(self):
        net = overflow_net()
        context = CheckerContext(net)
        checker = ExhaustiveChecker(context)
        outcome = checker.check(SafenessQuery())
        assert context.graph is None
        assert outcome.holds is False
        (witness,) = outcome.witnesses
        assert (witness["trace"], witness["transition"], witness["place"]) \
            == (["ta"], "tb", "c")
        assert replay_witness(net, "overflow", witness["trace"],
                              transition="tb") is not None
        deadlock = checker.check(DeadlockQuery())
        assert deadlock.holds is None
        assert "second token into place 'c'" in deadlock.details


class TestMutualExclusion:
    """Mutual exclusion of two places is the Reach query ``$a & $b``."""

    def test_exclusive_places(self):
        outcome, _ = check(choice_net(), ReachQuery('$"a" & $"b"'))
        assert outcome.holds is True
        assert outcome.witnesses == []

    def test_non_exclusive_places(self):
        net = PetriNet("both")
        net.add_place("p", tokens=1)
        net.add_place("a")
        net.add_place("b")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "a")
        net.add_arc("t", "b")
        outcome, _ = check(net, ReachQuery('$"a" & $"b"'))
        assert [w["trace"] for w in outcome.witnesses] == [["t"]]
