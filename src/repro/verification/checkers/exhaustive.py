"""The exhaustive checker: state-space exploration.

Build the reachability graph on the batch engine
(:func:`~repro.petri.reachability.build_reachability_graph`) and decide
every query straight from the graph's own scans: :meth:`deadlocks`,
:meth:`scan` (Reach) and :meth:`persistence_scan`.  The graph holds
1-safe markings only: a firing that puts a second token into a place
stops the exploration, and the checker context keeps the error.  That
overflow is the 1-safeness verdict -- violated, with its trace replayed
on the net -- and leaves every other query inconclusive, since the
graph was never finished.
Verdicts come from whether any state violates the property;
``max_witnesses`` only caps the witness list.

One rule turns a scan into a verdict (:meth:`ExhaustiveChecker._verdict`):
a violation found is conclusive, even on a truncated graph, since its
witnesses are real reachable states; none found on a truncated graph is
inconclusive (``None``); otherwise the property holds.  Within
``max_states`` the checker is therefore conclusive in both directions and
supports every query kind -- it is the only checker that can decide
persistence, which needs the enabled set of every reachable state, not
just individual markings.  Beyond the bound is exactly the gap the
inductive and random-walk checkers exist to fill.
"""

from repro.verification.checkers.base import Checker, register_checker
from repro.verification.checkers.walk_core import overflow_outcome

#: Details of a scan that found nothing on a truncated graph.
TRUNCATED = "state space truncated after {} states; result inconclusive"


@register_checker
class ExhaustiveChecker(Checker):
    """Decide queries by exhaustive exploration of the state space."""

    name = "exhaustive"
    summary = ("bitmask state-space exploration; conclusive both ways up "
               "to max-states")

    def check(self, query, max_witnesses=5):
        """Answer *query* from the graph, or from the overflow that stopped it."""
        if query.kind == "reach":
            self.context.check_places(query.expression)
        if self.context.graph is not None:
            return super().check(query, max_witnesses=max_witnesses)
        overflow = self.context.overflow
        if query.kind == "safeness":
            return overflow_outcome(self, overflow.trace, overflow.place,
                                    "exploration")
        return self.outcome(None, details="exploration stopped: {}; result "
                            "inconclusive".format(overflow))

    def _verdict(self, violations, violated, witnesses, holds,
                 truncated=TRUNCATED):
        """The verdict of a scan that found *violations* (a count or ``0``).

        *violated* and *holds* are the details of either conclusive answer;
        *truncated* (formatted with the state count) those of a scan that
        found nothing on a truncated graph.
        """
        graph = self.context.graph
        if violations:
            return self.outcome(False, witnesses=witnesses, details=violated)
        if graph.truncated:
            return self.outcome(None, details=truncated.format(len(graph)))
        return self.outcome(True, details=holds)

    def _traced(self, witnesses):
        """Attach a shortest firing sequence to each witness dict."""
        graph = self.context.graph
        for witness in witnesses:
            witness["trace"] = graph.trace_to(witness["marking"])
        return witnesses

    def check_reach(self, query, max_witnesses=5):
        graph = self.context.graph
        witnesses = self._traced(
            [{"marking": marking}
             for marking in graph.scan(query.expression, max_witnesses)])
        found = len(witnesses)
        # An empty witness list under a zero budget says nothing: decide
        # from the graph, like deadlock and persistence do.
        if not max_witnesses and next(graph.scan(query.expression, 1),
                                      None) is not None:
            found = "some"
        return self._verdict(
            found, "{} reachable bad state(s)".format(found), witnesses,
            "no reachable bad state",
            truncated="inconclusive (truncated state space)")

    def check_deadlock(self, query, max_witnesses=5):
        # Frontier states of a truncated graph are excluded by deadlocks(),
        # so every candidate genuinely has no enabled transition.
        deadlocks = self.context.graph.deadlocks()
        witnesses = self._traced(
            [{"marking": marking} for marking in deadlocks[:max_witnesses]])
        return self._verdict(
            len(deadlocks),
            "{} reachable deadlock state(s)".format(len(deadlocks)),
            witnesses, "no reachable deadlock")

    def check_safeness(self, query, max_witnesses=5):
        # A graph exists only while every firing stayed 1-safe; an
        # overflow is answered by check() instead.
        return self._verdict(0, None, [], "net is 1-bounded")

    def check_persistence(self, query, max_witnesses=5):
        violations, witnesses = self.context.graph.persistence_scan(
            allow_conflicts=query.allow_conflicts, max_witnesses=max_witnesses)
        return self._verdict(
            violations, "{} persistence violation(s)".format(violations),
            self._traced(witnesses), "all transitions persistent")
