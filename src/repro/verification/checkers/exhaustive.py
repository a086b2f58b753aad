"""The exhaustive checker: state-space exploration.

This is the pre-refactor verification path extracted behind the
:class:`~repro.verification.checkers.base.Checker` interface: build the
reachability graph (the batch engine for nets that compile and stay 1-safe,
the explicit engine otherwise -- the net decides, see
:func:`~repro.petri.reachability.build_reachability_graph`) and decide every
query with the graph's own scan.  Verdicts come from whether any state
violates the property; ``max_witnesses`` only caps the witness list.  Within
``max_states`` it is conclusive in both directions and supports every query
kind -- it is the only checker that can decide persistence, which needs the
successor structure, not just individual markings.  Beyond the bound it
degrades to ``None`` (inconclusive), which is exactly the gap the inductive
and random-walk checkers exist to fill.
"""

from repro.petri.properties import (
    check_boundedness,
    check_deadlock,
    check_persistence,
)
from repro.reach.evaluator import find_witnesses, holds_somewhere
from repro.verification.checkers.base import Checker, register_checker


@register_checker
class ExhaustiveChecker(Checker):
    """Decide queries by exhaustive exploration of the state space."""

    name = "exhaustive"
    summary = ("explicit/bitmask state-space exploration; conclusive both "
               "ways up to max-states")

    def _from_report(self, report):
        return self.outcome(report.holds, witnesses=report.witnesses,
                            details=report.details)

    def check_reach(self, query, max_witnesses=5):
        self.context.check_places(query.expression)
        graph = self.context.graph
        witnesses = find_witnesses(query.expression, graph,
                                   max_witnesses=max_witnesses)
        # An empty witness list under a zero budget says nothing: decide
        # from the graph, like deadlock and persistence do.
        if witnesses or (not max_witnesses
                         and holds_somewhere(query.expression, graph)):
            return self.outcome(
                False, witnesses=witnesses,
                details="{} reachable bad state(s)".format(
                    len(witnesses) or "some"))
        if graph.truncated:
            return self.outcome(
                None, details="inconclusive (truncated state space)")
        return self.outcome(True, details="no reachable bad state")

    def check_deadlock(self, query, max_witnesses=5):
        report = check_deadlock(self.context.graph, max_witnesses=max_witnesses)
        return self._from_report(report)

    def check_safeness(self, query, max_witnesses=5):
        report = check_boundedness(self.context.graph, bound=query.bound,
                                   max_witnesses=max_witnesses)
        return self._from_report(report)

    def check_persistence(self, query, max_witnesses=5):
        report = check_persistence(self.context.graph,
                                   allow_conflicts=query.allow_conflicts,
                                   max_witnesses=max_witnesses)
        return self._from_report(report)
