"""Standard behavioural properties checked on the reachability graph.

The paper verifies DFS models for "standard properties (such as deadlock) and
custom functional properties (such as hazards)".  This module provides the
standard ones:

* **deadlock freedom** -- no reachable marking without enabled transitions;
* **persistence** -- no transition is disabled by the firing of another,
  unless the two are in structural conflict (share a consumed place), which
  models an intended choice; a violation corresponds to a hazard;
* **boundedness / safeness** -- no place ever exceeds a given bound.

Each check has one code path: the graph classes answer the scans themselves
(:meth:`~repro.petri.reachability.ReachabilityGraph.persistence_scan` is the
explicit pair loop, vectorised on columnar graphs), so no check asks which
engine built its graph.  Custom properties -- mutual exclusion of two places
among them -- are Reach queries (:mod:`repro.reach.evaluator`).
"""


class PropertyReport:
    """Outcome of a property check.

    Attributes
    ----------
    name:
        Name of the checked property.
    holds:
        ``True`` / ``False``, or ``None`` when the check was inconclusive
        (truncated state space).
    witnesses:
        A list of counterexample descriptors.  Each witness is a dictionary
        with at least a ``marking`` key and, when available, a ``trace`` key
        holding a firing sequence from the initial marking.
    details:
        Free-form human-readable summary.
    """

    def __init__(self, name, holds, witnesses=None, details=""):
        self.name = name
        self.holds = holds
        self.witnesses = witnesses or []
        self.details = details

    def __bool__(self):
        return bool(self.holds)

    def __repr__(self):
        status = {True: "holds", False: "violated", None: "inconclusive"}[self.holds]
        return "PropertyReport({!r}, {}, witnesses={})".format(
            self.name, status, len(self.witnesses)
        )


def _inconclusive(name, graph):
    return PropertyReport(
        name,
        None,
        details="state space truncated after {} states; result inconclusive".format(
            len(graph)
        ),
    )


def check_deadlock(graph, max_witnesses=5, with_traces=True):
    """Check deadlock freedom on a reachability graph."""
    name = "deadlock-freedom"
    # Frontier states of a truncated graph are excluded by deadlocks(), so
    # every candidate genuinely has no enabled transition.
    deadlocks = graph.deadlocks()
    if not deadlocks:
        if graph.truncated:
            return _inconclusive(name, graph)
        return PropertyReport(name, True, details="no reachable deadlock")
    witnesses = []
    for marking in deadlocks[:max_witnesses]:
        witness = {"marking": marking}
        if with_traces:
            witness["trace"] = graph.trace_to(marking)
        witnesses.append(witness)
    return PropertyReport(
        name,
        False,
        witnesses=witnesses,
        details="{} reachable deadlock state(s)".format(len(deadlocks)),
    )


def check_persistence(graph, allow_conflicts=True, max_witnesses=5, with_traces=True):
    """Check persistence (absence of hazards).

    A violation is a reachable marking where transitions ``t1`` and ``t2``
    are both enabled, yet after firing ``t1`` the transition ``t2`` is no
    longer enabled.  When *allow_conflicts* is true (the default), pairs that
    share a consumed place are skipped: such pairs model an intended
    non-deterministic choice (e.g. the True/False outcome of a control
    register) rather than a hazard.
    """
    name = "persistence"
    violations, witnesses = graph.persistence_scan(
        allow_conflicts=allow_conflicts, max_witnesses=max_witnesses)
    if with_traces:
        for witness in witnesses:
            witness["trace"] = graph.trace_to(witness["marking"])
    if violations:
        return PropertyReport(
            name,
            False,
            witnesses=witnesses,
            details="{} persistence violation(s)".format(violations),
        )
    if graph.truncated:
        return _inconclusive(name, graph)
    return PropertyReport(name, True, details="all transitions persistent")


def check_boundedness(graph, bound=1, max_witnesses=5):
    """Check that no reachable marking puts more than *bound* tokens in a place."""
    name = "{}-boundedness".format(bound)
    if bound >= 1 and graph.one_safe:
        # A compiled graph only exists while every marking stayed 1-safe, so
        # any bound of one or more holds by construction.
        if graph.truncated:
            return _inconclusive(name, graph)
        return PropertyReport(name, True, details="net is {}-bounded".format(bound))
    witnesses = []
    violations = 0
    for marking in graph.states:
        offending = {p: c for p, c in marking.items() if c > bound}
        if offending:
            violations += 1
            if len(witnesses) < max_witnesses:
                witnesses.append({"marking": marking, "places": offending})
    if violations:
        return PropertyReport(
            name,
            False,
            witnesses=witnesses,
            details="{} marking(s) exceed bound {}".format(violations, bound),
        )
    if graph.truncated:
        return _inconclusive(name, graph)
    return PropertyReport(name, True, details="net is {}-bounded".format(bound))
