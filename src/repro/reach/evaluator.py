"""Evaluation of Reach expressions on markings and reachability graphs.

Graph searches go through the graph's own
:meth:`~repro.petri.reachability.ReachabilityGraph.scan`: the explicit graph
evaluates the expression marking by marking, a columnar graph
(:mod:`repro.petri.batch`) compiles it to one vectorised predicate over its
uint64 state table and never decodes a non-matching marking.
"""

from repro.exceptions import ReachEvaluationError
from repro.reach.ast import ReachExpression
from repro.reach.parser import parse


def _as_expression(expression):
    if isinstance(expression, ReachExpression):
        return expression
    if isinstance(expression, str):
        return parse(expression)
    raise ReachEvaluationError(
        "expected a Reach expression or string, found {!r}".format(type(expression))
    )


def check_places(expression, net):
    """Raise :class:`ReachEvaluationError` for places absent from *net*."""
    unknown = {place for place in expression.places() if not net.has_place(place)}
    if unknown:
        raise ReachEvaluationError(
            "Reach expression references unknown place(s): {}".format(
                ", ".join(sorted(unknown))
            )
        )


def evaluate(expression, marking, net=None):
    """Evaluate *expression* (AST or text) on a single marking."""
    expression = _as_expression(expression)
    if net is not None:
        check_places(expression, net)
    return expression.evaluate(marking)


def marking_predicate(expression, net=None):
    """Compile *expression* (AST or text) into a ``marking -> bool`` callable.

    This is the single-marking counterpart of :func:`find_witnesses`: it
    needs no materialised reachability graph, so callers that visit markings
    on the fly (simulation hooks, external explorers) can test each state as
    they reach it.  (The random-walk checker works on raw state rows and
    uses :func:`~repro.petri.batch.compile_row_predicate` instead.)  When
    *net* is given, place names are validated once at compile time instead
    of on every call.
    """
    expression = _as_expression(expression)
    if net is not None:
        check_places(expression, net)
    return expression.evaluate


def find_witnesses(expression, graph, max_witnesses=5, with_traces=True):
    """Return the first *max_witnesses* reachable states satisfying *expression*.

    States come in discovery order.  Each witness is a dictionary with a ``marking`` key and, when
    *with_traces* is true, a ``trace`` key holding a shortest firing sequence
    leading to the witness.
    """
    expression = _as_expression(expression)
    check_places(expression, graph.net)
    witnesses = []
    for marking in graph.scan(expression, max_witnesses):
        witness = {"marking": marking}
        if with_traces:
            witness["trace"] = graph.trace_to(marking)
        witnesses.append(witness)
    return witnesses


def holds_somewhere(expression, graph):
    """Return ``True`` when some reachable state satisfies *expression*."""
    expression = _as_expression(expression)
    check_places(expression, graph.net)
    return next(graph.scan(expression, 1), None) is not None
