"""Evaluation of Reach expressions on single markings.

Searches over a whole reachability graph are the graph's own
:meth:`~repro.petri.batch.ColumnarReachabilityGraph.scan`, which the
exhaustive checker calls directly: it compiles the expression to one
vectorised predicate over the graph's uint64 state table and never decodes
a non-matching marking.  This module evaluates one marking at a time and
validates place names against a net.
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

    This is the single-marking counterpart of a graph's ``scan``: it
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
