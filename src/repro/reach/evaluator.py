"""Evaluation of Reach expressions on markings and reachability graphs.

Columnar graphs (:mod:`repro.petri.batch`) expose ``word_bit_of`` /
``scan_rows``; on those, expressions are compiled down to vectorised
predicates over the uint64 state table, so witness searches never decode
non-matching markings.  Other graphs are scanned marking by marking.
"""

from repro.exceptions import ReachEvaluationError
from repro.reach import ast as _ast
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


def compile_mask_predicate(expression, mask_of):
    """Compile a Reach AST into a predicate over ``int`` bitmask states.

    *mask_of* maps a place name to its single-bit mask (``0`` for unknown
    places, which then hold zero tokens -- matching marking semantics on
    1-safe states).  Returns ``None`` when the expression contains a node
    kind this compiler does not know (e.g. a user-defined AST subclass), in
    which case the random-walk checker answers inconclusive.
    """
    if isinstance(expression, _ast.Constant):
        value = expression.value
        return lambda state: value
    if isinstance(expression, _ast.Marked):
        bit = mask_of(expression.place)
        return lambda state: bool(state & bit)
    if isinstance(expression, _ast.Compare):
        bit = mask_of(expression.place)
        operator = _ast.Compare._OPERATORS[expression.operator]
        value = expression.value
        return lambda state: operator(1 if state & bit else 0, value)
    if isinstance(expression, _ast.Not):
        operand = compile_mask_predicate(expression.operand, mask_of)
        if operand is None:
            return None
        return lambda state: not operand(state)
    if isinstance(expression, (_ast.And, _ast.Or, _ast.Implies)):
        left = compile_mask_predicate(expression.left, mask_of)
        right = compile_mask_predicate(expression.right, mask_of)
        if left is None or right is None:
            return None
        if isinstance(expression, _ast.And):
            return lambda state: left(state) and right(state)
        if isinstance(expression, _ast.Or):
            return lambda state: left(state) or right(state)
        return lambda state: (not left(state)) or right(state)
    return None


def _columnar_scan(expression, graph):
    """Return a vectorised row-level scanner for *graph*, or ``None``.

    Columnar graphs (:mod:`repro.petri.batch`) store states as a uint64
    word matrix; on those the expression compiles to one whole-table
    vector operation instead of a per-state predicate call.
    """
    word_bit_of = getattr(graph, "word_bit_of", None)
    scan = getattr(graph, "scan_rows", None)
    if word_bit_of is None or scan is None:
        return None
    from repro.petri.batch import compile_row_predicate

    predicate = compile_row_predicate(expression, word_bit_of)
    if predicate is None:
        return None
    return lambda limit: scan(predicate, limit=limit)


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
    they reach it.  (The random-walk checker works on raw ``int`` states and
    uses :func:`compile_mask_predicate` instead.)  When *net* is given,
    place names are validated once at compile time instead of on every
    call.
    """
    expression = _as_expression(expression)
    if net is not None:
        check_places(expression, net)
    return expression.evaluate


def find_witnesses(expression, graph, max_witnesses=5, with_traces=True):
    """Return reachable states of *graph* satisfying *expression*.

    Each witness is a dictionary with a ``marking`` key and, when
    *with_traces* is true, a ``trace`` key holding a shortest firing sequence
    leading to the witness.
    """
    expression = _as_expression(expression)
    check_places(expression, graph.net)
    scan = _columnar_scan(expression, graph)
    if scan is not None:
        markings = scan(max_witnesses)
    else:
        markings = (m for m in graph.states if expression.evaluate(m))
    witnesses = []
    for marking in markings:
        witness = {"marking": marking}
        if with_traces:
            witness["trace"] = graph.trace_to(marking)
        witnesses.append(witness)
        if len(witnesses) >= max_witnesses:
            break
    return witnesses


def holds_somewhere(expression, graph):
    """Return ``True`` when some reachable state satisfies *expression*."""
    expression = _as_expression(expression)
    check_places(expression, graph.net)
    scan = _columnar_scan(expression, graph)
    if scan is not None:
        return next(iter(scan(1)), None) is not None
    return graph.find(expression.evaluate) is not None
